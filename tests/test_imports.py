"""What a server loads: no cipher library unless it is blinded, never OpenSSL's hashing, no dataclasses,
no key material module, no client, no other command, and of ``fuzzyset``, ``verifiable`` and ``multiuser``
only what it serves from.

A plain search server matches trapdoors and never decrypts, so it must not
load ``cryptography``; a blinded one loads it when its state is made.  No
server, plain, authenticated or blinded, imports ``hashlib``, ``hmac``,
``secrets`` or ``_hashlib``: the one SHA-256 is CPython's built-in module,
which ``fzsearch.crypto`` alone names.  Nor does any server load
``dataclasses`` (or ``inspect`` under it): ``fzsearch.keys`` alone imports it,
the package's exported names load on first use, and ``serve --blinded`` reads
its blind key through ``persist.load_blind_key``, which never imports
``fzsearch.keys``.  No server loads ``fzsearch.client``: ``fzsearch.service``
answers the client's names only when they are read.
"""

import ast
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fzsearch
from conftest import random_corpus, search_msg
from fzsearch import blind_request, build_auth_trie, build_listing_index, build_trie_index, make_request
from fzsearch.crypto import prf_bytes
from fzsearch.persist import save_index, save_keys
from fzsearch.service import encode_message
from fzsearch.verifiable import record_digest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fzsearch"
HASH_MODULES = ("_hashlib", "hashlib", "hmac", "secrets")
# the package modules a plain server never calls: the other commands, fuzzy sets, blinding, proofs
OPTIONAL = ("fzsearch.commands", "fzsearch.fuzzyset", "fzsearch.multiuser", "fzsearch.verifiable")
INTROSPECTION = ("dataclasses", "inspect")  # ``dataclasses`` imports ``inspect``, ``ast``, ``dis``, ...
BUILTIN_SHA256 = ("_sha256", "_sha2")
ENV = {**os.environ, "PYTHONPATH": str(PACKAGE.parent) + os.pathsep + os.environ.get("PYTHONPATH", "")}

# ``import fzsearch``, then ``fzsearch serve`` of each index, which records the watched modules
# when its state is made and again after it has served that index's lines, and the optional
# modules when the index body is read.
SERVER = """
import json, sys
import fzsearch
package = sorted(m for m in sys.modules if m.startswith("fzsearch."))
import fzsearch.cli as cli
import fzsearch.persist as persist
from fzsearch.service import handle_line

spec = json.loads(sys.argv[1])
steps, bodies = {}, {}

def record(step):
    steps[step] = {
        "cryptography": any(m.split(".")[0] == "cryptography" for m in sys.modules),
        "hashing": sorted(m for m in spec["hash_modules"] if m in sys.modules),
        "introspection": sorted(m for m in spec["introspection"] if m in sys.modules),
        "keys": "fzsearch.keys" in sys.modules,
        "client": "fzsearch.client" in sys.modules,
        "optional": sorted(m for m in spec["optional"] if m in sys.modules),
    }

def serve_forever(server):
    record(kind + " state")
    hits = 0
    for line in spec["lines"][kind]:
        reply = json.loads(handle_line(server.state, line))
        assert reply["type"] in ("HelloAck", "SearchResp"), reply
        if reply["type"] == "SearchResp":
            assert ("proofs" in reply) == (kind in ("auth", "blinded")), reply
        hits += len(reply.get("records", []))
    assert hits, f"{kind}: no request found a record"
    record(kind)

def read_entries(*args, real=persist.read_entries):
    bodies[kind] = sorted(m for m in spec["optional"] if m in sys.modules)
    return real(*args)

cli.SearchServer.serve_forever = serve_forever
persist.read_entries = read_entries
for kind, args in spec["serve"].items():
    assert cli.main(["serve", "--port", "0", *args]) == 0
print(json.dumps({"package": package, "steps": steps, "bodies": bodies}))
"""

SERVED = ("listing", "trie", "auth", "blinded")  # what ``SERVER`` serves, in order
STEPS = [step for kind in SERVED for step in (f"{kind} state", kind)]


@pytest.fixture(scope="module")
def server_report(km, tmp_path_factory):
    """The submodules ``import fzsearch`` loads, and the watched modules a server process has
    loaded at each step of ``SERVER``: a listing, a trie, an auth and a blinded auth index."""
    tmp = tmp_path_factory.mktemp("servers")
    rng = random.Random(29)
    corpus = {word: [b"F1"] for word in random_corpus(rng, size=30, lo=3, hi=6)}
    keys = str(tmp / "k.fzky")
    save_keys(km, keys)
    serve = {}
    for name, build, method in (
        ("listing", build_listing_index, "wildcard"),
        ("trie", build_trie_index, "gram"),
        ("auth", build_auth_trie, "wildcard"),
    ):
        serve[name] = ["--index", str(tmp / f"{name}.fzix")]
        save_index(build(corpus, 1, km, method), serve[name][1])
    serve["blinded"] = [*serve["auth"], "--blinded", "--keys", keys, "--epoch", "1"]
    words = sorted(corpus)[:4]
    hello = encode_message({"type": "Hello"})
    reqs = [make_request(word, 1, km, method) for word in words for method in ("wildcard", "gram")]
    plain = [hello] + [encode_message(search_msg(req)) for req in reqs]
    lines = {
        "listing": plain,
        "trie": plain,
        "auth": [hello] + [encode_message(search_msg(req, proof=True)) for req in reqs],
        "blinded": [hello] + [encode_message(search_msg(blind_request(req, km.blind_key), epoch=1, proof=True)) for req in reqs],
    }
    spec = {
        "hash_modules": HASH_MODULES,
        "introspection": INTROSPECTION,
        "optional": OPTIONAL,
        "serve": serve,
        "lines": lines,
    }
    out = subprocess.run(
        [sys.executable, "-c", SERVER, json.dumps(spec)], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _seen(server_report, watched: str) -> dict:
    """``watched``'s entry of the report at each of ``STEPS``."""
    return {step: server_report["steps"][step][watched] for step in STEPS}


def test_a_plain_server_never_loads_the_cipher_library(server_report):
    assert _seen(server_report, "cryptography") == {step: step.startswith("blinded") for step in STEPS}


def test_no_server_loads_openssl_hashing(server_report):
    """Plain listing and trie servers, the auth server with proofs, the blinded one."""
    assert list(server_report["steps"]) == STEPS
    assert _seen(server_report, "hashing") == dict.fromkeys(STEPS, [])


def test_no_server_loads_dataclasses(server_report):
    """Nor ``inspect``."""
    assert _seen(server_report, "introspection") == dict.fromkeys(STEPS, [])


def test_each_server_loads_only_the_modules_it_serves_from(server_report):
    """No server loads ``commands``, ``fuzzyset`` or ``multiuser``; an auth server, blinded or not, loads
    ``verifiable`` before the index body is read.  The report's process serves the four in ``SERVED``
    order, so modules add up."""
    assert server_report["bodies"] == {
        "listing": [],
        "trie": [],
        "auth": ["fzsearch.verifiable"],
        "blinded": ["fzsearch.verifiable"],
    }
    assert _seen(server_report, "optional") == {
        "listing state": [], "listing": [],
        "trie state": [], "trie": [],
        "auth state": ["fzsearch.verifiable"], "auth": ["fzsearch.verifiable"],
        "blinded state": ["fzsearch.verifiable"], "blinded": ["fzsearch.verifiable"],
    }


def test_no_server_loads_the_client(server_report):
    assert _seen(server_report, "client") == dict.fromkeys(STEPS, False)


def test_serve_blinded_loads_neither_dataclasses_nor_the_key_material_module(server_report):
    """``serve --blinded`` reads its key file for the blind key alone, without a ``KeyMaterial``;
    ``test_no_server_loads_dataclasses`` covers its ``dataclasses``."""
    assert _seen(server_report, "keys") == dict.fromkeys(STEPS, False)


# As on an interpreter built without CPython's SHA-256 modules: crypto falls back to hashlib's.
FALLBACK = """
import hashlib, json, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
from fzsearch import crypto, verifiable
assert crypto.sha256 is hashlib.sha256, crypto.sha256
cases = json.loads(sys.argv[1])
print(json.dumps({
    "prf": [crypto.prf_bytes(bytes.fromhex(k), bytes.fromhex(m), n).hex() for k, m, n in cases["prf"]],
    "digest": [verifiable.record_digest([bytes.fromhex(r) for r in rs]).hex() for rs in cases["digest"]],
}))
"""


def test_without_the_builtin_sha256_the_fallback_gives_the_same_bytes():
    rng = random.Random(3)
    prf = [(rng.randbytes(size).hex(), rng.randbytes(rng.randrange(120)).hex(), rng.randrange(1, 33))
           for size in (0, 1, 16, 32, 63, 64, 65, 200) for _ in range(4)]
    digest = [[rng.randbytes(rng.randrange(28, 90)).hex() for _ in range(count)] for count in (0, 1, 2, 3, 7)]
    out = subprocess.run(
        [sys.executable, "-c", FALLBACK, json.dumps({"prf": prf, "digest": digest})],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["prf"] == [prf_bytes(bytes.fromhex(k), bytes.fromhex(m), n).hex() for k, m, n in prf]
    assert got["digest"] == [record_digest([bytes.fromhex(r) for r in rs]).hex() for rs in digest]


def _function_local(tree: ast.Module) -> set[int]:
    """The ids of the nodes that sit inside a function body."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside.update(id(child) for child in ast.walk(node) if child is not node)
    return inside


def _imports(tree: ast.Module):
    """``(node, top-level module names)`` of every import statement in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node, [(node.module or "").split(".")[0]]


def _handlers_of_import_error(tree: ast.Module) -> set[int]:
    """The ids of the nodes inside an ``except ImportError`` clause."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name) and node.type.id == "ImportError":
            inside.update(id(child) for child in ast.walk(node) if child is not node)
    return inside


def test_only_crypto_names_the_cipher_library_and_only_inside_functions():
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        local = _function_local(tree)
        for node, names in _imports(tree):
            if "cryptography" in names:
                imports.append((path.name, node.lineno, id(node) in local))
        if path.name != "crypto.py":
            assert "cryptography" not in path.read_text(), f"{path.name} names the cipher library"
    assert imports and {name for name, _, _ in imports} == {"crypto.py"}
    assert all(local for _, _, local in imports), [f"{name}:{line}" for name, line, local in imports if not local]


def test_no_module_imports_openssl_hashing_at_module_level():
    """Only ``crypto``'s fallback, for an interpreter without a built-in SHA-256, imports ``hashlib``."""
    module_level, fallbacks, builtin_named = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, str(path))
        local, fallback = _function_local(tree), _handlers_of_import_error(tree)
        for node, names in _imports(tree):
            if set(names) & set(HASH_MODULES) and id(node) not in local:
                where = f"{path.name}:{node.lineno}"
                (fallbacks if id(node) in fallback else module_level).append(where)
        if any(name in text for name in BUILTIN_SHA256):
            builtin_named.add(path.name)
    assert not module_level, module_level
    assert [where.split(":")[0] for where in fallbacks] == ["crypto.py"]
    assert builtin_named == {"crypto.py"}


def test_only_keys_imports_dataclasses_at_module_level():
    module_level = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        local = _function_local(tree)
        module_level += [path.name for node, names in _imports(tree) if "dataclasses" in names and id(node) not in local]
    assert module_level == ["keys.py"]


# Every name the package exported when it imported each submodule eagerly, and the submodule that defines it.
EXPORTS = {
    "crypto": ("decrypt_record", "encrypt_record", "prp", "trapdoor"),
    "errors": (
        "AuthFailure", "BadMagic", "BadParameter", "DuplicateUser", "EditBoundExceeded",
        "EmptyKeyword", "FzError", "Truncated", "UnknownUser", "VersionUnsupported",
    ),
    "fuzzyset": ("edit_distance", "fuzzy_set", "gram_fuzzy_set", "normalize_keyword", "wildcard_fuzzy_set"),
    "index": (
        "ListingIndex", "ResultSet", "SearchRequest", "TrieIndex", "blind_request", "build_listing_index",
        "build_trie_index", "decrypt_matches", "make_request", "search_listing", "search_trie", "symbolize",
        "unblind_request",
    ),
    "keys": ("KeyMaterial", "keygen"),
    "multiuser": ("UserDirectory",),
    "persist": ("load_directory", "load_index", "load_keys", "save_directory", "save_index", "save_keys"),
    "verifiable": ("Verdict", "VerdictReason", "build_auth_trie", "search_with_proof", "verify"),
}


def test_every_exported_name_resolves_to_its_modules_object():
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"fzsearch.{module}")
        for name in names:
            assert getattr(fzsearch, name) is getattr(defining, name), name
    assert sorted(fzsearch.__all__) == sorted(name for names in EXPORTS.values() for name in names)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from fzsearch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fzsearch.__all__)
    assert all(namespace[name] is getattr(fzsearch, name) for name in namespace)


def test_an_unknown_name_is_an_attribute_error():
    """perfbench's ``_wrapped`` looks every fzsearch module up with ``getattr(module, name, None)``."""
    for name in ("prf_bytes", "build_entries", "no_such_name"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(fzsearch, name)
        assert getattr(fzsearch, name, None) is None


def test_importing_the_package_loads_no_submodule(server_report):
    assert server_report["package"] == []
