"""The cipher library loads only where a cipher is built.

A plain search server matches trapdoors and never decrypts, so it must not
load ``cryptography``; a blinded one loads it when its state is made.
"""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import random_corpus
from fzsearch import build_listing_index, build_trie_index, make_request
from fzsearch.persist import save_index
from fzsearch.service import encode_message

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fzsearch"

SERVER = """
import json, sys
import fzsearch.cli
from fzsearch.persist import load_index
from fzsearch.service import ServerState, handle_line

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "cryptography")

paths, lines = json.loads(sys.argv[1])
hits = 0
for path in paths:
    state = ServerState(index=load_index(path))
    for line in lines:
        reply = json.loads(handle_line(state, line))
        assert reply["type"] in ("HelloAck", "SearchResp"), reply
        hits += len(reply.get("records", []))
assert hits, "no request found a record"
assert not loaded(), loaded()
ServerState(index=state.index, xi=bytes(16))
assert "cryptography" in loaded(), loaded()
print("ok")
"""


def test_a_plain_server_never_loads_the_cipher_library(km, tmp_path):
    rng = random.Random(29)
    corpus = {word: [b"F1"] for word in random_corpus(rng, size=30, lo=3, hi=6)}
    paths = []
    for name, build, method in (("listing", build_listing_index, "wildcard"), ("trie", build_trie_index, "gram")):
        path = str(tmp_path / f"{name}.fzix")
        save_index(build(corpus, 1, km, method), path)
        paths.append(path)
    words = sorted(corpus)[:4]
    lines = [encode_message({"type": "Hello"})]
    for word in words:
        for method in ("wildcard", "gram"):
            req = make_request(word, 1, km, method)
            lines.append(encode_message({"type": "SearchReq", "epoch": 0, "k": req.k, "trapdoors": [t.hex() for t in req.trapdoors]}))
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", SERVER, json.dumps([paths, lines])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def _function_local(tree: ast.Module) -> set[int]:
    """The ids of the nodes that sit inside a function body."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside.update(id(child) for child in ast.walk(node) if child is not node)
    return inside


def test_only_crypto_names_the_cipher_library_and_only_inside_functions():
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        local = _function_local(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "cryptography" for name in names):
                imports.append((path.name, node.lineno, id(node) in local))
        if path.name != "crypto.py":
            assert "cryptography" not in path.read_text(), f"{path.name} names the cipher library"
    assert imports and {name for name, _, _ in imports} == {"crypto.py"}
    assert all(local for _, _, local in imports), [f"{name}:{line}" for name, line, local in imports if not local]
