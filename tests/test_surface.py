"""Every public function and class of the package has a caller.

A module-level function or class whose name starts with a letter must be
referenced, as a ``Name`` or an ``Attribute`` node, somewhere in
``src/fzsearch`` or ``perfbench/`` outside its own definition, or named by
perfbench's ``_wrapped(module, "name", wrapper)``, which patches a function
by its name and fails when the module lacks it.  Imports, ``__init__``'s
re-exports and docstring mentions do not count, and neither do the tests:
code that only the tests call belongs in the tests.

The README and ``persist``'s docstring name the wire protocol and the FZIX
version that the code speaks.
"""

import ast
import re
from pathlib import Path

import fzsearch.persist as persist
from fzsearch.service import PROTOCOL

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fzsearch"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _referenced() -> set[str]:
    names = set()
    for path in CALLERS:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    names.add(name)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_wrapped":
                    names.update(a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return names


def test_every_public_definition_has_a_caller():
    referenced = _referenced()
    unused = [
        f"{path.name}: {stmt.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in referenced
    ]
    assert not unused, "defined in src/fzsearch but used only by the tests or nowhere: " + ", ".join(unused)


def test_the_docs_name_the_protocol_and_fzix_version_the_code_speaks():
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"`protocol` \(now (\d+)\)", readme) == [str(PROTOCOL)]
    assert re.findall(r"`FZIX` index file, version (\d+)", readme) == [str(persist.INDEX_VERSION)]
    assert re.findall(r"``FZIX`` index file \(version (\d+)\)", persist.__doc__) == [str(persist.INDEX_VERSION)]
