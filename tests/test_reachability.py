"""Every function, class and method of the engine is named by the engine.

Code that only tests reach is deleted or moved into ``tests/``.  This test
parses ``src/rank2chev`` with ``ast`` and fails on any function, class or
method defined there whose name the engine never uses: as a name, as an
attribute or in an import.  Dunders and ``cli.main``, the console entry
point, are exempt.

A reference is matched by name alone, so a name that two definitions
share, or that some attribute happens to carry, counts as referenced for
both.  The test is a floor, not a proof that every definition is reached.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rank2chev"
EXEMPT = {("cli.py", "main")}


def _unreferenced() -> list[str]:
    defined = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [
        f"{module}:{name}"
        for module, name in defined
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and (module, name) not in EXEMPT
    ]


def test_every_definition_is_referenced_by_the_engine():
    assert _unreferenced() == []
