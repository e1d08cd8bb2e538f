"""Every function, class and method of the engine is named by the engine.

Code that only tests reach is deleted or moved into ``tests/``.  This test
parses ``src/rank2chev`` with ``ast`` and fails on any function, class or
method defined there whose name the engine never uses: as an attribute, in
an import or, for a function or class, as a bare name.  A method is reached
only through an attribute (``obj.name``) or an import, so a local variable
that shares its name does not count.  Dunders and ``cli.main``, the console
entry point, are exempt.

A reference is matched by name alone, so a name that two definitions
share, or that some attribute happens to carry, counts as referenced for
both.  The test is a floor, not a proof that every definition is reached.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rank2chev"
EXEMPT = {("cli.py", "main")}


def _unreferenced() -> list[str]:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, functions)
        }
        for node in ast.walk(tree):
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((path.name, node.name, id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name)
    return [
        f"{module}:{name}"
        for module, name, method in defined
        if name not in attributes
        and (method or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
        and (module, name) not in EXEMPT
    ]


def test_every_definition_is_referenced_by_the_engine():
    assert _unreferenced() == []
