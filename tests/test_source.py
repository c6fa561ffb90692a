"""Rules on the source of the nsac package itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nsac"


def test_no_imports_inside_functions():
    """Every import is at module level: one place lists what a module needs,
    and an import cycle shows when the module loads, not on some later call."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    inside = set()
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert not inside, sorted(inside)
