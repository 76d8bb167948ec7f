"""Every exception type the package defines is raised somewhere in it."""

import ast
from pathlib import Path

import johnson_cliques

PACKAGE = Path(johnson_cliques.__file__).parent


def _raised_names(tree: ast.AST) -> set[str]:
    """Names of the exceptions that ``raise X`` or ``raise X(...)`` raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_has_a_raise_site():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(
        *(_raised_names(ast.parse(path.read_text(encoding="utf-8")))
          for path in PACKAGE.glob("*.py"))
    )
    assert defined, "errors.py defines no exception class"
    assert defined <= raised, f"never raised: {sorted(defined - raised)}"
