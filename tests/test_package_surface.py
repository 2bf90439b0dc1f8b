"""The package exports only what its own modules use, plus a few names kept on purpose.

Code that only the tests call belongs in tests/reference.py, not in the
package.  Every name `ergoquench/__init__.py` imports must be referenced in
some other module of the package outside its own definition, or be listed
in KEEP with the reason it stays public.
"""

import ast
from pathlib import Path

import ergoquench

PACKAGE = Path(ergoquench.__file__).resolve().parent

# exported names no package module calls, each with the reason it stays
KEEP = {
    "ergotropy": "the benchmark's tracer wraps it as the single-state ergotropy layer",
    "activation_time": "the run manifest planned in ROADMAP item 4 will call it",
    "ergotropy_difference": "the run manifest planned in ROADMAP item 4 will call it",
    "activation_time_analytic": "the run manifest planned in ROADMAP item 4 will call it",
}


def _exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loaded_names(tree) -> set:
    """Every bare name tree reads; a dataclass field or an assignment target is no read."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _used_names() -> set:
    """Names some module other than __init__ reads outside their own top-level definition."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _loaded_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    return used


def test_every_export_is_used_by_the_package_or_kept_for_a_reason():
    unused = sorted(_exported_names() - KEEP.keys() - _used_names())
    assert unused == [], f"exported but used by no package module: {unused}"


def test_every_kept_name_is_exported_and_still_unused():
    assert KEEP.keys() <= _exported_names()
    assert all(KEEP.values())
    assert sorted(KEEP.keys() & _used_names()) == []
