"""Every name a module of the package imports is used there, or re-exported
through its ``__all__``: a deleted caller must not leave its import behind.
Every public name of ``heisenberg`` has a caller: the group keeps only what
the pipeline uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "h1curves").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree):
    """(name, line) of every name bound by an import, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = used_names(tree) | exported_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in keep]
    assert not unused, f"unused imports: {', '.join(unused)}"


def referenced_names(tree):
    """Every name read as a variable or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def public_names(tree):
    """(qualified, bare) name of every export and of every public method of
    the module's classes."""
    for name in exported_names(tree):
        yield name, name
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_heisenberg_name_has_a_caller():
    # a method counts as called when any attribute of that name is read
    # elsewhere: ast knows no types, so this catches a name nobody uses
    module = next(p for p in SOURCES if p.name == "heisenberg.py")
    used = set()
    for path in [p for p in SOURCES if p != module] + SCRIPTS:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    tree = ast.parse(module.read_text(encoding="utf-8"))
    dead = sorted(qualified for qualified, bare in public_names(tree) if bare not in used)
    assert not dead, f"heisenberg names with no caller in src/ or scripts/: {', '.join(dead)}"
