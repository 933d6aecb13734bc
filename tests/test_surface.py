"""Every public top-level name of the package modules has a caller outside
the tests: a reference somewhere in ``src/schurpos`` (other than its own
definition and ``__init__.py``) or in ``benchmarks/``.  A helper that only the
tests call belongs in the tests, as the oracles of ``tests/oracles.py`` do.
The modules are the only import path: the package binds ``__version__`` alone.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schurpos"
MODULES = ("hermitian", "discriminants", "posmap", "phi", "forms", "serialization",
           "cli")


def referenced_names(tree: ast.AST, skip=frozenset()) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in ``tree``
    outside the nodes of ``skip``."""
    names = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def public_definitions(tree: ast.Module):
    """(name, node) for each public function, class and assigned name at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


@cache
def callers() -> dict[Path, ast.Module]:
    """The parsed files whose references count: src/schurpos and benchmarks/."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "benchmarks").glob("*.py")
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_callers_outside_tests(module):
    trees = callers()
    path = PACKAGE / f"{module}.py"
    unused = []
    for name, node in public_definitions(trees[path]):
        own = frozenset(ast.walk(node))
        if not any(name in referenced_names(tree, own if p == path else frozenset())
                   for p, tree in trees.items()):
            unused.append(name)
    assert not unused, f"{module}: public names only the tests call: {unused}"


def test_package_binds_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    assert bound == {"__version__"}
