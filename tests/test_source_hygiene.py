"""Static checks on the package source: each module uses every name it
imports, and every module-level private name is referenced somewhere in
the package, so that a moved function leaves no import or helper behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adn_consensus"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
}
MODULES = [name for name in TREES if name != "__init__.py"]


def _loaded(tree) -> set:
    """Names read in the tree: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert sorted(imported - _loaded(tree)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_referenced(module):
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    referenced = set().union(*(_loaded(tree) for tree in TREES.values()))
    assert sorted(private - referenced) == []


def test_no_comparison_names_a_model_tag():
    # a config's model tag is read only through adn_model.VARIANTS; a
    # comparison against a tag literal (==, !=, in a tuple of tags, ...)
    # would dispatch on it again
    tags = {"full", "sparse", "fastswitch"}
    found = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for leaf in ast.walk(operand)
        if isinstance(leaf, ast.Constant) and leaf.value in tags
    ]
    assert found == []
