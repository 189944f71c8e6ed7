"""Static checks on the package source: each module uses every name it
imports, and every module-level private name is referenced somewhere in
the package, so that a moved function leaves no import or helper behind;
every cost of ``mc_sim._COST`` is read, so a removed route leaves none.
Each test module uses every name it imports, too. Nothing dispatches on a
variant's tag or class: no comparison names a tag, and no type check,
identity or equality test names a variant class. The cli imports no
kernel layer (``graph_core``, ``closed_form``), and no module opens a file
for writing except ``cli._write``. The engine draws only doubles, through
``<generator>.random(...)``."""

import ast
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adn_consensus"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
}
MODULES = [name for name in TREES if name != "__init__.py"]
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(path.name for path in TESTS.glob("*.py"))


def _loaded(tree) -> set:
    """Names read in the tree: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused_imports(tree) -> list:
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return sorted(imported - _loaded(tree))


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert _unused_imports(TREES[module]) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_every_test_module_uses_its_imports(module):
    assert _unused_imports(ast.parse((TESTS / module).read_text(encoding="utf-8"))) == []


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


def _cost_aliases(scope) -> set:
    """``_COST`` and the names a function binds to it (``c = _COST``, or
    in a tuple assignment, ``size, c = ..., _COST``)."""
    names = {"_COST"}
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (
                    zip(target.elts, node.value.elts)
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    else [(target, node.value)]
                )
                names |= {
                    t.id
                    for t, v in pairs
                    if isinstance(t, ast.Name) and isinstance(v, ast.Name) and v.id == "_COST"
                }
    return names


def test_every_route_cost_is_read():
    # each of ``mc_sim._COST``'s fitted costs prices a route in a subscript
    # of ``_COST``, or of a name its function binds to ``_COST``, besides
    # the dict that defines it
    tree = TREES["mc_sim.py"]
    (costs,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_COST" for t in node.targets)
    ]
    scopes = [tree] + [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    read = set()
    for scope in scopes:
        aliases = _cost_aliases(scope) if scope is not tree else {"_COST"}
        read |= {
            node.slice.value
            for node in ast.walk(scope)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and isinstance(node.slice, ast.Constant)
        }
    keys = [key.value for key in costs.keys]
    assert keys and [key for key in keys if key not in read] == []


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


VARIANT_CLASSES = {"Variant", "Full", "Sparse", "FastSwitch"}


def _names_a_variant_class(node) -> bool:
    """Whether a name or attribute in the tree ``node`` is a variant class."""
    return any(
        (leaf.id if isinstance(leaf, ast.Name) else getattr(leaf, "attr", None))
        in VARIANT_CLASSES
        for leaf in ast.walk(node)
    )


def test_no_type_check_names_a_variant_class():
    # each variant answers for itself (weights(), bound(), ...); an
    # isinstance or issubclass test against a variant class would decide
    # for it from outside
    found = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
        and any(_names_a_variant_class(arg) for arg in node.args[1:])
    ]
    assert found == []


def test_no_identity_or_equality_test_names_a_variant_class():
    # ``cls is Sparse`` decides for a variant from outside just as an
    # isinstance test does
    ops = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)
    found = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, ops) for op in node.ops)
        and any(_names_a_variant_class(x) for x in (node.left, *node.comparators))
    ]
    assert found == []


# Calls that write a file named by a path, without an ``open`` of their own.
PATH_WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed", "savetxt"}


def _writes_a_file(call: ast.Call) -> bool:
    """Whether a call opens a file for writing: ``os.open``, a writer by
    path, or any other ``open`` whose mode is not a constant without
    "w", "a", "x" or "+" (the mode is the second argument of ``open`` and
    ``io.open``, the first of a method such as ``Path.open``)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if name in PATH_WRITERS or (name == "open" and owner == "os"):
        return True
    if name != "open":
        return False
    at = 1 if isinstance(func, ast.Name) or owner == "io" else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[at:at + 1]
    if not modes:
        return False  # read, the default
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_files_are_written_only_through_cli_write():
    # every output goes through cli._write, which replaces a regular file
    # in place of truncating it (README, "Outputs")
    (write,) = [
        node for node in TREES["cli.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_write"
    ]
    inside = [node for node in ast.walk(write) if isinstance(node, ast.Call) and _writes_a_file(node)]
    assert len(inside) == 1
    found = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _writes_a_file(node) and node not in inside
    ]
    assert found == []


def test_cli_imports_no_maths_layer():
    # the cli parses configs and writes files; it reaches the kernels
    # through the library's spectral, mc_sim and validation entry points
    paths = []
    for node in ast.walk(TREES["cli.py"]):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    found = [path for path in paths if {"graph_core", "closed_form"} & set(path.split("."))]
    assert found == []


# Draws of a numpy Generator other than ``random``, and of the legacy module.
OTHER_DRAWS = (
    {name for name in dir(np.random.Generator) if not name.startswith("_")}
    | {"rand", "randn", "randint", "random_integers", "random_sample", "ranf", "sample"}
) - {"random", "bit_generator", "spawn"}


@pytest.mark.parametrize("module", ["adn_model.py", "mc_sim.py"])
def test_engine_draws_only_doubles(module):
    # every draw is ``<generator>.random(...)``, each double read in turn, so
    # two consecutive draws can become one of their joint size without
    # moving a stream; ``integers``, ``choice`` or ``permutation`` would read
    # the stream in units of their own (``np.power`` and the like are no draws)
    found = [
        f"{module}:{node.lineno} {node.func.attr}"
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in OTHER_DRAWS
        and getattr(node.func.value, "id", None) not in ("np", "math")
    ]
    assert found == []
