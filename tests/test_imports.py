"""Every name a module of the package or of its tests imports is used there,
the package names every module-level private function of its own outside
that function's body, only the CLI opens files, only the network module
tells the two variants' layer plans apart, ``train`` is the package's one
training loop, and every dense product runs in the kernels module.

No linter is a dependency of the project, so this stands in for pyflakes'
unused-import check.  ``__init__.py`` is left out: its imports are the
package's public surface.  A private helper that only tests keep alive is
dead code, so only references inside ``src/`` count.
"""

import ast
import pathlib
from collections import Counter

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "crpnn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads as ld\nprint(sys, ld)\n"
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_functions(sources):
    """Module-level ``_private`` functions that no code names outside their own
    definition; ``sources`` are the texts of every module that may name them."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name: node
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    used = Counter(name for tree in trees for name in names(tree))
    return sorted(name for name, node in defined.items() if used[name] == Counter(names(node))[name])


def test_checker_finds_an_unreferenced_private_function():
    caller = "from .lib import _used\ndef run():\n    return _used() + lib._attr()\n"
    lib = (
        "def _used():\n    return 1\n"
        "def _attr():\n    return 2\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n"
        "def _dead():\n    return 3\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    assert unreferenced_private_functions([caller, lib]) == ["_dead", "_recursive"]


def test_every_private_function_is_called_from_the_package():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_functions(sources) == []


def open_calls(source):
    """Line numbers of the calls to the builtin ``open`` in a module."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    ]


def test_checker_finds_a_call_to_open():
    source = "import io\nwith open(p) as fh:\n    io.open(p)\n    fh.open()\nf = open\n"
    assert open_calls(source) == [2]


def test_only_the_cli_opens_files():
    # the library computes and returns; reading inputs and writing outputs is the CLI's job
    openers = {p.name: open_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in openers.items() if lines and name != "cli.py"} == {}


def mentions(source, attrs=(), names=()):
    """Line numbers where a module reads an attribute in ``attrs`` (as in
    ``spec.plan``) or names one of ``names``: as a variable, an attribute
    or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = node.attr in attrs or node.attr in names
        elif isinstance(node, ast.Name):
            found = node.id in names
        elif isinstance(node, ast.alias):
            found = node.name in names or node.asname in names
        else:
            continue
        if found:
            lines.append(node.lineno)
    return lines


def test_checker_finds_attribute_reads_and_names():
    source = (
        "from .network import CRPNN2 as II, plan_topology\n"
        "plan = spec.plan\n"
        "if spec.variant == network.CRPNN1 or CRPNN2:\n"
        "    pass\n"
    )
    assert mentions(source, attrs=("plan",)) == [2]
    assert sorted(mentions(source, attrs=("variant",), names=("CRPNN1", "CRPNN2"))) == [1, 3, 3, 3]


def test_only_the_network_tells_the_layer_plans_apart():
    # CR-PNN I runs as the layer plan at c = 1: the engine, training and the
    # expansion read spec.power, and only network.py derives it from the plan
    found = {}
    for p in sorted(SRC.glob("*.py")):
        source = p.read_text()
        if p.name != "network.py":
            found[p.name, ".plan"] = mentions(source, attrs=("plan",))
        if p.name in ("training.py", "spectrum.py"):
            found[p.name, "variant"] = mentions(
                source, attrs=("variant",), names=("CRPNN1", "CRPNN2")
            )
    assert {key: lines for key, lines in found.items() if lines} == {}


def calls_to(source, names):
    """Line numbers of the calls to a function in ``names``, by name or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                lines.append(node.lineno)
    return lines


def test_checker_finds_calls_by_name_and_attribute():
    source = "from .t import backward\nbackward(m)\nt.sgd_step(m, g)\nf = backward\nx.backward\n"
    assert calls_to(source, ("backward", "sgd_step")) == [2, 3]


def test_one_training_step_in_the_package():
    # the bench times train itself, so nothing in the package steps a model by
    # hand; grad_check, in training.py, is the public backward's one caller
    found = {}
    for p in sorted(SRC.glob("*.py")):
        source = p.read_text()
        found[p.name, "sgd_step"] = calls_to(source, ("sgd_step",))
        if p.name != "training.py":
            found[p.name, "backward"] = calls_to(source, ("backward",))
    assert {key: lines for key, lines in found.items() if lines} == {}


def dense_products(source):
    """Line numbers where a module names ``matmul``, ``dot`` or ``einsum`` as
    an attribute (``np.matmul``, ``numpy.dot``, ``a.dot``) or uses ``@`` or ``@=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = node.attr in ("matmul", "dot", "einsum")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            found = isinstance(node.op, ast.MatMult)
        else:
            continue
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_dense_products():
    source = (
        "import numpy\n"
        "c = np.matmul(a, b)\n"
        "c = a @ b.T\n"
        "c @= b\n"
        "c = numpy.einsum('ij,jk', a, b) + a.dot(b)\n"
        "c = a * b  # a @ b in a comment\n"
        "matmul = kernels.matmul_nt\n"
    )
    assert dense_products(source) == [2, 3, 4, 5, 5]


def test_dense_products_run_only_in_the_kernels():
    # every product goes through crpnn.kernels, where the multiply counter sees it
    found = {p.name: dense_products(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "kernels.py"} == {}
