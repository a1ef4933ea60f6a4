"""Structural guards on the package source, read with ``ast``.

Every Monte Carlo path runs through the one shard engine in ``obtri.mc``:
no other module seeds shard substreams or starts a thread pool.  The one
process fan-out is ``obtri.bounds.lower_bounds``, which forks a child per
share of dimensions: no other module forks, and none imports
``multiprocessing`` or ``concurrent.futures.process``.  Every triangle is
measured by the one kernel in ``obtri.geometry``: no other module sums dot
products with ``einsum`` or reaches the kernel's helpers.  Text output lives
in ``obtri.cli``: no other module names ``stdout``, ``stderr``, ``csv`` or
``logging``, so the library returns values and the command writes them.
Every count and dimension is checked by ``obtri.bounds._int_at_least``: no
other module imports ``operator``, so ``operator.index`` has one home.  Every
real parameter is checked by ``obtri.bounds._real_in``: no other module
raises a hand-written range or finiteness error for one.  No
module keeps an import it does not use (names listed in ``__all__`` count
as used, so the package's re-exports are allowed).  And every public
top-level function or class has a caller: its own module uses it, another
module names it, ``obtri.__all__`` lists it or README.md documents it.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "obtri"
MODULES = sorted(PACKAGE.glob("*.py"))
ENGINE_ONLY = ("rng_for_shard", "ThreadPoolExecutor")
KERNEL_ONLY = ("einsum", "_coordinate_measures", "_edge_measures", "_gathered_measures",
               "_lagged_edges", "_row_measures", "_class_codes", "_triangle_area")
TEXT_OUTPUT_ONLY = ("stdout", "stderr", "csv", "logging")


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name the module binds, reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update((node.name.split(".")[0], node.name.split(".")[-1], node.asname))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _listed_in_all(tree: ast.Module) -> set[str]:
    """The strings listed in the module's ``__all__``."""
    listed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            listed.update(elt.value for elt in node.value.elts)
    return listed


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in ``__all__``."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _listed_in_all(tree)


@pytest.mark.parametrize("name", ENGINE_ONLY)
def test_shard_engine_names_only_in_mc(name):
    holders = [p.name for p in MODULES if name in _identifiers(_tree(p))]
    assert holders == ["mc.py"]


@pytest.mark.parametrize("name", KERNEL_ONLY)
def test_triangle_kernel_names_only_in_geometry(name):
    holders = [p.name for p in MODULES if name in _identifiers(_tree(p))]
    assert holders == ["geometry.py"]


@pytest.mark.parametrize("name", TEXT_OUTPUT_ONLY)
def test_text_output_names_only_in_cli(name):
    holders = [p.name for p in MODULES if name in _identifiers(_tree(p))]
    assert set(holders) <= {"cli.py"}, holders


def test_operator_imported_only_in_bounds():
    holders = [p.name for p in MODULES if "operator" in _imported(_tree(p))]
    assert holders == ["bounds.py"]


# The messages of a hand-written real-parameter check.  An error about a
# computed value, such as the quadrature's non-finite integrand, is not one.
PARAMETER_CHECK = re.compile(r"must (lie in|be finite|be positive)|requires \w+ [<>]")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "bounds.py"], ids=lambda p: p.name)
def test_real_parameters_checked_only_in_bounds(path):
    checks = []
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ValueError"):
            text = "".join(c.value for arg in node.exc.args for c in ast.walk(arg)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if PARAMETER_CHECK.search(text):
                checks.append(f"line {node.lineno}: {text!r}")
    assert not checks, f"{path.name} checks a real parameter by hand: {checks}"


def test_fork_only_in_bounds():
    holders = [p.name for p in MODULES if "fork" in _identifiers(_tree(p))]
    assert holders == ["bounds.py"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_process_pool_imports(path):
    modules = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    pools = {m for m in modules if m.split(".")[0] == "multiprocessing"
             or m.startswith("concurrent.futures.process")
             or m == "concurrent.futures.ProcessPoolExecutor"}
    assert not pools, f"{path.name} imports {sorted(pools)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_public_helper_has_a_caller():
    trees = {p.name: _tree(p) for p in MODULES}
    documented = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    exported = _listed_in_all(trees["__init__.py"])
    uncalled = []
    for module, tree in trees.items():
        called = _used(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        called |= exported | documented
        called = called.union(*(_identifiers(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in called):
                uncalled.append(f"{module[:-3]}.{node.name}")
    assert not uncalled, f"public helpers without a caller: {uncalled}"
