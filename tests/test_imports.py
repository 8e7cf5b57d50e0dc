"""Every name a qmfc module imports is used in it, every private top-level
function or class is used somewhere in the package, every parameter default
is overridden by some call, and no module imports scipy: a parse of each
module with ast, in place of a linter.  A fresh interpreter also runs every
experiment without loading scipy.  The tests' qubit references import none
of the engine's step code."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qmfc"


def imported_names(tree):
    """{bound name: line} of every import statement in the tree."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def references(node):
    """How often each name is read in the tree: as a name, or as an attribute (module._name)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_definition_is_used(path):
    # a helper that only tests call, or nothing, is referenced in no module
    # outside its own definition
    package = sum((references(ast.parse(p.read_text())) for p in SRC.glob("*.py")), Counter())
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
              and package[node.name] == references(node)[node.name]]
    assert not unused, f"{path.name} defines private names the package never uses: {unused}"


def defaulted_parameters(tree):
    """(function, parameter, position) of every parameter with a default in a
    top-level function of the tree; a keyword-only one has position None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args
            for i in range(len(args) - len(node.args.defaults), len(args)):
                yield node.name, args[i].arg, i
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def test_every_default_parameter_is_set_somewhere():
    # a default that no call overrides is a knob that does nothing: the
    # value belongs in the function, or in a module constant
    calls = [node for root in (SRC, TESTS, SRC.parent.parent / "perfbench")
             for p in root.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call)]
    passed = set()
    for call in calls:
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        passed.update((name, i) for i in range(len(positional)))
        passed.update((name, kw.arg) for kw in call.keywords)
    unset = [f"{path.name}: {fn}({param})" for path in sorted(SRC.glob("*.py"))
             for fn, param, i in defaulted_parameters(ast.parse(path.read_text()))
             if (fn, param) not in passed and (fn, i) not in passed]
    assert not unset, f"parameters no call sets: {unset}"


# the engine's step and its kernels: an oracle that calls them restates them
ENGINE_STEP = {"_kraus_step", "_euler_state", "_weyl_certificate", "_matmul", "_BlochKernel",
               "_MatrixKernel"}


@pytest.mark.parametrize("name", ["matrix_reference.py", "bloch_reference.py"])
def test_qubit_references_share_no_step_code(name):
    tree = ast.parse((TESTS / name).read_text(), filename=name)
    imported = {alias.name.split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    shared = sorted((imported | set(references(tree))) & ENGINE_STEP)
    assert not shared, f"{name} uses the engine's step code: {shared}"


def test_rates_sampler_shares_no_step_code():
    # strength_rate_numeric samples the closed form, so test_metrics can check
    # the engine against it: neither it nor any metrics function it calls may
    # reach the engine's step or its stepping loops
    tree = ast.parse((SRC / "metrics.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["strength_rate_numeric"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in references(functions[name]) if n in functions]
    assert "_fitted_rates" in reached
    used = set().union(*(references(functions[name]) for name in reached))
    shared = sorted(used & (ENGINE_STEP | {"_advance_chunk", "ensemble_states", "run_ensemble"}))
    assert not shared, f"strength_rate_numeric uses the engine's step code: {shared}"


def imported_modules(tree):
    """Every module an import statement in the tree names, dotted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # qmfc depends on numpy alone; scipy is the benchmark's optional extra
    tree = ast.parse(path.read_text(), filename=str(path))
    scipy = [m for m in imported_modules(tree) if m.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports {scipy}"


RUN_EVERYTHING = """
import os, sys
import numpy as np
import qmfc
from qmfc.cli import main
from qmfc.sde import nonselective_solve
for argv in (["fig1", "--theta-points", "7"],
             ["fig2", "--realizations", "2", "--t-end", "0.01", "--dt", "1e-3",
              "--theta-points", "2"],
             ["zeno", "--m-list", "2", "--runs", "10"],
             ["rates", "--k-list", "1"]):
    assert main(["--experiment", argv[0], "--out", argv[0] + ".csv"] + argv[1:]) == 0
nonselective_solve(np.eye(2) / 2, qmfc.SIGMA_Z, 1.0, qmfc.SIGMA_X, 0.2, [0.0, 1.0])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_experiments_run_without_loading_scipy(tmp_path):
    # every CLI experiment at smoke size, and the master-equation reference,
    # in a fresh interpreter: this test process may have scipy loaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", RUN_EVERYTHING], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]", out
