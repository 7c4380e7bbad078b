"""No function of ``colprob`` recurses: in each module, the graph of the
calls by bare name among its functions has no cycle. Every walk of a
formula keeps its own stack or folds over a post-order program, so a
formula of any depth costs no Python frames.

Only the evaluator knows the row weights of an elimination: every other
module reads masses. Within it, the rule loops read every mass from
``_weigh``, so explanation grows no second way to weigh a node, and no
row fold is left on its path: it names neither ``semantics._space`` nor
``_conj``, and no cost function chooses rows (``_by_gates``).

Importing colprob loads neither ``dataclasses`` nor ``inspect``: a CLI
query pays its imports on every start."""

import ast
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter

import pytest

from conftest import REPO

MODULES = sorted((REPO / "src" / "colprob").glob("*.py"))


def calls_by_name(path) -> dict[str, set[str]]:
    """Each top-level function of the module at ``path``, with the
    functions of the module that it, or a function nested in it, calls by
    bare name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {
        name: {call.func.id for call in ast.walk(node)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id in functions}
        for name, node in functions.items()
    }


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_function_recurses(path):
    try:
        TopologicalSorter(calls_by_name(path)).prepare()
    except CycleError as err:
        pytest.fail(f"{path.name} recurses: {' -> '.join(err.args[1])}")


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_the_evaluator_names_point_weights(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert path.name == "evaluator.py" or "_point_weights" not in names


def test_the_rule_loops_weigh_only_through_weigh():
    tree = ast.parse((REPO / "src" / "colprob" / "evaluator.py").read_text(encoding="utf-8"))
    value, = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_value"]
    names = {node.id for node in ast.walk(value) if isinstance(node, ast.Name)}
    assert "_weigh" in names
    assert not names & {"_space", "_point_weights"}


def test_the_evaluator_names_no_row_fold():
    tree = ast.parse((REPO / "src" / "colprob" / "evaluator.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & {"_space", "_conj", "_by_gates"}


def test_importing_colprob_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import colprob, colprob.cli; print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code, str(REPO / "src")],
                          capture_output=True, text=True, check=True)
    loaded = done.stdout.split()
    assert "colprob.cli" in loaded
    assert {"argparse", "dataclasses", "inspect"}.isdisjoint(loaded)
