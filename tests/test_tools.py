import importlib.util
import subprocess
import sys
from fractions import Fraction

from colprob import Determined, McEstimate
from conftest import REPO


def test_paired_runs_a_tree_against_itself():
    # One round of the dependent workload's requests, timed on both trees.
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "paired.py"), str(REPO), str(REPO),
         "--workload", "dependent", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("dependent: 60 requests, 1 rounds\n")
    assert "time-weighted ratio (change/parent): " in done.stdout


# The smallest row of each wall; the whole run takes well under a second.
SMALL_WALLS = ["prefix/n=14", "complement/n=14", "two-block/k=8", "coin/n=12", "0@x13"]


def test_walls_checks_its_smallest_rows():
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "walls.py"), *SMALL_WALLS],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == SMALL_WALLS
    assert all(" prob " in line and " oracle " in line for line in lines)


def test_walls_checks_its_monte_carlo_rows():
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "walls.py"), "mc/0@x8", "mc/0@x199"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["mc/0@x8", "mc"], ["mc/0@x199", "mc"]]


def test_walls_exits_one_on_a_wrong_answer(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds src/ and perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("walls", REPO / "tools" / "walls.py")
    walls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(walls)
    monkeypatch.setattr(walls, "prob", lambda f, model: Determined(Fraction(0)))
    assert walls.main(["coin/n=12"]) == 1
    assert capsys.readouterr().out.startswith("WRONG coin/n=12 ")
    monkeypatch.setattr(walls, "mc_estimate", lambda f, model, cfg: McEstimate(0.0, 0.0, 1, 0))
    assert walls.main(["mc/0@x8"]) == 1
    assert capsys.readouterr().out.startswith("WRONG mc/0@x8 ")
    assert walls.main(["no/such-row"]) == 2
