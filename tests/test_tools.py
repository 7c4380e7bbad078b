import subprocess
import sys

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
