"""Golden derivations: the full ``--explain`` text and ``--json`` tree.

``explain_golden.txt`` holds one block per query: a header line
``== <model> <query>`` naming a file under ``models/``, the rendered
derivation, and the ``derivation`` value of ``colprob eval --json
--explain`` on one line. Together the queries cover every rule label and
branch the evaluator records.
"""

import json
import warnings
from pathlib import Path

import pytest

from colprob import (
    SharedExperimentWarning,
    parse_formula,
    parse_model,
    prob_explain,
    render_derivation,
)
from colprob.cli import main

from conftest import MODELS

GOLDEN = Path(__file__).with_name("explain_golden.txt").read_text(encoding="utf-8")


def blocks():
    for block in GOLDEN.split("== ")[1:]:
        header, *lines = block.rstrip("\n").split("\n")
        model, query = header.split(" ", 1)
        yield pytest.param(model, query, "\n".join(lines[:-1]), lines[-1], id=query)


@pytest.mark.parametrize("model,query,text,derivation_json", blocks())
def test_explain_output_is_unchanged(capsys, model, query, text, derivation_json):
    path = MODELS / f"{model}.colp"
    # A block may share an experiment between the sides of ``||``; its
    # warning is pinned by the tests of that warning, not here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        _, derivation = prob_explain(
            parse_formula(query), parse_model(path.read_text(encoding="utf-8"))
        )
        main(["eval", "--model", str(path), "--query", query, "--json", "--explain"])
    assert render_derivation(derivation) == text
    assert json.dumps(json.loads(capsys.readouterr().out)["derivation"]) == derivation_json
