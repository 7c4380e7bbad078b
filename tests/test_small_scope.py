"""Exhaustive small-scope check (Jackson's small-scope hypothesis;
Runciman, Naylor & Lindblad's SmallCheck): every formula up to a fixed
size over one tiny model that has every kind of experiment, checked
against the enumeration oracle.

The model has a parentless binary ``a``, a binary ``b`` with parent ``a``,
a parentless ternary ``c`` with an outcome of weight 0 (so some notes
count points, and some conditions are null), a predicate ``p``, and a
noisy-OR effect ``e`` of ``a``, ``c`` and ``p`` whose cpt compiles to its
per-cause form. Its 11 atoms are every outcome of every experiment. The scope is every formula
of one atom or of two atoms under one binary connective, with ``~`` at
any node, and every root ``given`` and ``pgiven`` with one atom, or its
``~``, on each side: 22 + 3,872 + 968 = 4,862 formulas.

For each, the verdict (a value, undetermined, or the class of a
``ColprobError``) equals the oracle's, ``prob`` equals ``enumerate_prob``,
and the explanation's root equals ``prob``; any other exception fails
the test. With the evaluator's mask bound set to 0, every node is
weighed by gates, and every answer and explanation stays the same.
"""

import warnings
from fractions import Fraction
from itertools import product

import pytest

from colprob import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
    ColprobError,
    Determined,
    GivenAdd,
    GivenPar,
    Not,
    ParAnd,
    ParOr,
    SharedExperimentWarning,
    enumerate_prob,
    evaluator,
    format_formula,
    parse_model,
    prob,
    prob_explain,
)

INHIBIT_A = {"0": Fraction(1), "1": Fraction(1, 3)}
INHIBIT_C = {"x": Fraction(1), "y": Fraction(1, 2), "z": Fraction(1, 5)}
INHIBIT_P = {"true": Fraction(1, 4), "false": Fraction(1)}
LEAK = Fraction(1, 10)
MODEL = parse_model(
    "experiment a : 0=1/3, 1=2/3\n"
    "experiment b : 0, 1 depends a\n"
    "cpt 0 | a=0 = 1/4\ncpt 1 | a=0 = 3/4\ncpt 0 | a=1 = 3/5\ncpt 1 | a=1 = 2/5\n"
    "experiment c : x=1/2, y=1/2, z=0\n"
    "predicate p = 2/7\n"
    "experiment e : on, off depends a, c, p\n"
    + "".join(f"cpt on | a={i}, c={j}, p={k} = {1 - (1 - LEAK) * qa * qc * qp}\n"
              f"cpt off | a={i}, c={j}, p={k} = {(1 - LEAK) * qa * qc * qp}\n"
              for (i, qa), (j, qc), (k, qp)
              in product(INHIBIT_A.items(), INHIBIT_C.items(), INHIBIT_P.items()))
)
ATOMS = [AtomNode(name, outcome) for name in MODEL.experiments
         for outcome in MODEL.outcomes(name)]
CONNECTIVES = (ChoiceAnd, ChoiceOr, ParAnd, ParOr)


def negated(f):
    """``f`` and ``~f``."""
    return f, Not(f)


def small_scope():
    """Every formula of the scope, in a fixed order."""
    literals = [g for atom in ATOMS for g in negated(atom)]
    yield from literals
    for connective, left, right in product(CONNECTIVES, literals, literals):
        yield from negated(connective(left, right))
    for conditional, event, condition in product((GivenAdd, GivenPar), literals, literals):
        yield conditional(event, condition)


FORMULAS = list(small_scope())


def verdict(run):
    """What ``run`` returns, or the class of its ColprobError."""
    try:
        return run()
    except ColprobError as err:
        return type(err)


def kind(result):
    """A value, or the kind of verdict or error."""
    return result if isinstance(result, Determined) else type(result)


def answers(f):
    """``prob``'s verdict, and the explanation's result and rendering."""
    explained = verdict(lambda: prob_explain(f, MODEL))
    if isinstance(explained, tuple):
        result, why = explained
        assert why.result == result, format_formula(f)
        explained = result, evaluator.render_derivation(why)
    return verdict(lambda: prob(f, MODEL)), explained


@pytest.fixture(autouse=True)
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        yield


def test_the_scope_covers_every_kind_of_experiment():
    assert len(FORMULAS) == 4862
    assert MODEL.decl("e")._scaled[3] is not None  # the per-cause form
    assert MODEL.decl("p").is_predicate


def test_every_small_formula_agrees_with_the_oracle():
    wrong = []
    for f in FORMULAS:
        oracle = verdict(lambda: enumerate_prob(f, MODEL))
        result, explained = answers(f)
        root = explained[0] if isinstance(explained, tuple) else explained
        if not kind(result) == kind(root) == kind(oracle):
            wrong.append((format_formula(f), result, root, oracle))
    assert not wrong, f"{len(wrong)} of {len(FORMULAS)} disagree, first {wrong[:3]}"


def test_every_small_formula_weighs_the_same_by_gates(monkeypatch):
    expected = [answers(f) for f in FORMULAS]
    monkeypatch.setattr(evaluator, "_CELLS", 0)  # no grid is narrow enough for masks
    wrong = [format_formula(f) for f, both in zip(FORMULAS, expected) if answers(f) != both]
    assert not wrong, f"{len(wrong)} of {len(FORMULAS)} differ by gates, first {wrong[:3]}"
