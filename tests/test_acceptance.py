"""Acceptance gate: golden values, Bayes suite, and the property suites.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. All probability comparisons are exact rational equality;
the only tolerance anywhere is the Monte Carlo four-standard-error band,
which is part of the criterion itself.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from colprob import (
    ChoiceAnd,
    ChoiceOr,
    Determined,
    GivenAdd,
    GivenPar,
    Not,
    NullConditionError,
    ParAnd,
    ParOr,
    Partition,
    PartitionError,
    SampleConfig,
    Undetermined,
    ancestral_closure,
    bayes_additive,
    bayes_parallel,
    cond_additive,
    denote,
    enumerate_prob,
    format_formula,
    mc_estimate,
    parse_formula,
    parse_model,
    prob,
    space_prob,
    to_set_normal_form,
)
from _corpus import random_ast, random_model, random_query, random_space

F = Fraction
_T0 = time.monotonic()
SEED = 20260808

pytestmark = pytest.mark.filterwarnings(
    "ignore::colprob.semantics.SharedExperimentWarning"
)


def report(label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n{status} {label}")
    assert not failures, f"{label}: {failures[:10]}"


def build_corpus():
    """250 random models x 4 random queries = the 1,000-formula corpus
    (depth <= 5, <= 3 experiments, <= 6 outcomes, <= 1 dependency edge)."""
    rng = random.Random(SEED)
    corpus = []
    for _ in range(250):
        model = random_model(rng, max_experiments=3, max_outcomes=6)
        corpus.append((model, [random_query(rng, model, depth=5) for _ in range(4)]))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def both_paths(text, model):
    f = parse_formula(text)
    try:
        ev = prob(f, model)
    except NullConditionError:
        ev = "null-condition"
    try:
        orc = enumerate_prob(f, model)
    except NullConditionError:
        orc = "null-condition"
    return ev, orc


def test_criterion_1_golden_suite(examples_model):
    cd = parse_model("experiment c : H, T\nexperiment d : H, T\n")
    determined_cases = [
        ("4@d | 5@d", F(1, 3)),
        ("(4@d1|5@d1) || (4@d2|5@d2)", F(5, 9)),
        ("(H@c1 && H@c2) | (H@c1 && T@c2) | (T@c1 && H@c2)", F(3, 4)),
        ("H@c || 6@d", F(7, 12)),
        ("6@d1 || 6@d2", F(11, 36)),
        ("(6@d1 && 5@d2 | 6@d2 && 5@d1) & (6@d1 || 6@d2)", F(1, 18)),
        ("(6@d1 && 5@d2 | 6@d2 && 5@d1) given (6@d1 || 6@d2)", F(2, 11)),
        ("H@c1 && H@c2", F(1, 4)),
        ("H@c && 6@d", F(1, 12)),
        ("H@c & T@c", F(0)),
        ("H@c & H@c", F(1, 2)),
        ("H@c given T@c", F(0)),
        ("alien && alien", F(1, 1000)),
        ("alien || alien", F(1, 1000)),
        ("alien", F(1, 1000)),
    ]
    failures = []
    for text, expected in determined_cases:
        ev, orc = both_paths(text, examples_model)
        if ev != Determined(expected):
            failures.append(f"evaluator p({text}) = {ev}, want {expected}")
        if orc != Determined(expected):
            failures.append(f"oracle p({text}) = {orc}, want {expected}")
    direct = cond_additive(
        parse_formula("H@c"), parse_formula("T@c"), examples_model
    )
    if direct != Determined(F(0)):
        failures.append(f"cond_additive(H@c, T@c) = {direct}, want 0")
    for text in ("H@c | T@d", "H@c & T@d"):
        ev, orc = both_paths(text, cd)
        if not isinstance(ev, Undetermined):
            failures.append(f"evaluator p({text}) = {ev}, want undetermined")
        if not isinstance(orc, Undetermined):
            failures.append(f"oracle p({text}) = {orc}, want undetermined")
    report("criterion 1: golden suite, evaluator and enumeration oracle", failures)


def test_criterion_2_bayes_suite(channel_model):
    failures = []
    cells = Partition((parse_formula("0@T"), parse_formula("1@T")))
    evidence = parse_formula("0@R")
    joint = bayes_parallel(cells, evidence, channel_model, form="joint")
    prior = bayes_parallel(cells, evidence, channel_model, form="prior-likelihood")
    if joint != [F(9, 10), F(1, 10)]:
        failures.append(f"parallel joint form gave {joint}")
    if prior != [F(9, 10), F(1, 10)]:
        failures.append(f"parallel prior-likelihood form gave {prior}")
    if joint != prior:
        failures.append("the two parallel forms disagree")
    try:
        bayes_additive(cells, evidence, channel_model)
        failures.append("additive variant was not rejected on the channel")
    except PartitionError as err:
        if "support mismatch" not in str(err):
            failures.append(f"additive rejection has wrong reason: {err}")
    report("criterion 2: channel Bayes suite, both forms + additive rejection", failures)


def test_criterion_3a_evaluator_matches_oracle_on_1000_formulas(corpus):
    failures = []
    checked = 0
    for model, queries in corpus:
        for f in queries:
            checked += 1
            try:
                ev = prob(f, model)
            except NullConditionError:
                ev = "null-condition"
            try:
                orc = enumerate_prob(f, model)
            except NullConditionError:
                orc = "null-condition"
            agree = (
                ev == orc
                if "null-condition" in (ev, orc)
                else (
                    ev.value == orc.value
                    if isinstance(ev, Determined) and isinstance(orc, Determined)
                    else isinstance(ev, Undetermined) and isinstance(orc, Undetermined)
                )
            )
            if not agree:
                failures.append(f"{format_formula(f)}: {ev} vs {orc}")
    assert checked == 1000
    report("criterion 3a: evaluator == enumeration oracle on 1,000 formulas", failures)


def test_criterion_3b_rule_identity_battery(corpus):
    failures = []
    applied = {"R1": 0, "R2": 0, "R4": 0, "R5": 0}

    def det(f, model):
        r = prob(f, model)
        return r.value if isinstance(r, Determined) else None

    def space_det(f, model):
        # The connective's side of R1, R4 and R5-independence, read off its
        # event space: prob itself computes those nodes by the rules.
        d = denote(f, model)
        return None if isinstance(d, Undetermined) else space_prob(d, model)

    for model, queries in corpus:
        plain = [q for q in queries if not isinstance(q, (GivenAdd, GivenPar))]
        for f in plain:
            p = det(f, model)
            if p is None:
                continue
            q = space_det(Not(f), model)
            if p + q != 1:
                failures.append(f"R1 fails on {format_formula(f)}")
            applied["R1"] += 1
        for e, f in zip(plain, plain[1:]):
            de, df = denote(e, model), denote(f, model)
            if isinstance(de, Undetermined) or isinstance(df, Undetermined):
                continue
            if de.support == df.support:
                lhs = det(ChoiceOr(e, f), model)
                rhs = det(e, model) + det(f, model) - det(ChoiceAnd(e, f), model)
                if lhs != rhs:
                    failures.append(f"R2 fails on {format_formula(e)} / {format_formula(f)}")
                applied["R2"] += 1
            por = space_det(ParOr(e, f), model)
            if por is not None:
                three = (
                    det(ParAnd(e, f), model)
                    + det(ParAnd(Not(e), f), model)
                    + det(ParAnd(e, Not(f)), model)
                )
                complement = 1 - det(ParAnd(Not(e), Not(f)), model)
                if not (por == three == complement):
                    failures.append(f"R4 fails on {format_formula(e)} / {format_formula(f)}")
                applied["R4"] += 1
                ce = ancestral_closure(model, de.support)
                cf = ancestral_closure(model, df.support)
                if not (ce & cf):
                    if space_det(ParAnd(e, f), model) != det(e, model) * det(f, model):
                        failures.append(
                            f"R5 independence fails on {format_formula(e)} / {format_formula(f)}"
                        )
                    applied["R5"] += 1
    for rule, count in applied.items():
        if count < 25:
            failures.append(f"{rule} applied only {count} times; corpus too thin")
    report(
        "criterion 3b: rule identity battery "
        f"(applications: {applied})",
        failures,
    )


def test_criterion_3c_parser_round_trip_on_1000_asts():
    rng = random.Random(SEED + 1)
    failures = []
    for _ in range(1000):
        ast = random_ast(rng, depth=6)
        text = format_formula(ast)
        if parse_formula(text) != ast:
            failures.append(text)
    report("criterion 3c: parser round-trip on 1,000 random ASTs", failures)


def test_criterion_3d_normal_form_round_trip_on_500_spaces():
    rng = random.Random(SEED + 2)
    failures = []
    for _ in range(500):
        model = random_model(rng, max_experiments=3, max_outcomes=6)
        s = random_space(rng, model)
        back = denote(to_set_normal_form(s), model)
        if back != s:
            failures.append(str(s))
    report("criterion 3d: set-normal-form round-trip on 500 random spaces", failures)


def test_criterion_3e_monte_carlo_within_four_stderr(corpus):
    """Conditional-free Determined corpus formulas, 10^4 samples each;
    the band is four true-value standard errors sqrt(p(1-p)/n)."""
    n = 10_000
    total = within = 0
    for idx, (model, queries) in enumerate(corpus):
        for f in queries:
            if isinstance(f, (GivenAdd, GivenPar)):
                continue
            exact_result = prob(f, model)
            if not isinstance(exact_result, Determined):
                continue
            exact = exact_result.value
            got = mc_estimate(f, model, SampleConfig(n, seed=idx * 7 + 1))
            band = 4 * math.sqrt(float(exact) * float(1 - exact) / n)
            total += 1
            if abs(got.estimate - float(exact)) <= band:
                within += 1
    rate = within / total
    failures = [] if rate >= 0.99 else [f"only {within}/{total} within band"]
    print(f"\n      (mc: {within}/{total} = {rate:.4f} within 4 standard errors)")
    report("criterion 3e: Monte Carlo within 4 standard errors for >= 99%", failures)


def test_criterion_4_acceptance_runs_in_under_five_minutes():
    elapsed = time.monotonic() - _T0
    print(f"\n      (acceptance wall clock so far: {elapsed:.1f}s)")
    report(
        "criterion 4: full acceptance run under 5 minutes",
        [] if elapsed < 300 else [f"took {elapsed:.0f}s"],
    )
