import math
import random
import warnings
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest

from colprob import (
    AtomNode,
    ChoiceAnd,
    Determined,
    EvalError,
    ExperimentDecl,
    GivenAdd,
    GivenPar,
    McEstimate,
    Model,
    Not,
    NullConditionError,
    OracleError,
    ParAnd,
    SampleConfig,
    SharedExperimentWarning,
    Undetermined,
    ancestral_closure,
    enumerate_prob,
    mc_estimate,
    parse_formula,
    parse_model,
    prob,
)
from colprob import model as model_module
from colprob.oracle import _BLOCK, topological_order
from _corpus import (
    child_first_chain,
    mentioned,
    noisy_channel,
    noisy_or,
    random_dag_model,
    random_formula,
    random_model,
    random_query,
)

F = Fraction


class TestEnumerateProb:
    def test_two_dice_parallel_or(self, examples_model):
        got = enumerate_prob(parse_formula("6@d1 || 6@d2"), examples_model)
        assert got == Determined(F(11, 36))

    def test_conflicting_choice_and(self, examples_model):
        assert enumerate_prob(parse_formula("H@c & T@c"), examples_model) == Determined(F(0))

    def test_any_formula_over_one_coin_is_coarse(self):
        rng = random.Random(3)
        model = Model.of(ExperimentDecl.uniform("c", ("H", "T")))
        for _ in range(60):
            f = random_formula(rng, model, depth=4)
            got = enumerate_prob(f, model)
            assert got.value in (F(0), F(1, 2), F(1))

    def test_undetermined_support_mismatch(self, two_coins_cd):
        got = enumerate_prob(parse_formula("H@c | T@d"), two_coins_cd)
        assert isinstance(got, Undetermined)

    def test_root_conditionals(self, examples_model, channel_model):
        got = enumerate_prob(
            parse_formula("(6@d1 && 5@d2 | 6@d2 && 5@d1) given (6@d1 || 6@d2)"),
            examples_model,
        )
        assert got == Determined(F(2, 11))
        got = enumerate_prob(parse_formula("0@T pgiven 0@R"), channel_model)
        assert got == Determined(F(9, 10))

    def test_null_condition(self, examples_model):
        with pytest.raises(NullConditionError):
            enumerate_prob(parse_formula("H@c given (H@c & T@c)"), examples_model)

    def test_state_space_bound(self):
        decls = [
            ExperimentDecl.uniform(f"e{i}", tuple(str(j) for j in range(10)))
            for i in range(8)
        ]
        model = Model.of(*decls)
        from colprob import ParAnd, AtomNode

        f = ParAnd(AtomNode("e0", "0"), AtomNode("e7", "0"))
        for d in decls[1:7]:
            f = ParAnd(f, AtomNode(d.name, "0"))
        with pytest.raises(OracleError, match="state-space bound"):
            enumerate_prob(f, model)


def test_oracle_agrees_with_evaluator_on_random_corpus():
    rng = random.Random(991)
    determined = undetermined = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        for _ in range(300):
            model = random_model(rng)
            f = random_query(rng, model)
            try:
                ev = prob(f, model)
            except NullConditionError:
                ev = "null"
            try:
                orc = enumerate_prob(f, model)
            except NullConditionError:
                orc = "null"
            if ev == "null" or orc == "null":
                assert ev == orc
            elif isinstance(ev, Determined):
                assert isinstance(orc, Determined)
                assert ev.value == orc.value
                determined += 1
            else:
                assert isinstance(orc, Undetermined)
                undetermined += 1
    assert determined > 100 and undetermined > 20


class TestMcEstimate:
    def test_dice_choice_within_four_stderr(self, examples_model):
        cfg = SampleConfig(100_000, seed=11)
        got = mc_estimate(parse_formula("4@d | 5@d"), examples_model, cfg)
        exact = 1 / 3
        band = 4 * math.sqrt(exact * (1 - exact) / cfg.sample_count)
        assert abs(got.estimate - exact) <= band
        assert got.samples == 100_000 and got.seed == 11

    def test_choice_and_collapse_tracks_heads_frequency(self, examples_model):
        cfg = SampleConfig(50_000, seed=12)
        got = mc_estimate(parse_formula("H@c & H@c"), examples_model, cfg)
        head = mc_estimate(parse_formula("H@c"), examples_model, cfg)
        assert got.estimate == head.estimate
        band = 4 * math.sqrt(0.25 / cfg.sample_count)
        assert abs(got.estimate - 0.5) <= band

    def test_channel_joint_frequency(self, channel_model):
        cfg = SampleConfig(100_000, seed=13)
        got = mc_estimate(parse_formula("0@T && 0@R"), channel_model, cfg)
        exact = 9 / 20
        band = 4 * math.sqrt(exact * (1 - exact) / cfg.sample_count)
        assert abs(got.estimate - exact) <= band

    def test_identical_seeds_reproduce_bit_for_bit(self, channel_model):
        cfg = SampleConfig(20_000, seed=99)
        a = mc_estimate(parse_formula("0@T pgiven 0@R"), channel_model, cfg)
        b = mc_estimate(parse_formula("0@T pgiven 0@R"), channel_model, cfg)
        assert a == b

    def test_different_seeds_differ(self, examples_model):
        f = parse_formula("4@d | 5@d")
        a = mc_estimate(f, examples_model, SampleConfig(10_000, seed=1))
        b = mc_estimate(f, examples_model, SampleConfig(10_000, seed=2))
        assert a.estimate != b.estimate

    def test_undetermined_formula_is_rejected(self, two_coins_cd):
        with pytest.raises(OracleError, match="undetermined"):
            mc_estimate(parse_formula("H@c | T@d"), two_coins_cd, SampleConfig(10))

    def test_sample_config_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(0)
        with pytest.raises(ValueError):
            SampleConfig(10, seed=-1)
        with pytest.raises(ValueError):
            SampleConfig(10, seed=2**64)


# The exact text of every oracle error and undetermined verdict, for both
# the enumeration and the sampler (which words the additive conditional
# differently).
UNDETERMINED_TEXT = [
    ("H@c | T@d", "choice-or (|) spans distinct supports {c} vs {d}",
     "choice-or (|) spans distinct supports {c} vs {d}"),
    ("H@c & T@d", "choice-and (&) spans distinct supports {c} vs {d}",
     "choice-and (&) spans distinct supports {c} vs {d}"),
    ("H@c given T@d", "additive conditional (given) spans distinct supports {c} vs {d}",
     "additive conditional spans {c} vs {d}"),
    ("H@c given (H@c | T@d)", "choice-or (|) spans distinct supports {c} vs {d}",
     "choice-or (|) spans distinct supports {c} vs {d}"),
    ("(H@c & T@d) pgiven H@c", "choice-and (&) spans distinct supports {c} vs {d}",
     "choice-and (&) spans distinct supports {c} vs {d}"),
]


class TestPinnedMessages:
    @pytest.mark.parametrize("query,enumerated,sampled", UNDETERMINED_TEXT)
    def test_undetermined(self, two_coins_cd, query, enumerated, sampled):
        f = parse_formula(query)
        assert enumerate_prob(f, two_coins_cd) == Undetermined(enumerated)
        with pytest.raises(OracleError) as info:
            mc_estimate(f, two_coins_cd, SampleConfig(10))
        assert str(info.value) == f"cannot sample an undetermined formula: {sampled}"

    def test_state_space_bound(self):
        model = Model.of(*(
            ExperimentDecl.uniform(f"e{i}", tuple(str(j) for j in range(10)))
            for i in range(8)
        ))
        f = parse_formula(" && ".join(f"0@e{i}" for i in range(8)))
        with pytest.raises(OracleError) as info:
            enumerate_prob(f, model)
        assert str(info.value) == (
            "state-space bound exceeded: 100000000 joint assignments (limit 10000000)"
        )

    def test_state_space_bound_past_the_printable_ints(self):
        # 2^15000 joint assignments has 4516 digits, more than Python
        # converts an int to text; the bound names its power of ten.
        model = parse_model(child_first_chain(15000))
        with pytest.raises(OracleError) as info:
            enumerate_prob(parse_formula("0@x14999"), model)
        assert str(info.value) == (
            "state-space bound exceeded: more than 10^4515 joint assignments (limit 10000000)"
        )

    @pytest.mark.parametrize("query,message", [
        ("bogus@c && H@zz", "unknown outcome 'bogus' of experiment 'c'"),
        ("H@zz && bogus@c", "unknown experiment 'zz'"),
        ("H@c given (H@d | bogus@c)", "unknown outcome 'bogus' of experiment 'c'"),
    ])
    def test_leftmost_bad_atom_wins(self, two_coins_cd, query, message):
        f = parse_formula(query)
        for run in (lambda: enumerate_prob(f, two_coins_cd),
                    lambda: mc_estimate(f, two_coins_cd, SampleConfig(10))):
            with pytest.raises(EvalError) as info:
                run()
            assert str(info.value) == message

    @pytest.mark.parametrize("query", [
        "(H@c | T@d) && H@zz",
        "H@c pgiven ((H@c | T@d) && H@zz)",
        "(H@c & T@d) && bogus@c given H@c",
        "(H@d | T@c) && (H@c given H@c) && H@zz",
    ])
    def test_verdict_before_a_later_bad_atom(self, two_coins_cd, query):
        # Like the evaluator, the oracles stop at the first undetermined
        # connective; an unknown atom or conditional after it is not reached.
        f = parse_formula(query)
        verdict = prob(f, two_coins_cd)
        assert isinstance(verdict, Undetermined)
        assert isinstance(enumerate_prob(f, two_coins_cd), Undetermined)
        with pytest.raises(OracleError, match="cannot sample an undetermined formula"):
            mc_estimate(f, two_coins_cd, SampleConfig(10))

    @pytest.mark.parametrize("query", [
        "(H@c pgiven H@d) && bogus@c", "H@c given ~(H@c given H@c) && H@zz",
    ])
    def test_nested_conditional_before_a_later_bad_atom(self, two_coins_cd, query):
        f = parse_formula(query)
        for run in (lambda: prob(f, two_coins_cd),
                    lambda: enumerate_prob(f, two_coins_cd),
                    lambda: mc_estimate(f, two_coins_cd, SampleConfig(10))):
            with pytest.raises(EvalError, match="only allowed at the root"):
                run()

    def test_null_condition(self, examples_model):
        f = parse_formula("H@c given (H@c & T@c)")
        with pytest.raises(NullConditionError) as info:
            enumerate_prob(f, examples_model)
        assert str(info.value) == "conditioning on null event (enumerated mass 0)"
        with pytest.raises(OracleError) as info:
            mc_estimate(f, examples_model, SampleConfig(50))
        assert str(info.value) == (
            "condition never occurred in 50 samples; cannot estimate the conditional"
        )


def holds(f, assignment):
    """Whether conditional-free ``f`` holds on one full assignment."""
    if isinstance(f, AtomNode):
        return assignment[f.experiment] == f.outcome
    if isinstance(f, Not):
        return not holds(f.child, assignment)
    if isinstance(f, (ChoiceAnd, ParAnd)):
        return holds(f.left, assignment) and holds(f.right, assignment)
    return holds(f.left, assignment) or holds(f.right, assignment)


def per_sample_mc(f, model, cfg):
    """The reference sampler, one sample at a time: each closure experiment
    is drawn parents-first with one uniform from its cumulative cpt row,
    then the formula is tested on the sample's assignment."""
    event, condition = (f.event, f.condition) if isinstance(f, (GivenAdd, GivenPar)) else (f, None)
    order = topological_order(model, ancestral_closure(model, mentioned(f)))
    rng = random.Random(cfg.seed)
    hits = eligible = 0
    for _ in range(cfg.sample_count):
        assignment = {}
        for name in order:
            decl = model.decl(name)
            row = decl.cpt[tuple(assignment[p] for p in decl.parents)]
            cumulative = list(accumulate(float(row.get(o, 0)) for o in decl.outcomes))
            cumulative[-1] = 1.0
            assignment[name] = decl.outcomes[bisect_right(cumulative, rng.random())]
        if condition is None or holds(condition, assignment):
            eligible += 1
            hits += holds(event, assignment)
    if eligible == 0:
        raise OracleError(
            f"condition never occurred in {cfg.sample_count} samples; "
            "cannot estimate the conditional"
        )
    p_hat = hits / eligible
    return McEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / eligible),
                      cfg.sample_count, cfg.seed)


def outcome(run):
    try:
        return run()
    except OracleError as err:
        return f"OracleError: {err}"


# Sample counts on both sides of the oracle's block boundaries.
BLOCK_COUNTS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


def coins(n):
    return Model.of(*(ExperimentDecl.uniform(f"c{i}", ("H", "T")) for i in range(n)))


def or_chain(first, last):
    return " || ".join(f"H@c{i}" for i in range(first, last))


@pytest.fixture(scope="module")
def wide_model():
    """w uniform over 300 outcomes, so outcome indices take two bytes."""
    return Model.of(ExperimentDecl.uniform("w", tuple(f"o{i}" for i in range(300))),
                    ExperimentDecl.uniform("v", ("a", "b")))


@pytest.fixture(scope="module")
def wide_cases():
    """Queries whose cpt rows are looked up by codes of more than one byte:
    an effect of nine causes (512 parent assignments), and an experiment
    under a parent of 300 outcomes; then two-outcome rows weighted 1, 0
    and 0, 1, whose thresholds are 1.0 and 0.0."""
    w = ExperimentDecl.uniform("w", tuple(f"o{i}" for i in range(300)))
    v = ExperimentDecl.uniform("v", ("a", "b"))
    rows = {}
    for i in range(300):
        for j, side in enumerate("ab"):
            x = F((i + 3 * j) % 7, 12)
            rows[(f"o{i}", side)] = {"x": x, "y": F(1, 3), "z": F(2, 3) - x}
    under = Model.of(w, v, ExperimentDecl("c", ("x", "y", "z"), ("w", "v"), rows))
    k = ExperimentDecl.uniform("k", ("H", "T"))
    copy = ExperimentDecl("m", ("H", "T"), ("k",),
                          {("H",): {"H": F(1), "T": F(0)}, ("T",): {"H": F(0), "T": F(1)}})
    sure = ExperimentDecl.weighted("s", {"no": F(0), "yes": F(1)})
    return [(parse_model(noisy_or(9)), parse_formula("a1 pgiven true@e")),
            (under, parse_formula("(x@c | z@c) && a@v || o299@w")),
            (Model.of(k, copy, sure), parse_formula("H@m && yes@s"))]


def dependent_corpus_queries():
    """Determined queries on seeded multi-parent models: four plain ones,
    then two parallel conditionals."""
    rng = random.Random(606)
    cases = []
    while len(cases) < 6:
        model = random_dag_model(rng)
        f = random_formula(rng, model, 4)
        if len(cases) >= 4:
            f = GivenPar(f, random_formula(rng, model, 3))
        try:
            determined = isinstance(enumerate_prob(f, model), Determined)
        except NullConditionError:
            determined = True
        if determined:
            cases.append((model, f))
    return cases


PINNED_MODELS = {
    "chain": parse_model(child_first_chain(12)),
    "noisy-or": parse_model(noisy_or(5)),
    "channel": parse_model(noisy_channel(4)[0]),
}
# Seeded estimates over several blocks, a partial last block, a conditional
# on each model and a seed above 2**63.
PINNED_MC = [
    ("chain", "0@x11", 1000, 3, 0.488, 0.01580683396509244),
    ("chain", "1@x2 pgiven 0@x9", 2000, 7, 0.47274529236868185, 0.015717311348563474),
    ("noisy-or", "true@e", 1500, 11, 0.5573333333333333, 0.012824790807621748),
    ("noisy-or", "a1 pgiven true@e", 3079, 5, 0.43968432919954903, 0.011784470411204026),
    ("noisy-or", "true@e && ~a3 || a0", 777, 2**63 + 1, 0.6525096525096525,
     0.017082614231958806),
    ("channel", "0@t2 pgiven 1@r2 && 0@r0", 2500, 13, 0.10498220640569395,
     0.012930208412081713),
    ("channel", "(0@r1 | 1@r1) && 1@t3", 257, 0, 0.5719844357976653, 0.03086422135004099),
]


class TestBlocks:
    @pytest.mark.parametrize("samples", BLOCK_COUNTS)
    def test_mc_matches_per_sample_loop(self, channel_model, wide_cases, samples):
        for model, f in wide_cases[:2]:
            assert enumerate_prob(f, model) == prob(f, model), f
        cases = [(channel_model, parse_formula(q)) for q in
                 ("0@T pgiven 0@R", "1@R given (0@R | 1@R)", "~(0@T && 1@R)")]
        cases += wide_cases
        cases += dependent_corpus_queries()
        assert any(model.decl(name).parents
                   for model, f in cases[-2:]
                   for name in ancestral_closure(model, mentioned(f)))
        for i, (model, f) in enumerate(cases):
            cfg = SampleConfig(samples, seed=samples + i)
            got = outcome(lambda: mc_estimate(f, model, cfg))
            assert got == outcome(lambda: per_sample_mc(f, model, cfg)), f

    @pytest.mark.parametrize("model,query,samples,seed,estimate,stderr", PINNED_MC)
    def test_mc_estimates_are_pinned(self, model, query, samples, seed, estimate, stderr):
        # Bit for bit what the sampler gave with one bisect per sample in
        # a list comprehension, before its columns were built by map.
        got = mc_estimate(parse_formula(query), PINNED_MODELS[model], SampleConfig(samples, seed))
        assert (got.estimate, got.stderr) == (estimate, stderr)

    def test_each_decl_compiles_its_sample_rows_once(self, monkeypatch):
        # The closure of {a1, e} holds three one-row causes and e's eight
        # rows; a second estimate converts no row again.
        model = parse_model(noisy_or(3))
        calls = []
        real = model_module.accumulate
        monkeypatch.setattr(model_module, "accumulate",
                            lambda weights: calls.append(1) or real(weights))
        f, cfg = parse_formula("a1 pgiven true@e"), SampleConfig(600, seed=4)
        first = mc_estimate(f, model, cfg)
        assert len(calls) == 11
        assert mc_estimate(f, model, cfg) == first == per_sample_mc(f, model, cfg)
        assert len(calls) == 11

    def test_enumeration_over_many_blocks_of_coins(self):
        model = coins(14)
        chain = or_chain(0, 13)
        assert enumerate_prob(parse_formula(chain), model) == Determined(1 - F(1, 2**13))
        # The choice-or over c13 is a tautology that brings c13's rows in:
        # 16,384 rows in all.
        spanning = f"({chain}) && (H@c13 | T@c13)"
        assert enumerate_prob(parse_formula(spanning), model) == Determined(1 - F(1, 2**13))
        got = enumerate_prob(parse_formula(f"H@c0 pgiven ({spanning})"), model)
        assert got == Determined(F(4096, 8191))

    def test_condition_empty_in_every_block(self):
        model = coins(14)
        f = parse_formula(f"H@c1 pgiven ((H@c0 & T@c0) && ({or_chain(1, 14)}))")
        with pytest.raises(NullConditionError) as info:
            enumerate_prob(f, model)
        assert str(info.value) == "conditioning on null event (enumerated mass 0)"
        samples = 3 * _BLOCK + 7
        with pytest.raises(OracleError) as info:
            mc_estimate(f, model, SampleConfig(samples))
        assert str(info.value) == (
            f"condition never occurred in {samples} samples; cannot estimate the conditional"
        )

    def test_more_than_256_outcomes(self, wide_model):
        cfg = SampleConfig(5000, seed=3)
        for query, exact, estimate in (("o299@w || a@v", F(301, 600), 0.509),
                                       ("o5@w | o7@w", F(1, 150), 0.0064)):
            f = parse_formula(query)
            assert enumerate_prob(f, wide_model) == Determined(exact)
            assert mc_estimate(f, wide_model, cfg).estimate == estimate
        # o257's low byte is o1's: both bytes of an index must match.
        f = parse_formula("o1@w pgiven (o1@w | o257@w)")
        assert enumerate_prob(f, wide_model) == Determined(F(1, 2))
        assert mc_estimate(f, wide_model, cfg) == per_sample_mc(f, wide_model, cfg)
