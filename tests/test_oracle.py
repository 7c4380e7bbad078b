import math
import random
import warnings
from fractions import Fraction

import pytest

from colprob import (
    Determined,
    EvalError,
    ExperimentDecl,
    Model,
    NullConditionError,
    OracleError,
    SampleConfig,
    SharedExperimentWarning,
    Undetermined,
    enumerate_prob,
    mc_estimate,
    parse_formula,
    prob,
)
from _corpus import random_formula, random_model, random_query

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
