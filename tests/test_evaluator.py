import random
import warnings
from fractions import Fraction

import pytest

from colprob import (
    ChoiceAnd,
    ChoiceOr,
    Determined,
    EvalError,
    EventSpace,
    ExperimentDecl,
    Model,
    Not,
    NullConditionError,
    ParAnd,
    ParOr,
    SharedExperimentWarning,
    Undetermined,
    ancestral_closure,
    cond_additive,
    cond_parallel,
    denote,
    enumerate_prob,
    joint_point_prob,
    lift,
    parse_formula,
    parse_model,
    prob,
    prob_explain,
    space_prob,
)
from colprob.oracle import _atoms
from _corpus import random_dag_model, random_formula, random_model, random_query, random_space

F = Fraction


def value(result):
    assert isinstance(result, Determined), result
    return result.value


def quiet_prob(f, model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        return prob(f, model)


GOLDEN = [
    ("4@d | 5@d", F(1, 3)),
    ("(H@c1 && H@c2) | (H@c1 && T@c2) | (T@c1 && H@c2)", F(3, 4)),
    ("(4@d1|5@d1) || (4@d2|5@d2)", F(5, 9)),
    ("H@c || 6@d", F(7, 12)),
    ("6@d1 || 6@d2", F(11, 36)),
    ("(6@d1 && 5@d2 | 6@d2 && 5@d1) & (6@d1 || 6@d2)", F(1, 18)),
    ("H@c & T@c", F(0)),
    ("H@c & H@c", F(1, 2)),
    ("H@c | T@c", F(1)),
]


@pytest.mark.parametrize("text,expected", GOLDEN)
def test_prob_worked_examples(examples_model, text, expected):
    assert value(prob(parse_formula(text), examples_model)) == expected


def test_prob_undetermined_across_experiments(two_coins_cd):
    for text in ("H@c | T@d", "H@c & T@d"):
        result = prob(parse_formula(text), two_coins_cd)
        assert isinstance(result, Undetermined)
        assert "{c}" in result.reason and "{d}" in result.reason


def test_prob_marginalizes_dependent_parent(channel_model):
    # querying the child alone must sum over the parent implicitly
    assert value(prob(parse_formula("0@R"), channel_model)) == F(1, 2)
    assert value(prob(parse_formula("0@T && 0@R"), channel_model)) == F(9, 20)


def test_unknown_atom_is_an_error(examples_model):
    with pytest.raises(EvalError, match="unknown"):
        prob(parse_formula("9@d"), examples_model)


def test_nested_conditional_is_an_error(examples_model):
    with pytest.raises(EvalError, match="root"):
        prob(parse_formula("~(H@c given T@c)"), examples_model)
    with pytest.raises(EvalError, match="root"):
        prob_explain(parse_formula("~(H@c given T@c)"), examples_model)


def space_value(f, model):
    """p(f) read off f's own event space, bypassing the rules."""
    return space_prob(denote(f, model), model)


COINS = parse_model("\n".join(f"experiment c{i} : H, T" for i in range(41)))
CHAIN = " || ".join(f"H@c{i}" for i in range(40))


@pytest.mark.parametrize("text,expected", [
    (CHAIN, 1 - F(1, 2**40)),
    (f"~({CHAIN})", F(1, 2**40)),
    (f"({CHAIN}) pgiven H@c40", 1 - F(1, 2**40)),
], ids=["chain", "negated", "pgiven"])
def test_parallel_or_chain_is_linear(text, expected):
    # 40 independent coins: R4 and R5 keep this to one pass over the chain
    f = parse_formula(text)
    assert value(prob(f, COINS)) == expected
    result, d = prob_explain(f, COINS)
    assert value(result) == value(d.result) == expected


class TestCondAdditive:
    def test_two_dice_posterior(self, examples_model):
        e = parse_formula("6@d1 && 5@d2 | 6@d2 && 5@d1")
        f = parse_formula("6@d1 || 6@d2")
        assert value(cond_additive(e, f, examples_model)) == F(2, 11)

    def test_heads_given_tails_is_zero(self, examples_model):
        e, f = parse_formula("H@c"), parse_formula("T@c")
        assert value(cond_additive(e, f, examples_model)) == F(0)

    def test_conditioning_on_itself(self, examples_model):
        e = parse_formula("4@d")
        assert value(cond_additive(e, e, examples_model)) == F(1)

    def test_support_mismatch_is_undetermined(self, two_coins_cd):
        r = cond_additive(parse_formula("H@c"), parse_formula("T@d"), two_coins_cd)
        assert isinstance(r, Undetermined)
        assert "given" in r.reason

    def test_null_condition_is_a_reported_error(self, examples_model):
        with pytest.raises(NullConditionError, match="null event"):
            cond_additive(
                parse_formula("H@c"), parse_formula("H@c & T@c"), examples_model
            )


class TestCondParallel:
    def test_independent_coins_reduce_to_prior(self, examples_model):
        r = cond_parallel(parse_formula("H@c1"), parse_formula("H@c2"), examples_model)
        assert value(r) == F(1, 2)

    def test_channel_posterior(self, channel_model):
        r = cond_parallel(parse_formula("0@T"), parse_formula("0@R"), channel_model)
        assert value(r) == F(9, 10)

    def test_predicate_given_itself(self, examples_model):
        r = cond_parallel(parse_formula("alien"), parse_formula("alien"), examples_model)
        assert value(r) == F(1)

    def test_null_condition(self, examples_model):
        with pytest.raises(NullConditionError):
            cond_parallel(
                parse_formula("H@c1"), parse_formula("H@c & T@c"), examples_model
            )


def test_root_conditionals_route_through_prob(examples_model, channel_model):
    got = prob(parse_formula("(6@d1 && 5@d2 | 6@d2 && 5@d1) given (6@d1 || 6@d2)"),
               examples_model)
    assert value(got) == F(2, 11)
    got = prob(parse_formula("0@T pgiven 0@R"), channel_model)
    assert value(got) == F(9, 10)


class TestProbExplain:
    def test_complement_of_choice_or(self, examples_model):
        result, d = prob_explain(parse_formula("~(4@d|5@d)"), examples_model)
        assert value(result) == F(2, 3)
        assert d.rule == "R1"
        assert d.children[0].rule == "R2"

    def test_parallel_or_cites_the_complement_form(self, examples_model):
        result, d = prob_explain(parse_formula("6@d1 || 6@d2"), examples_model)
        assert value(result) == F(11, 36)
        assert d.rule == "R4"
        assert "1 - p(~6@d1 && ~6@d2)" in d.note
        assert value(d.children[0].result) == F(25, 36)

    def test_parallel_and_independence_branch(self, examples_model):
        result, d = prob_explain(parse_formula("H@c && 6@d"), examples_model)
        assert value(result) == F(1, 12)
        assert d.rule == "R5"
        assert "independence" in d.note
        assert [value(c.result) for c in d.children] == [F(1, 2), F(1, 6)]

    def test_dependent_parallel_and_uses_conditional_branch(self, channel_model):
        result, d = prob_explain(parse_formula("0@T && 0@R"), channel_model)
        assert value(result) == F(9, 20)
        assert d.rule == "R5"
        assert "pgiven" in d.note

    def test_undetermined_node_keeps_rule_label(self, two_coins_cd):
        result, d = prob_explain(parse_formula("H@c | T@d"), two_coins_cd)
        assert isinstance(result, Undetermined)
        assert d.rule == "R2"

    def test_explain_agrees_with_prob_on_random_corpus(self):
        # Every node, ratio leaves ("E given F") included, must print a
        # formula whose probability is the value the node records.
        rng = random.Random(2024)
        checked = nodes = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SharedExperimentWarning)
            for _ in range(300):
                model = random_model(rng)
                f = random_formula(rng, model, depth=5)
                direct = prob(f, model)
                explained, derivation = prob_explain(f, model)
                if isinstance(direct, Determined):
                    assert isinstance(explained, Determined)
                    assert explained.value == direct.value
                    checked += 1
                else:
                    assert isinstance(explained, Undetermined)
                pending = [derivation]
                while pending:
                    node = pending.pop()
                    assert prob(parse_formula(node.formula), model) == node.result
                    pending.extend(node.children)
                    nodes += 1
        assert checked > 100
        assert nodes > 2000


class TestRuleIdentities:
    def test_complement_rule(self):
        rng = random.Random(11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SharedExperimentWarning)
            for _ in range(200):
                model = random_model(rng)
                f = random_formula(rng, model, depth=4)
                p = prob(f, model)
                if isinstance(p, Determined):
                    assert space_value(Not(f), model) + p.value == 1

    def test_choice_or_rule(self):
        rng = random.Random(12)
        applied = 0
        for _ in range(200):
            model = random_model(rng)
            exp = rng.choice(sorted(model.experiments))
            e = random_formula(rng, model, depth=3, experiment=exp)
            f = random_formula(rng, model, depth=3, experiment=exp)
            pe, pf = quiet_prob(e, model), quiet_prob(f, model)
            por = quiet_prob(ChoiceOr(e, f), model)
            pand = quiet_prob(ChoiceAnd(e, f), model)
            assert por.value + pand.value == pe.value + pf.value
            applied += 1
        assert applied == 200

    def test_parallel_or_both_forms(self):
        rng = random.Random(13)
        for _ in range(200):
            model = random_model(rng)
            e = random_formula(rng, model, depth=3)
            f = random_formula(rng, model, depth=3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SharedExperimentWarning)
                space = denote(ParOr(e, f), model)
            if isinstance(space, Undetermined):
                continue
            por = space_prob(space, model)
            three_way = (
                quiet_prob(ParAnd(e, f), model).value
                + quiet_prob(ParAnd(Not(e), f), model).value
                + quiet_prob(ParAnd(e, Not(f)), model).value
            )
            complement = 1 - quiet_prob(ParAnd(Not(e), Not(f)), model).value
            assert por == three_way == complement

    def test_parallel_and_independence_and_general_form(self):
        rng = random.Random(14)
        independent_checks = 0
        for _ in range(300):
            model = random_model(rng)
            names = sorted(model.experiments)
            if len(names) < 2:
                continue
            a, b = rng.sample(names, 2)
            e = random_formula(rng, model, depth=3, experiment=a)
            f = random_formula(rng, model, depth=3, experiment=b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SharedExperimentWarning)
                pand = space_value(ParAnd(e, f), model)
            if not (ancestral_closure(model, {a}) & ancestral_closure(model, {b})):
                assert pand == quiet_prob(e, model).value * quiet_prob(f, model).value
                independent_checks += 1
            else:
                pf = quiet_prob(f, model)
                if pf.value == 0:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SharedExperimentWarning)
                    ratio = cond_parallel(e, f, model)
                assert pand == pf.value * ratio.value
        assert independent_checks > 50

    def test_predicate_idempotence(self, examples_model):
        a = parse_formula("alien")
        expected = value(prob(a, examples_model))
        assert expected == F(1, 1000)
        assert value(prob(ParAnd(a, a), examples_model)) == expected
        assert value(prob(ParOr(a, a), examples_model)) == expected

    def test_all_determined_results_lie_in_unit_interval(self):
        rng = random.Random(15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SharedExperimentWarning)
            for _ in range(200):
                model = random_model(rng)
                f = random_query(rng, model)
                try:
                    p = prob(f, model)
                except NullConditionError:
                    continue
                if isinstance(p, Determined):
                    assert 0 <= p.value <= 1


def test_denote_and_prob_share_undetermined_verdicts(two_coins_cd):
    f = parse_formula("~(H@c | T@d) && H@c")
    assert isinstance(denote(f, two_coins_cd), Undetermined)
    assert isinstance(prob(f, two_coins_cd), Undetermined)


def test_given_requires_equal_supports_even_when_overlapping(examples_model):
    # supports {c} vs {c, d}: overlap is not enough
    r = cond_additive(
        parse_formula("H@c"), parse_formula("H@c && 6@d"), examples_model
    )
    assert isinstance(r, Undetermined)


# ---------------------------------------------------------------------------
# space_prob: variable elimination over the ancestral closure
# ---------------------------------------------------------------------------


def lift_and_sum(space, model):
    """The definition space_prob computes: lift the space to the ancestral
    closure of its support and sum every lifted point's joint probability."""
    closure = ancestral_closure(model, space.support)
    return sum(
        (joint_point_prob(model, p.as_dict()) for p in lift(space, closure, model).points),
        start=F(0),
    )


def test_space_prob_matches_lift_and_sum_on_multi_parent_models():
    rng = random.Random(31)
    eliminated = zero_entries = 0
    for _ in range(150):
        model = random_dag_model(rng)
        zero_entries += any(
            len(row) < len(d.outcomes) or 0 in row.values()
            for d in model.experiments.values() for row in d.cpt.values()
        )
        for _ in range(4):
            space = random_space(rng, model, max_support=3)
            eliminated += ancestral_closure(model, space.support) != space.support
            for s in (space, EventSpace(space.support, frozenset())):
                assert space_prob(s, model) == lift_and_sum(s, model)
    assert eliminated > 200 and zero_entries > 100


def test_prob_matches_oracle_on_multi_parent_models():
    rng = random.Random(32)
    checked = eliminated = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        for _ in range(200):
            model = random_dag_model(rng)
            for _ in range(4):
                f = random_query(rng, model)
                try:
                    ev = prob(f, model)
                except NullConditionError:
                    ev = "null-condition"
                try:
                    orc = enumerate_prob(f, model)
                except NullConditionError:
                    orc = "null-condition"
                assert type(ev) is type(orc), (f, ev, orc)
                if isinstance(ev, Determined):
                    assert ev == orc, f
                    names = {atom.experiment for atom in _atoms(f, model)}
                    eliminated += ancestral_closure(model, names) != names
                checked += 1
    assert checked == 800 and eliminated > 150


def markov_chain(n, p0, stay):
    """x0 -> x1 -> ... -> x{n-1} over {0, 1}; p(x0 = 0) = p0 and
    p(x_i = x_{i-1}) = stay."""
    decls = [ExperimentDecl.weighted("x0", {"0": p0, "1": 1 - p0})]
    for i in range(1, n):
        rows = {(a,): {b: stay if a == b else 1 - stay for b in "01"} for a in "01"}
        decls.append(ExperimentDecl(f"x{i}", ("0", "1"), (f"x{i - 1}",), rows))
    return Model.of(*decls)


def propagate(dist, stay, steps):
    """The distribution of a chain node ``steps`` after one with ``dist``."""
    p = dist[0]
    for _ in range(steps):
        p = p * stay + (1 - p) * (1 - stay)
    return p, 1 - p


@pytest.mark.parametrize("text", ["0@x199", "0@x20 pgiven 1@x180"])
def test_markov_chain_of_200_nodes_is_exact(text):
    p0, stay = F(1, 3), F(9, 10)
    model = markov_chain(200, p0, stay)
    if text == "0@x199":
        expected = propagate((p0, 1 - p0), stay, 199)[0]
    else:
        p20 = propagate((p0, 1 - p0), stay, 20)[0]
        p180_given_20 = propagate((F(1), F(0)), stay, 160)[1]
        p180 = propagate((p0, 1 - p0), stay, 180)[1]
        expected = p20 * p180_given_20 / p180
    f = parse_formula(text)
    assert value(prob(f, model)) == expected
    result, d = prob_explain(f, model)
    assert value(result) == value(d.result) == expected
