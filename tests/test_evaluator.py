import random
import sys
import threading
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
    Point,
    SampleConfig,
    SharedExperimentWarning,
    Undetermined,
    ancestral_closure,
    cond_additive,
    cond_parallel,
    denote,
    enumerate_prob,
    format_formula,
    mc_estimate,
    parse_formula,
    parse_model,
    prob,
    prob_explain,
    space_prob,
)
from colprob import evaluator, semantics
from colprob.bayes import Partition, posteriors
from _corpus import (
    SCALING_MODELS,
    joint_point_prob,
    lift_and_sum,
    mentioned,
    noisy_or,
    random_dag_model,
    random_formula,
    random_model,
    random_query,
    random_space,
)

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


# Each coin c{i} under its own parent r{i}, so that every closure is a
# walk up one edge and the closures of distinct coins are disjoint.
PARENTED = parse_model("".join(
    f"experiment r{i} : H, T\nexperiment c{i} : H, T depends r{i}\n"
    f"cpt H | r{i}=H = 1/3\ncpt T | r{i}=H = 2/3\ncpt H | r{i}=T = 2/3\ncpt T | r{i}=T = 1/3\n"
    for i in range(600)
))
PLAIN = parse_model("".join(f"experiment c{i} : H, T\n" for i in range(600)))


@pytest.mark.parametrize("model", [PLAIN, PARENTED], ids=["plain", "parented"])
@pytest.mark.parametrize("op, n, expected", [
    ("&&", 600, F(1, 2**600)),
    ("||", 150, 1 - F(1, 2**150)),
    ("|", 150, F(1, 2**149)),
])
def test_a_chain_takes_one_walk_and_one_closure_per_experiment(monkeypatch, model, op, n,
                                                               expected):
    walks, closures = [], []
    real_walk, real_closure = evaluator._walk, semantics.ancestral_closure

    def walk(f, *args):
        walks.append(f)
        return real_walk(f, *args)

    def closure(model, names):
        closures.append(names)
        return real_closure(model, names)

    monkeypatch.setattr(evaluator, "_walk", walk)
    monkeypatch.setattr(semantics, "ancestral_closure", closure)
    if op == "|":  # (H@c0 && ...) | (T@c0 && ...): every experiment on both sides
        rest = "".join(f" && H@c{i}" for i in range(1, n))
        f = parse_formula(f"(H@c0{rest}) | (T@c0{rest})")
    else:
        f = parse_formula(f" {op} ".join(f"H@c{i}" for i in range(n)))
    for run in (prob, lambda f, model: prob_explain(f, model)[0]):
        walks.clear()
        closures.clear()
        assert run(f, model) == Determined(expected)
        assert len(walks) == 1 and walks[0] is f
        # A coin without parents is its own closure; each parented coin's
        # is computed at most once, however many atoms it has, and once
        # for its one atom in a chain.
        coins = [frozenset([f"c{i}"]) for i in range(n)] if model is PARENTED else []
        if op == "|":
            assert len(set(closures)) == len(closures) and set(closures) <= set(coins)
        else:
            assert sorted(closures, key=sorted) == sorted(coins, key=sorted)


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


@pytest.mark.parametrize("points", [
    [{"c": "X"}],
    [{"c": "X", "d": "Z"}, {"c": "H", "d": "H"}, {"c": "W", "d": "Y"}],
    [{"c": "H", "d": "Z"}, {"c": "H", "d": "Y"}],
])
def test_space_prob_rejects_an_undeclared_outcome(two_coins_cd, points):
    # The engine's message for an atom or a point, naming the first
    # unknown outcome in sorted order, whatever order the points come in.
    s = EventSpace.of(points[0], map(Point.of, points))
    name, outcome = min((e, o) for p in points for e, o in p.items()
                        if o not in two_coins_cd.outcomes(e))
    message = f"unknown outcome '{outcome}' of experiment '{name}'"
    with pytest.raises(EvalError, match=f"^{message}$"):
        space_prob(s, two_coins_cd)
    with pytest.raises(EvalError, match=f"^{message}$"):
        joint_point_prob(two_coins_cd, {name: outcome})


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
                    names = mentioned(f)
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


# ---------------------------------------------------------------------------
# Event spaces stay sparse, and the engine builds no Point
# ---------------------------------------------------------------------------


def test_and_chain_on_a_long_chain_is_one_point():
    p0, stay = F(1, 3), F(9, 10)
    model = markov_chain(60, p0, stay)
    f = parse_formula(" && ".join(f"0@x{i}" for i in range(60)))
    assert value(prob(f, model)) == p0 * stay ** 59
    d = denote(f, model)
    assert len(d.points) == 1 and len(d.support) == 60


def test_parallel_or_prefix_of_a_markov_chain_matches_the_oracle():
    # 2^14 - 1 points over 14 dependent experiments.
    model = markov_chain(200, F(1, 3), F(9, 10))
    f = parse_formula(" || ".join(f"0@x{i}" for i in range(14)))
    assert prob(f, model) == enumerate_prob(f, model)


@pytest.fixture
def built_points(monkeypatch):
    """The Points built while the test runs, as the engine's decoding
    builds them."""
    built = []

    class Counted(semantics.Point):
        def __init__(self, items):
            built.append(items)
            super().__init__(items)

    monkeypatch.setattr(semantics, "Point", Counted)
    return built


POINT_QUERIES = [
    "4@d | 5@d", "(6@d1 && 5@d2 | 6@d2 && 5@d1) & (6@d1 || 6@d2)", "~(H@c1 && T@c2) || 6@d",
    "H@c && T@c", "alien && alien", "(H@c1 && (H@c2 | T@c2)) given (H@c1 && H@c2 | T@c1 && T@c2)",
    "H@c && (H@c & T@c)", "6@d1 pgiven (6@d1 || 6@d2)",
]


@pytest.mark.parametrize("text", POINT_QUERIES)
def test_evaluation_builds_no_point(examples_model, built_points, text):
    f = parse_formula(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        prob(f, examples_model)
        prob_explain(f, examples_model)
        assert built_points == []
        if "given" not in text:
            d = denote(f, examples_model)
            assert len(built_points) == len(d.points)


def test_bayes_builds_no_point(channel_model, built_points):
    cells = Partition((parse_formula("0@T"), parse_formula("1@T && (0@R | 1@R)")))
    report, values = posteriors(cells, parse_formula("0@R"), channel_model, "parallel")
    assert report.ok and values == [F(9, 10), F(1, 10)]
    assert built_points == []


@pytest.mark.parametrize("name", sorted(SCALING_MODELS))
def test_integer_scaled_cpts_are_exact(name):
    # Coprime and large lcms, rows of one cpt over different denominators,
    # omitted outcomes and a 300-outcome experiment: the integer tables
    # and the one final Fraction must give the exact rational.
    text, queries = SCALING_MODELS[name]
    model = parse_model(text)
    rng = random.Random(name)
    for _ in range(12):
        space = random_space(rng, model, max_support=2)
        got = space_prob(space, model)
        assert isinstance(got, Fraction) and got == lift_and_sum(space, model)
    for query in queries:
        f = parse_formula(query)
        result = prob(f, model)
        assert isinstance(value(result), Fraction)
        assert result == enumerate_prob(f, model), query


def test_first_use_compile_is_thread_safe():
    # Every thread queries a model nothing has touched yet, so each decl's
    # compiled forms, the one thing a query keeps (the integer tables, the
    # noisy-OR's per-cause factors and the Monte Carlo rows), are compiled
    # while the threads race.
    queries = [parse_formula(q) for i in range(6)
               for q in (f"a{i} pgiven true@e", f"true@e pgiven a{i}")]
    sampled = SampleConfig(300, seed=3)

    def answers(model):
        return ([prob(f, model) for f in queries]
                + [mc_estimate(f, model, sampled) for f in queries[:2]])

    expected = answers(parse_model(noisy_or(6)))
    model = parse_model(noisy_or(6))
    start = threading.Barrier(8)
    results = {}

    def worker(k):
        start.wait(timeout=30)
        results[k] = answers(model)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {k: expected for k in range(8)}


# A coin h that drives a signal s, whose outcome "never" has weight 0.
SIGNAL_TEXT = (
    "experiment h : H=1/3, T=2/3\nexperiment s : lo, hi, never depends h\n"
    "cpt lo | h=H = 1/4\ncpt hi | h=H = 3/4\ncpt lo | h=T = 3/5\ncpt hi | h=T = 2/5\n"
    "experiment c0 : H, T\nexperiment c1 : H, T\n"
)
SIGNAL = parse_model(SIGNAL_TEXT)


@pytest.fixture
def eliminations(monkeypatch):
    """Every elimination, by rows or by gates: whether it weighed a
    second mass beside the first (a condition beside its joint), or
    None for a space weighed alone."""
    calls = []
    rows, gates = evaluator._point_weights, evaluator._gates

    def by_rows(axes, points, model, condition=None):
        calls.append(None if condition is None else "rows")
        return rows(axes, points, model, condition)

    def by_gates(run, model, right=False, weighted=True):
        if weighted:  # a count of points for a note is no elimination of masses
            calls.append("gates" if right else None)
        return gates(run, model, right, weighted)

    monkeypatch.setattr(evaluator, "_point_weights", by_rows)
    monkeypatch.setattr(evaluator, "_gates", by_gates)
    return calls


# A binary Markov chain x0 -> ... -> x9 with a different cpt at each step.
MARKOV10_TEXT = "experiment x0 : 0=1/3, 1=2/3\n" + "".join(
    f"experiment x{i} : 0, 1 depends x{i - 1}\n"
    f"cpt 0 | x{i - 1}=0 = {i}/{i + 2}\ncpt 1 | x{i - 1}=0 = 2/{i + 2}\n"
    f"cpt 0 | x{i - 1}=1 = 1/{i + 3}\ncpt 1 | x{i - 1}=1 = {i + 2}/{i + 3}\n"
    for i in range(1, 10))
MARKOV10 = parse_model(MARKOV10_TEXT)
# A root conditional whose joint and condition are wide: the condition is
# a dependent || over the chain's first nine steps.
WIDE = "1@x9 pgiven " + " || ".join(f"0@x{i}" for i in range(9))


@pytest.mark.parametrize("text", [
    "0@x3 pgiven 1@x9",  # backward along the chain
    "1@x9 pgiven 0@x3",  # forward
    "(0@x2 | 1@x2) && 1@x7 pgiven 0@x9 | 1@x9",
    "0@x8 given 0@x8 | 1@x8",
    WIDE,
])
def test_a_root_conditional_takes_one_elimination(eliminations, text):
    # Both masses come from one call, which receives the condition's space
    # or keeps its gate. The explanation weighs its subformulas besides,
    # each alone.
    f = parse_formula(text)
    assert prob(f, MARKOV10) == enumerate_prob(f, MARKOV10)
    assert len(eliminations) == 1 and eliminations[0] is not None
    eliminations.clear()
    assert prob_explain(f, MARKOV10)[0] == enumerate_prob(f, MARKOV10)
    assert eliminations[0] is not None and all(c is None for c in eliminations[1:])


def test_a_rule_decided_condition_keeps_its_rule_path(eliminations):
    # R4 decides the condition from its complement; the joint is weighed
    # alone, and the explanation shows R4 under the ratio.
    f = parse_formula("H@c0 pgiven (H@c0 || H@c1 || lo@s)")
    assert quiet_prob(f, SIGNAL) == enumerate_prob(f, SIGNAL)
    assert eliminations and all(condition is None for condition in eliminations)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        _, why = prob_explain(f, SIGNAL)
    assert [child.rule for child in why.children] == ["R5", "R4"]


@pytest.mark.parametrize("text, weighed", [
    ("1@d | 2@d", 3),  # 1@d, 2@d and the union; never 1@d & 2@d
    ("(1@d | 2@d) | (2@d | 3@d)", 7),
    ("1@d | (2@d | (3@d | (4@d | 5@d)))", 9),
])
def test_r2_under_explain_takes_e_and_f_from_its_sides(eliminations, examples_model,
                                                       monkeypatch, text, weighed):
    # p(E & F) = p(E) + p(F) - p(E | F), from steps the explanation has
    # taken anyway: E & F is never weighed. Each node is weighed once and
    # folded once: an atom alone, a ``|`` as one run over both its sides,
    # which gives E | F and E & F (the 5-deep chain: 9 folds, where a fold
    # of the node's subtree and one of each side made 17).
    folds = []
    real = evaluator._space

    def space(nodes, model):
        folds.append(nodes)
        return real(nodes, model)

    monkeypatch.setattr(evaluator, "_space", space)
    f = parse_formula(text)
    result, why = prob_explain(f, examples_model)
    assert len(eliminations) == weighed
    assert len(folds) == weighed
    assert result == enumerate_prob(f, examples_model)
    both = why.children[2]
    assert both.formula == format_formula(ChoiceAnd(f.left, f.right))
    assert both.result == enumerate_prob(ChoiceAnd(f.left, f.right), examples_model)


def weighed_runs(monkeypatch) -> list:
    """The root of every run weighed, printed: folded into rows by
    ``_space``, or eliminated as gates."""
    roots = []
    real_space, real_gates = evaluator._space, evaluator._gates

    def space(nodes, model):
        roots.append(format_formula(nodes[-1]))
        return real_space(nodes, model)

    def gates(run, *args):
        roots.append(format_formula(run[-1]))
        return real_gates(run, *args)

    monkeypatch.setattr(evaluator, "_space", space)
    monkeypatch.setattr(evaluator, "_gates", gates)
    return roots


def test_an_independent_pgiven_evaluates_its_condition_once(monkeypatch):
    # One program, whose root is the conditional; each side's space is
    # folded once, for its one step.
    programs = []  # the root of each program, printed
    real_value = evaluator._value

    def value(program, *args):
        programs.append(format_formula(program[0][-1]))
        return real_value(program, *args)

    monkeypatch.setattr(evaluator, "_value", value)
    weighed = weighed_runs(monkeypatch)
    f = parse_formula("H@c0 pgiven (lo@s | hi@s)")
    assert prob(f, SIGNAL) == Determined(F(1, 2))
    assert programs == ["H@c0 pgiven lo@s | hi@s"]
    assert weighed == ["H@c0", "lo@s | hi@s"]


def test_a_wide_condition_is_weighed_once_by_gates(monkeypatch, eliminations):
    # The condition, a dependent || over nine steps of the chain, is one
    # elimination of its gates, beside the event's rows; under a dependent
    # root, the joint keeps the condition's gate and folds no space.
    weighed = weighed_runs(monkeypatch)
    condition = " || ".join(f"0@x{i}" for i in range(1, 10))
    model = parse_model(SIGNAL_TEXT + MARKOV10_TEXT)
    f = parse_formula(f"H@c0 pgiven ({condition})")
    assert prob(f, model) == Determined(F(1, 2))
    assert weighed == ["H@c0", format_formula(f.condition)]
    assert eliminations == [None, None]
    weighed.clear()
    eliminations.clear()
    f = parse_formula(WIDE)
    assert prob(f, MARKOV10) == enumerate_prob(f, MARKOV10)
    assert weighed == [format_formula(ParAnd(f.event, f.condition))]
    assert eliminations == ["gates"]


@pytest.mark.parametrize("text", [
    "H@c0 pgiven (lo@s | hi@s)",  # independent
    "H@h pgiven lo@s",  # the condition shares an elimination with the joint
    "H@h && H@c1 pgiven ~lo@s",  # a rule decides the condition
    "lo@s given lo@s | hi@s",
    "H@c0 given H@c0 | T@c0",  # the condition is its own closure
])
def test_a_root_conditional_takes_one_walk(monkeypatch, text):
    walks = []
    real = evaluator._walk

    def walk(f, *args):
        walks.append(f)
        return real(f, *args)

    monkeypatch.setattr(evaluator, "_walk", walk)
    f = parse_formula(text)
    for run in (prob, lambda f, model: prob_explain(f, model)[0]):
        walks.clear()
        assert run(f, SIGNAL) == enumerate_prob(f, SIGNAL)
        assert len(walks) == 1 and walks[0] is f


@pytest.mark.parametrize("text, by_gates", [
    (" || ".join(f"0@x{i}" for i in range(4)), False),  # a short run
    ("(0@x0 | 1@x0) | ((0@x0 & 1@x0) | (~0@x0 | (1@x0 | 0@x0)))", False),  # a narrow one
    (" && ".join(f"0@x{i}" for i in range(9)), False),  # wide, but each && keeps one row
    (" || ".join(f"0@x{i}" for i in range(9)), True),  # wide, and each || lifts its sides
], ids=["short", "narrow", "few-rows", "many-rows"])
def test_the_cost_function_picks_rows_or_gates(monkeypatch, text, by_gates):
    # Each branch of the one cost function, and the way the query then
    # takes; both ways give the oracle's answer.
    f = parse_formula(text)
    run = semantics._walk(f, MARKOV10, None)[2][0]
    assert evaluator._by_gates(run, MARKOV10) is by_gates
    weighed = weighed_runs(monkeypatch)
    real = evaluator._gates
    gated = []
    monkeypatch.setattr(evaluator, "_gates", lambda *args: gated.append(1) or real(*args))
    assert prob(f, MARKOV10) == enumerate_prob(f, MARKOV10)
    assert weighed == [format_formula(f)] and bool(gated) is by_gates


def test_a_gate_decided_note_counts_the_points_of_the_space(monkeypatch):
    # x9's outcome 2 has weight 0, so the && below is read off its space,
    # and the note counts that space's points: by gates with unit
    # weights, the number that the rows give.
    model = parse_model(MARKOV10_TEXT.replace(
        "experiment x9 : 0, 1 depends x8", "experiment x9 : 0, 1, 2 depends x8"))
    f = parse_formula("(" + " || ".join(f"0@x{i}" for i in range(9)) + ") && 2@x9")
    run = semantics._walk(f, model, None)[2][0]
    assert evaluator._by_gates(run, model)
    gated = evaluator.render_derivation(prob_explain(f, model)[1])
    monkeypatch.setattr(evaluator, "_by_gates", lambda run, model: False)
    assert evaluator.render_derivation(prob_explain(f, model)[1]) == gated
    assert "(511 point(s) over {x0, x1, x2, x3, x4, x5, x6, x7, x8, x9}, " in gated


@pytest.mark.parametrize("text, event, condition", [
    ("0@x3 pgiven 1@x9", 1, 1),
    ("(0@x2 | 1@x2) && 1@x7 pgiven 0@x9 | 1@x9", 5, 3),
    ("0@x8 given 0@x8 | 1@x8", 1, 3),
    ("1@x4 && 0@x5 pgiven 0@x0 | 1@x0", 3, 3),  # the condition is its own closure
])
def test_a_dependent_conditional_folds_each_side_once(monkeypatch, text, event, condition):
    # The joint's space joins the event's with the condition's, which is
    # also the one the condition's mass is read off; both come from one
    # fold over the event's nodes and then the condition's, and these
    # narrow joints weigh no gates.
    runs = []  # the length of each run of nodes folded, or gated
    real_space, real_gates = evaluator._space, evaluator._gates

    def space(nodes, model):
        runs.append(len(nodes))
        return real_space(nodes, model)

    def gates(run, *args):
        runs.append(("gates", len(run)))
        return real_gates(run, *args)

    monkeypatch.setattr(evaluator, "_space", space)
    monkeypatch.setattr(evaluator, "_gates", gates)
    f = parse_formula(text)
    assert prob(f, MARKOV10) == enumerate_prob(f, MARKOV10)
    assert runs == [event + condition]


@pytest.mark.parametrize("text", [
    "never@s given never@s",
    "(lo@s | never@s) given never@s",
    "H@h pgiven never@s",
    "lo@s pgiven (H@h && never@s)",
])
def test_a_condition_of_zero_mass_is_a_null_condition(text):
    f = parse_formula(text)
    for run in (quiet_prob, lambda f, model: prob_explain(f, model)[0]):
        with pytest.raises(NullConditionError, match=r"^conditioning on null event: p\("), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", SharedExperimentWarning)
            run(f, SIGNAL)
    with pytest.raises(NullConditionError):
        enumerate_prob(f, SIGNAL)


def test_render_derivation_keeps_its_own_stack():
    # A hand-built chain 5,000 levels deep: one line per level, each two
    # spaces in from the one above it.
    depth = 5000
    d = evaluator.Derivation("cpt", "H@c", Determined(F(1, 2)))
    for k in range(1, depth + 1):
        text = "~" * k + "H@c"
        d = evaluator.Derivation("R1", text, Determined(F(1, 2)), (d,), f"1 - p({text[1:]})")
    lines = evaluator.render_derivation(d).split("\n")
    assert len(lines) == depth + 1
    assert lines[0] == f"[R1] p({'~' * depth}H@c) = 1/2   (1 - p({'~' * (depth - 1)}H@c))"
    assert lines[-1] == "  " * depth + "[cpt] p(H@c) = 1/2"
    assert all(line.startswith("  " * k + "[") for k, line in enumerate(lines))
