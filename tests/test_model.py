import random
from fractions import Fraction
from itertools import product

import pytest

import colprob
from colprob import (
    Determined,
    EvalError,
    EventSpace,
    ExperimentDecl,
    Model,
    ModelError,
    Partition,
    Point,
    SampleConfig,
    ancestral_closure,
    bayes_additive,
    bayes_parallel,
    check_partition,
    enumerate_prob,
    mc_estimate,
    parse_formula,
    parse_model,
    prob,
    prob_explain,
    space_prob,
    validate_model,
)
from colprob.model import _per_cause, parents_first
from colprob.oracle import topological_order
from _corpus import (
    child_first_chain,
    joint_point_prob,
    noisy_or,
    noisy_or_model,
    random_dag_model,
    random_model,
)


def fair(name, *outcomes):
    return ExperimentDecl.uniform(name, outcomes)


def test_fair_coin_validates():
    model = Model.of(fair("c", "H", "T"))
    assert validate_model(model) == []


def test_cpt_row_not_summing_to_one_is_reported():
    w = Fraction(1, 6)
    decl = ExperimentDecl.weighted("d", {str(i): w for i in range(1, 6)})
    issues = validate_model(Model.of(decl))
    assert any("sums to 5/6" in issue for issue in issues)


def test_two_node_cycle_is_reported():
    r = ExperimentDecl("R", ("0", "1"), parents=("T",), cpt={})
    t = ExperimentDecl("T", ("0", "1"), parents=("R",), cpt={})
    issues = validate_model(Model.of(r, t))
    assert any("cycle: R→T→R" in issue or "cycle: T→R→T" in issue
               for issue in issues)


def binary(name, *parents):
    """A 0/1 experiment with a fair row for every parent assignment."""
    half = {"0": Fraction(1, 2), "1": Fraction(1, 2)}
    return ExperimentDecl(
        name, ("0", "1"), parents, {key: half for key in product("01", repeat=len(parents))}
    )


def test_every_cycle_is_reported_once_in_declaration_order():
    # Two disjoint cycles, a cycle reached through the tail t, a self-loop,
    # and a repeated parent edge into a cycle.
    model = Model.of(
        binary("a", "b"), binary("b", "a"),
        binary("t", "u"), binary("u", "v"), binary("v", "w"), binary("w", "u", "x"),
        binary("x", "y"), binary("y", "x"),
        binary("s", "s"),
    )
    assert validate_model(model) == [
        "cycle: a→b→a", "cycle: u→v→w→u", "cycle: x→y→x", "cycle: s→s",
    ]
    dup = Model.of(ExperimentDecl("p", ("0",), ("q", "q", "zz")), binary("q", "p"))
    assert [i for i in validate_model(dup) if i.startswith("cycle")] == ["cycle: p→q→p"]


def test_long_chain_declared_child_first_validates():
    # The cycle check and the parents-first walk keep their own stacks, so
    # chain length is not bounded by Python's recursion limit.
    model = parse_model(child_first_chain(1500))
    assert len(model.experiments) == 1500
    assert ancestral_closure(model, ["x1499"]) == frozenset(model.experiments)
    assert parents_first(model, ["x1499"]) == [f"x{i}" for i in range(1500)]


def test_unknown_parent_is_reported():
    r = ExperimentDecl("R", ("0", "1"), parents=("nope",), cpt={})
    issues = validate_model(Model.of(r))
    assert any("unknown parent 'nope'" in issue for issue in issues)


def test_missing_cpt_row_is_reported():
    t = fair("T", "0", "1")
    r = ExperimentDecl(
        "R", ("0", "1"), parents=("T",),
        cpt={("0",): {"0": Fraction(1, 2), "1": Fraction(1, 2)}},
    )
    issues = validate_model(Model.of(t, r))
    assert any("missing cpt row" in issue and "T=1" in issue for issue in issues)


@pytest.mark.parametrize("decls, issues", [
    ({"k": ExperimentDecl.uniform("c", ("H", "T"))},
     ["experiment k: declared under mismatched key 'c'"]),
    ({"e": ExperimentDecl("e", ())}, ["experiment e: no outcomes declared"]),
], ids=["mismatched-key", "no-outcomes"])
def test_what_the_parser_cannot_declare_is_reported(decls, issues):
    assert validate_model(Model(decls)) == issues


@pytest.mark.parametrize("text, issues", [
    ("experiment c : H, T, H", ["line 1: experiment c: duplicate outcome 'H'"]),
    ("experiment T : 0, 1\nexperiment R : 0, 1 depends T\ncpt 0 | T=0 = 1\ncpt 7 | T=1 = 1\n",
     ["line 2: experiment R: cpt references unknown outcome '7'",
      "line 2: experiment R: cpt row T=1 sums to 0"]),
], ids=["duplicate-outcome", "unknown-cpt-outcome"])
def test_a_model_file_lists_its_issues(text, issues):
    with pytest.raises(ModelError) as info:
        parse_model(text)
    assert info.value.issues == issues


def test_negative_weight_is_reported():
    decl = ExperimentDecl.weighted("x", {"a": Fraction(3, 2), "b": Fraction(-1, 2)})
    issues = validate_model(Model.of(decl))
    assert any("outside [0, 1]" in issue for issue in issues)


@pytest.fixture()
def channel():
    t = ExperimentDecl.weighted("T", {"0": Fraction(1, 2), "1": Fraction(1, 2)})
    r = ExperimentDecl(
        "R", ("0", "1"), parents=("T",),
        cpt={
            ("0",): {"0": Fraction(9, 10), "1": Fraction(1, 10)},
            ("1",): {"0": Fraction(1, 10), "1": Fraction(9, 10)},
        },
    )
    return Model.of(t, r)


class TestAncestralClosure:
    def test_one_parent_edge(self, channel):
        assert ancestral_closure(channel, {"R"}) == {"R", "T"}

    def test_parentless_identity(self):
        model = Model.of(fair("c", "H", "T"))
        assert ancestral_closure(model, {"c"}) == {"c"}

    def test_transitive(self):
        c = fair("C", "0", "1")
        b = ExperimentDecl(
            "B", ("0", "1"), parents=("C",),
            cpt={(o,): {"0": Fraction(1, 2), "1": Fraction(1, 2)} for o in "01"},
        )
        a = ExperimentDecl(
            "A", ("0", "1"), parents=("B",),
            cpt={(o,): {"0": Fraction(1, 2), "1": Fraction(1, 2)} for o in "01"},
        )
        model = Model.of(a, b, c)
        assert ancestral_closure(model, {"A"}) == {"A", "B", "C"}

    def test_unknown_experiment(self, channel):
        with pytest.raises(EvalError, match="unknown experiment"):
            ancestral_closure(channel, {"bogus"})


class TestJointPointProb:
    def test_two_fair_coins(self):
        model = Model.of(fair("c1", "H", "T"), fair("c2", "H", "T"))
        assert joint_point_prob(model, {"c1": "H", "c2": "H"}) == Fraction(1, 4)

    def test_coin_and_dice(self):
        model = Model.of(fair("c", "H", "T"), fair("d", *"123456"))
        assert joint_point_prob(model, {"c": "H", "d": "6"}) == Fraction(1, 12)

    def test_dependent_pair(self, channel):
        # hand product of the two declared factors: 1/2 * 9/10
        assert joint_point_prob(channel, {"T": "0", "R": "0"}) == Fraction(9, 20)

    def test_domain_must_be_ancestrally_closed(self, channel):
        with pytest.raises(EvalError, match="not ancestrally closed"):
            joint_point_prob(channel, {"R": "0"})

    def test_invalid_outcome(self, channel):
        with pytest.raises(EvalError, match="unknown outcome"):
            joint_point_prob(channel, {"T": "5", "R": "0"})

    def test_insensitive_to_mapping_order(self, channel):
        a = joint_point_prob(channel, {"T": "0", "R": "1"})
        b = joint_point_prob(channel, {"R": "1", "T": "0"})
        assert a == b == Fraction(1, 20)

    def test_the_export_is_deprecated_for_space_prob(self, channel):
        assignment = {"R": "1", "T": "0"}
        deprecated = r"^joint_point_prob is deprecated; use space_prob"
        with pytest.warns(DeprecationWarning, match=deprecated):
            value = colprob.joint_point_prob(channel, assignment)
        point = EventSpace.of(assignment, [Point.of(assignment)])
        assert value == space_prob(point, channel) == joint_point_prob(channel, assignment)


def test_joint_sums_to_one_over_random_models():
    rng = random.Random(20260808)
    for _ in range(50):
        model = random_model(rng)
        names = sorted(ancestral_closure(model, model.experiments))
        total = Fraction(0)
        for combo in product(*(model.outcomes(n) for n in names)):
            total += joint_point_prob(model, dict(zip(names, combo)))
        assert total == 1


def test_rational_arithmetic_round_trips_exactly():
    rng = random.Random(99)
    for _ in range(500):
        a = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        b = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        assert (a + b) - b == a
        if b != 0:
            assert (a / b) * b == a
        assert (a * b) - a * b == 0


def sweep_order(model, names):
    """The sweeping topological order ``topological_order`` must equal:
    sweep the sorted pending names, placing each whose parents are placed,
    until none is left or a sweep places nothing."""
    pending = sorted(set(names))
    placed, order = set(), []
    while pending:
        progressed = False
        for name in list(pending):
            if all(p in placed for p in model.decl(name).parents):
                order.append(name)
                placed.add(name)
                pending.remove(name)
                progressed = True
        if not progressed:
            raise EvalError("dependency cycle among: " + ", ".join(pending))
    return order


def random_named_dag(rng):
    """Up to 12 binary experiments with random names, each depending on up
    to three made before it, so parents often sort after their children."""
    names = rng.sample([f"{c}{i}" for c in "pqxy" for i in range(30)], rng.randint(1, 12))
    decls = [binary(name, *rng.sample(names[:i], rng.randint(0, min(3, i))))
             for i, name in enumerate(names)]
    return Model.of(*decls)


def test_topological_order_matches_the_sweeps():
    rng = random.Random(61)
    reordered = 0
    for _ in range(300):
        model = random_named_dag(rng)
        for name in model.experiments:
            closure = ancestral_closure(model, [name])
            order = topological_order(model, closure)
            assert order == sweep_order(model, closure)
            reordered += order != sorted(closure)
    assert reordered > 200
    chain = parse_model(child_first_chain(300))
    assert topological_order(chain, chain.experiments) == sweep_order(chain, chain.experiments)


@pytest.mark.parametrize("names", [["a", "b", "t"], ["b", "c", "t"], ["c", "t", "z"]])
def test_topological_order_reports_what_it_cannot_place(names):
    # a and b form a cycle that t depends on; c's parent z is left out.
    model = Model.of(binary("a", "b"), binary("b", "a"), binary("t", "a"),
                     binary("c", "z"), binary("z"))
    with pytest.raises(EvalError) as got:
        topological_order(model, names)
    with pytest.raises(EvalError) as want:
        sweep_order(model, names)
    assert str(got.value) == str(want.value)


def random_digraph(rng):
    """Up to 10 binary experiments with random names, each depending on up
    to two of them, itself included, so that cycles occur."""
    names = rng.sample([f"{c}{i}" for c in "pqxy" for i in range(30)], rng.randint(1, 10))
    counts = [min(len(names), rng.choice((0, 0, 1, 2))) for _ in names]
    return Model.of(*[binary(name, *rng.sample(names, k)) for name, k in zip(names, counts)])


def outcome(run):
    """What ``run()`` returns, or the message of the EvalError it raises."""
    try:
        return run()
    except EvalError as err:
        return str(err)


def test_topological_order_matches_the_sweeps_on_any_name_set():
    # Cycles inside and outside the set, and parents left out of it.
    rng = random.Random(64)
    failed = 0
    for _ in range(300):
        model = random_digraph(rng)
        names = [name for name in model.experiments if rng.random() < 0.8]
        got = outcome(lambda: topological_order(model, names))
        assert got == outcome(lambda: sweep_order(model, names))
        failed += isinstance(got, str)
    assert 50 < failed < 250


def test_parents_first_orders_the_closure_parents_first():
    rng = random.Random(63)
    for n in range(120):
        model = random_dag_model(rng) if n % 2 else random_named_dag(rng)
        names = sorted(model.experiments)
        for mask in range(1, 2 ** min(len(names), 6)):
            support = [name for i, name in enumerate(names) if mask >> i & 1]
            order = parents_first(model, support)
            assert len(order) == len(set(order))
            assert set(order) == ancestral_closure(model, support)
            at = {name: i for i, name in enumerate(order)}
            assert all(at[p] < at[name] for name in order for p in model.decl(name).parents)
            rng.shuffle(support)
            assert parents_first(model, iter(support)) == order
            assert parents_first(model, frozenset(support)) == order


def test_parents_first_names_what_the_sweeps_leave_unplaced():
    # Only the closure of the support is walked, so a cycle elsewhere is
    # no error; one inside it names every experiment that reaches it.
    rng = random.Random(65)
    for _ in range(300):
        model = random_digraph(rng)
        support = rng.sample(sorted(model.experiments), min(len(model.experiments), 3))
        closure = ancestral_closure(model, support)
        got = outcome(lambda: parents_first(model, support))
        want = outcome(lambda: sweep_order(model, closure))
        assert got == want if isinstance(want, str) else set(got) == set(want)


def test_elimination_walks_only_the_query_closure():
    # a and b form a cycle and c has an undeclared parent; neither lies in
    # the closure {x, y} that the marginal of y eliminates x from.
    model = Model.of(binary("a", "b"), binary("b", "a"), binary("c", "nowhere"),
                     binary("x"), binary("y", "x"), binary("t", "a"))
    assert prob(parse_formula("0@y"), model) == Determined(Fraction(1, 2))
    with pytest.raises(EvalError) as got:
        prob(parse_formula("0@t"), model)
    with pytest.raises(EvalError) as want:
        topological_order(model, {"a", "b", "t"})
    assert str(got.value) == str(want.value) == "dependency cycle among: a, b, t"


@pytest.mark.parametrize("query,names", [("0@s", "s"), ("0@a && 0@b", "a, b")])
def test_a_cycle_in_the_closure_is_an_error_even_with_nothing_to_sum_out(query, names):
    # The closure is walked on every query, also when it is the support.
    model = Model.of(binary("s", "s"), binary("a", "b"), binary("b", "a"))
    with pytest.raises(EvalError, match=f"^dependency cycle among: {names}$"):
        prob(parse_formula(query), model)


def test_queries_leave_the_model_as_built():
    # Model's docstring promises nothing mutates after __init__: queries
    # may compile each decl's cpt, but keep nothing on the model.
    model = parse_model(noisy_or(4))
    f = parse_formula
    assert vars(model).keys() == {"experiments"}
    prob(f("true@e"), model)
    prob(f("a0 pgiven true@e && ~a1"), model)
    prob_explain(f("true@e && a2 | false@e && a2"), model)
    cells = Partition((f("a3"), f("~a3")))
    check_partition(cells, model, "parallel")
    bayes_parallel(cells, f("true@e"), model)
    bayes_additive(Partition((f("true@e"), f("false@e"))), f("true@e"), model)
    enumerate_prob(f("true@e given true@e"), model)
    mc_estimate(f("a1 pgiven true@e"), model, SampleConfig(300, seed=2))
    assert vars(model).keys() == {"experiments"}


# Causes a0..a3 of a noisy-OR: two predicates-like binary causes and two
# 3-valued ones, with their inhibitors per outcome.
BINARY = {"true": Fraction(1, 3), "false": Fraction(2, 3)}
TERNARY = {"0": Fraction(1, 2), "1": Fraction(1, 3), "2": Fraction(1, 6)}
STOP = {"true": Fraction(1, 4), "false": Fraction(1)}
STOP3 = {"0": Fraction(1), "1": Fraction(1, 2), "2": Fraction(0)}


def per_cause(text):
    return parse_model(text).decl("e")._scaled[3]


def expand(per_cause_form, sizes):
    """The table that a per-cause form stands for, times its factor:
    sum over aux of prod_j h_j(a_j, aux) * D(aux, e), row-major."""
    causes, delta, _ = per_cause_form
    table = []
    for row in product(*[range(n) for n in sizes]):
        for e in (0, 1):
            total = 0
            for aux in (0, 1):
                term = delta[2 * aux + e]
                for h, v in zip(causes, row):
                    term *= h[2 * v + aux]
                total += term
            table.append(total)
    return table


def test_a_noisy_or_that_factors_and_is_smaller_compiles_per_cause():
    # Four binary causes: a 32-entry table against 4 * 4 + 4 entries.
    decl = parse_model(noisy_or(4)).decl("e")
    table, _, _, form = decl._scaled
    assert form is not None
    causes, delta, factor = form
    assert [len(h) for h in causes] == [4] * 4 and len(delta) == 4
    assert min(delta) < 0
    assert expand(form, [2] * 4) == [t * factor for t in table]


def test_three_valued_causes_factor_with_two_parents():
    text = noisy_or_model([TERNARY, TERNARY], [STOP3, STOP3], Fraction(1, 7))
    decl = parse_model(text).decl("e")
    table, _, _, form = decl._scaled
    assert expand(form, [3, 3]) == [t * form[2] for t in table]


def test_a_noisy_or_that_factors_but_is_not_smaller_keeps_its_table():
    # Two binary causes: 8 entries against 2 * 4 + 4.
    assert per_cause(noisy_or(2)) is None


def test_a_perturbed_noisy_or_keeps_its_table():
    priors, stops = [BINARY] * 5, [STOP] * 5
    assert per_cause(noisy_or_model(priors, stops, Fraction(1, 20))) is not None
    moved = noisy_or_model(priors, stops, Fraction(1, 20), (11, Fraction(1, 97)))
    assert per_cause(moved) is None


def test_a_zero_first_row_entry_keeps_the_table():
    # a0's first outcome ("0") lets the effect through for certain, so the
    # false column's first entry is 0, and the true column is not rank one.
    stop = {"0": Fraction(0), "1": Fraction(1, 2), "2": Fraction(1)}
    text = noisy_or_model([TERNARY, BINARY, BINARY, BINARY], [stop, STOP, STOP, STOP],
                          Fraction(1, 20))
    table = parse_model(text).decl("e")._scaled[0]
    assert table[0] == 0
    assert per_cause(text) is None


def test_an_effect_of_three_outcomes_keeps_its_table():
    causes = [f"a{i}" for i in range(4)]
    lines = [f"predicate {c} = 1/3" for c in causes]
    lines.append(f"experiment e : none, mild, severe depends {', '.join(causes)}")
    for row in product(("true", "false"), repeat=4):
        given = ", ".join(f"{c}={o}" for c, o in zip(causes, row))
        off = Fraction(1, 2) ** row.count("true")
        lines += [f"cpt none | {given} = {off}", f"cpt mild | {given} = {(1 - off) / 2}",
                  f"cpt severe | {given} = {(1 - off) / 2}"]
    assert per_cause("\n".join(lines) + "\n") is None


def test_the_cost_rule_reads_only_the_integer_table():
    # The same rule on a hand-made table: over two parents of three
    # outcomes, a rank-one first column and rows that sum to the lcm.
    column = [a * b for a in (3, 2, 1) for b in (3, 1, 0)]
    table = [t for c in column for t in (c, 16 - c)]
    causes, delta, factor = _per_cause(table, 16, [3, 3])
    assert causes == [[9, 9, 6, 9, 3, 9], [9, 9, 3, 9, 0, 9]]
    assert delta == [9, -9, 0, 16] and factor == 81
    assert expand((causes, delta, factor), [3, 3]) == [t * 81 for t in table]
    swapped = [t for c in column for t in (16 - c, c)]  # the second column factors
    causes, delta, factor = _per_cause(swapped, 16, [3, 3])
    assert delta == [-9, 9, 16, 0]
    assert expand((causes, delta, factor), [3, 3]) == [t * 81 for t in swapped]
    assert _per_cause([1] + table[1:], 16, [3, 3]) is None  # a row off the lcm
