import random
import warnings
from fractions import Fraction
from functools import reduce

import pytest

from colprob import (
    AtomNode,
    Determined,
    EmptySpaceError,
    EvalError,
    EventSpace,
    ExperimentDecl,
    Model,
    ParAnd,
    Partition,
    Point,
    SharedExperimentWarning,
    Undetermined,
    bayes_additive,
    bayes_parallel,
    cartesian_conj,
    check_partition,
    cond_additive,
    cond_parallel,
    denote,
    format_formula,
    full_space,
    lift,
    parse_formula,
    prob,
    prob_explain,
    to_set_normal_form,
)
from colprob import semantics
from colprob.semantics import support
from _corpus import random_formula, random_model, random_space


def space(support, *assignments):
    return EventSpace(frozenset(support), frozenset(Point.of(a) for a in assignments))


def quiet_denote(f, model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        return denote(f, model)


class TestDenote:
    def test_choice_or_of_outcomes(self, examples_model):
        d = denote(parse_formula("4@d | 5@d"), examples_model)
        assert d == space({"d"}, {"d": "4"}, {"d": "5"})

    def test_intersection_picks_shared_point(self, examples_model):
        d = denote(parse_formula("(3@d | 4@d) & 4@d"), examples_model)
        assert d == space({"d"}, {"d": "4"})

    def test_choice_or_across_supports_is_undetermined(self, two_coins_cd):
        d = denote(parse_formula("H@c | T@d"), two_coins_cd)
        assert isinstance(d, Undetermined)
        assert "choice-or (|)" in d.reason
        assert "{c}" in d.reason and "{d}" in d.reason

    def test_parallel_or_space_has_eleven_points(self, examples_model):
        d = denote(parse_formula("6@d1 || 6@d2"), examples_model)
        assert d.support == {"d1", "d2"}
        assert len(d.points) == 11
        assert all(
            "6" in (p.as_dict()["d1"], p.as_dict()["d2"]) for p in d.points
        )

    def test_negation_is_complement(self, examples_model):
        d = denote(parse_formula("~(4@d | 5@d)"), examples_model)
        assert d == space({"d"}, {"d": "1"}, {"d": "2"}, {"d": "3"}, {"d": "6"})

    def test_unknown_experiment(self, examples_model):
        with pytest.raises(EvalError, match="unknown experiment"):
            denote(parse_formula("H@nope"), examples_model)

    def test_unknown_outcome(self, examples_model):
        with pytest.raises(EvalError, match="unknown outcome"):
            denote(parse_formula("7@d"), examples_model)

    def test_conditional_inside_formula_is_an_error(self, examples_model):
        with pytest.raises(EvalError, match="root"):
            denote(parse_formula("(H@c given T@c) && 6@d"), examples_model)

    def test_undetermined_propagates_upward(self, two_coins_cd):
        d = denote(parse_formula("~(H@c | T@d)"), two_coins_cd)
        assert isinstance(d, Undetermined)


@pytest.mark.parametrize("path", [support, denote], ids=["support", "denote"])
@pytest.mark.parametrize("text", [
    "H@c given T@c", "H@c pgiven T@c", "H@c given T@d", "(H@c | T@d) pgiven bogus@c",
], ids=["given", "pgiven", "given-undetermined", "pgiven-undetermined"])
def test_a_root_conditional_has_no_event_space(two_coins_cd, path, text):
    # Rejected before the walk, which would compile it (and decide the
    # last two undetermined) for the evaluator.
    with pytest.raises(EvalError) as info:
        path(parse_formula(text), two_coins_cd)
    assert str(info.value) == (
        "conditionals ('given'/'pgiven') are only allowed at the root of a query; "
        "they have no event space"
    )


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_support_of_a_twenty_thousand_term_chain(nesting):
    # Each && grows the larger side's support with the smaller one, so the
    # walk stays linear in the chain's length, however the chain nests.
    names = [f"c{i}" for i in range(20_000)]
    model = Model.of(*(ExperimentDecl.uniform(name, ("H", "T")) for name in names))
    atoms = [AtomNode(name, "H") for name in names]
    if nesting == "left":
        f = reduce(ParAnd, atoms)
    else:
        f = reduce(lambda right, atom: ParAnd(atom, right), reversed(atoms))
    assert support(f, model) == frozenset(names)


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_closure_of_a_ten_thousand_term_parented_chain(nesting):
    # Each coin c{i} under its own parent r{i}: each && grows the larger
    # side's closure too, copying an atom's shared closure once, so the
    # walk stays linear on parented experiments.
    n = 10_000
    cpt = {(o,): {"H": Fraction(1, 3), "T": Fraction(2, 3)} for o in ("H", "T")}
    model = Model.of(*(decl for i in range(n) for decl in (
        ExperimentDecl.uniform(f"r{i}", ("H", "T")),
        ExperimentDecl(f"c{i}", ("H", "T"), (f"r{i}",), cpt),
    )))
    atoms = [AtomNode(f"c{i}", "H") for i in range(n)] + [AtomNode("c0", "T")]
    if nesting == "left":
        f = reduce(ParAnd, atoms)
    else:
        f = reduce(lambda right, atom: ParAnd(atom, right), reversed(atoms))
    verdict, closure, _ = semantics._walk(f, model, None)
    assert support(f, model) == verdict == frozenset(f"c{i}" for i in range(n))
    assert closure == frozenset(model.experiments)


class TestCartesianConj:
    def test_disjoint_supports_multiply(self):
        # two abstract experiments with numeric outcomes forming the
        # four-point product {(0,1,0),(0,1,1),(1,2,0),(1,2,1)}
        model = Model.of(
            ExperimentDecl.uniform("x", ("0", "1")),
            ExperimentDecl.uniform("y", ("1", "2")),
            ExperimentDecl.uniform("z", ("0", "1")),
        )
        e = space({"x", "y"}, {"x": "0", "y": "1"}, {"x": "1", "y": "2"})
        f = space({"z"}, {"z": "0"}, {"z": "1"})
        got = cartesian_conj(e, f)
        assert got == space(
            {"x", "y", "z"},
            {"x": "0", "y": "1", "z": "0"},
            {"x": "0", "y": "1", "z": "1"},
            {"x": "1", "y": "2", "z": "0"},
            {"x": "1", "y": "2", "z": "1"},
        )

    def test_predicate_space_is_idempotent(self):
        s = space({"alien"}, {"alien": "true"})
        assert cartesian_conj(s, s) == s

    def test_conflicting_outcomes_give_empty_space(self):
        a = space({"c"}, {"c": "H"})
        b = space({"c"}, {"c": "T"})
        got = cartesian_conj(a, b)
        assert got.support == {"c"}
        assert got.points == frozenset()

    def test_commutative_and_associative(self):
        rng = random.Random(31)
        for _ in range(50):
            model = random_model(rng, max_experiments=3, max_outcomes=4)
            s = random_space(rng, model)
            t = random_space(rng, model)
            u = random_space(rng, model)
            assert cartesian_conj(s, t) == cartesian_conj(t, s)
            assert cartesian_conj(cartesian_conj(s, t), u) == cartesian_conj(
                s, cartesian_conj(t, u)
            )

    def test_point_merge_is_deprecated_for_it(self):
        # Point.merge still combines two points, or gives None on a
        # conflict, but warns, naming cartesian_conj.
        h, t, d = Point.of({"c": "H"}), Point.of({"c": "T"}), Point.of({"d": "1"})
        with pytest.warns(DeprecationWarning, match="cartesian_conj"):
            assert h.merge(d) == Point.of({"c": "H", "d": "1"})
        with pytest.warns(DeprecationWarning, match="cartesian_conj"):
            assert h.merge(t) is None
        conj = cartesian_conj(space({"c"}, {"c": "H"}), space({"d"}, {"d": "1"}))
        assert conj.points == {Point.of({"c": "H", "d": "1"})}


class TestLift:
    def test_adds_missing_binary_experiment(self, two_coins_cd):
        lifted = lift(space({"d"}, {"d": "H"}), {"d", "c"}, two_coins_cd)
        assert lifted == space(
            {"c", "d"}, {"d": "H", "c": "H"}, {"d": "H", "c": "T"}
        )

    def test_identity_on_own_support(self, examples_model):
        s = space({"d"}, {"d": "6"})
        assert lift(s, {"d"}, examples_model) is s

    def test_empty_space_stays_empty(self, two_coins_cd):
        s = EventSpace(frozenset({"c"}), frozenset())
        lifted = lift(s, {"c", "d"}, two_coins_cd)
        assert lifted.support == {"c", "d"}
        assert lifted.points == frozenset()

    def test_target_must_cover_support(self, two_coins_cd):
        with pytest.raises(EvalError, match="cannot lift"):
            lift(space({"c"}, {"c": "H"}), {"d"}, two_coins_cd)


class TestSetNormalForm:
    def test_singleton(self):
        assert format_formula(to_set_normal_form(space({"d"}, {"d": "4"}))) == "4@d"

    def test_two_coin_exchange(self):
        s = space(
            {"c1", "c2"},
            {"c1": "H", "c2": "T"},
            {"c1": "T", "c2": "H"},
        )
        assert format_formula(to_set_normal_form(s)) == "H@c1 && T@c2 | T@c1 && H@c2"

    def test_eleven_point_space_round_trips(self, examples_model):
        d = denote(parse_formula("6@d1 || 6@d2"), examples_model)
        snf = to_set_normal_form(d)
        assert format_formula(snf).count("|") == 10
        assert denote(snf, examples_model) == d

    def test_empty_space_is_a_designated_error(self):
        with pytest.raises(EmptySpaceError):
            to_set_normal_form(EventSpace(frozenset({"c"}), frozenset()))

    def test_the_point_over_no_experiments_is_a_designated_error(self, two_coins_cd):
        # ``full_space`` over no experiments is { {} }: one point, but no
        # formula names zero experiments.
        s = full_space(two_coins_cd, [])
        assert s.points == {Point.of({})}
        with pytest.raises(EmptySpaceError,
                           match="^the space over no experiments has no set normal form$"):
            to_set_normal_form(s)


def test_snf_round_trip_on_random_spaces():
    rng = random.Random(555)
    for _ in range(200):
        model = random_model(rng)
        s = random_space(rng, model)
        assert quiet_denote(to_set_normal_form(s), model) == s


@pytest.mark.parametrize("build", [
    lambda support, points: EventSpace(frozenset(support), frozenset(points)),
    EventSpace.of,
], ids=["constructor", "of"])
def test_public_construction_checks_every_point(build):
    with pytest.raises(ValueError) as info:
        build({"c", "d"}, [Point.of({"c": "H", "d": "T"}), Point.of({"c": "H"})])
    assert str(info.value) == "point {c=H} does not cover support {c, d}"


@pytest.mark.parametrize("support,items,fault", [
    ({"c"}, (("c", "H"), ("c", "T")), "repeats or misorders an experiment of support {c}"),
    ({"c", "d"}, (("d", "T"), ("c", "H")), "repeats or misorders an experiment of support {c, d}"),
    ({"c", "d"}, (("c", "H"), ("c", "T"), ("d", "T")),
     "repeats or misorders an experiment of support {c, d}"),
    ({"c"}, (("c", "H"), ("d", "T")), "does not cover support {c}"),
])
def test_a_point_that_cannot_occur_is_rejected(support, items, fault):
    # A repeated or unsorted experiment breaks Point's invariant; such a
    # point is no outcome of the support, and no space may hold it.
    point = Point(items)
    with pytest.raises(ValueError) as info:
        EventSpace(frozenset(support), frozenset({point}))
    assert str(info.value) == f"point {point} {fault}"


def test_denoted_spaces_pass_the_public_check():
    # The denotation builds its spaces without the per-point check; every
    # one must still pass it.
    rng = random.Random(556)
    checked = 0
    for _ in range(300):
        model = random_model(rng)
        s = quiet_denote(random_formula(rng, model, 4), model)
        if isinstance(s, EventSpace):
            assert EventSpace(s.support, s.points) == s
            assert all(p.items == tuple(sorted(p.items)) for p in s.points)
            checked += 1
    assert checked > 100


def test_choice_connectives_are_set_operations(examples_model):
    rng = random.Random(8)
    model = examples_model
    d_points = sorted(full_space(model, {"d"}).points, key=lambda p: p.items)
    for _ in range(50):
        e = EventSpace(frozenset({"d"}), frozenset(rng.sample(d_points, rng.randint(1, 6))))
        f = EventSpace(frozenset({"d"}), frozenset(rng.sample(d_points, rng.randint(1, 6))))
        fe = to_set_normal_form(e)
        ff = to_set_normal_form(f)
        from colprob import ChoiceAnd, ChoiceOr

        assert denote(ChoiceAnd(fe, ff), model).points == e.points & f.points
        assert denote(ChoiceOr(fe, ff), model).points == e.points | f.points


def test_complement_involution():
    rng = random.Random(77)
    from colprob import Not

    for _ in range(100):
        model = random_model(rng)
        s = random_space(rng, model)
        f = to_set_normal_form(s)
        assert quiet_denote(Not(Not(f)), model) == quiet_denote(f, model)


def test_parallel_or_identities():
    # E || F covers exactly "in E's lift or in F's lift" and matches both
    # the complement form ~(~E && ~F) and the defining expansion.
    rng = random.Random(1312)
    from colprob import ChoiceOr, Not, ParAnd, ParOr

    for _ in range(100):
        model = random_model(rng)
        e = to_set_normal_form(random_space(rng, model))
        f = to_set_normal_form(random_space(rng, model))
        left = quiet_denote(ParOr(e, f), model)
        right = quiet_denote(Not(ParAnd(Not(e), Not(f))), model)
        assert left == right
        expansion = ChoiceOr(
            ChoiceOr(ParAnd(e, f), ParAnd(Not(e), f)), ParAnd(e, Not(f))
        )
        assert left == quiet_denote(expansion, model)
        joint = left.support
        de = lift(quiet_denote(e, model), joint, model)
        df = lift(quiet_denote(f, model), joint, model)
        assert left.points == de.points | df.points


QUERY_PATHS = pytest.mark.parametrize(
    "path", [denote, prob, prob_explain], ids=["denote", "prob", "prob_explain"]
)


class TestSharedExperimentWarning:
    # A query warns once, when it is determined, naming every shared
    # non-predicate experiment that its support walk collects.
    @QUERY_PATHS
    @pytest.mark.parametrize(
        "text", ["H@c && T@c", "H@c || T@c", "(H@c && T@c) && (H@c1 && T@c1)"]
    )
    def test_non_predicate_overlap_warns(self, examples_model, path, text):
        with pytest.warns(SharedExperimentWarning) as caught:
            path(parse_formula(text), examples_model)
        named = "{c, c1}" if "c1" in text else "{c}"
        assert [str(w.message) for w in caught] == [
            f"parallel-and (&&) over shared experiment(s) {named}; merging with conflict filtering"
        ]

    @pytest.mark.parametrize("path", [prob, prob_explain], ids=["prob", "prob_explain"])
    def test_pgiven_over_a_shared_experiment_warns(self, examples_model, path):
        with pytest.warns(SharedExperimentWarning, match=r"\{c\}") as caught:
            path(parse_formula("H@c pgiven T@c"), examples_model)
        assert len(caught) == 1

    @pytest.mark.parametrize("call", [
        lambda model: prob(parse_formula("H@c && T@c"), model),
        lambda model: prob_explain(parse_formula("H@c && T@c"), model),
        lambda model: denote(parse_formula("H@c && T@c"), model),
        lambda model: cond_additive(parse_formula("H@c && T@c"), parse_formula("H@c | T@c"),
                                    model),
        lambda model: cond_parallel(parse_formula("H@c && T@c"), parse_formula("H@c | T@c"),
                                    model),
        lambda model: prob(parse_formula("H@c pgiven T@c"), model),
        lambda model: prob_explain(parse_formula("H@c pgiven T@c"), model),
        lambda model: cond_parallel(parse_formula("H@c"), parse_formula("T@c"), model),
    ], ids=["prob-&&", "prob_explain-&&", "denote-&&", "cond_additive-&&", "cond_parallel-&&",
            "prob-pgiven", "prob_explain-pgiven", "cond_parallel-pgiven"])
    def test_the_warning_points_at_the_caller(self, examples_model, call):
        with pytest.warns(SharedExperimentWarning, match=r"\{c\}") as caught:
            call(examples_model)
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("text", [
        "(H@c && T@c) | H@c1", "~(H@c || T@c) & (H@c1 && T@c1)",
        "(H@c && T@c) pgiven (H@c | H@c1)", "H@c1 pgiven ((H@c && T@c) | H@c1)",
    ])
    def test_undetermined_query_never_warns(self, examples_model, text):
        f = parse_formula(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SharedExperimentWarning)
            results = [prob(f, examples_model), prob_explain(f, examples_model)[0]]
            if "pgiven" not in text:  # a conditional has no space
                results.append(denote(f, examples_model))
        assert all(isinstance(r, Undetermined) for r in results)

    def test_bayes_stays_silent_on_shared_coins(self, examples_model):
        # The cells share c with each other and with the evidence, and the
        # third cell shares c within itself.
        one_support = Partition(tuple(map(parse_formula, [
            "H@c && H@c1", "H@c && T@c1", "T@c && (H@c1 || T@c)"])))
        mixed = Partition(tuple(map(parse_formula, ["H@c && H@c1", "H@c && T@c1", "T@c"])))
        evidence = parse_formula("H@c1 || T@c")
        with warnings.catch_warnings():
            warnings.simplefilter("error", SharedExperimentWarning)
            for cells in (one_support, mixed):
                for variant in ("additive", "parallel") if cells is one_support else ("parallel",):
                    assert check_partition(cells, examples_model, variant).ok
                joint = bayes_parallel(cells, evidence, examples_model)
                assert joint == bayes_parallel(cells, evidence, examples_model, "prior-likelihood")
            additive = bayes_additive(one_support, evidence, examples_model)
        assert joint == [Fraction(1, 3), 0, Fraction(2, 3)]
        assert additive == [Fraction(1, 3), 0, Fraction(2, 3)]

    @pytest.mark.parametrize("text", ["alien && alien", "alien || alien"])
    def test_predicate_overlap_stays_silent(self, examples_model, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SharedExperimentWarning)
            d = denote(parse_formula(text), examples_model)
            p = prob(parse_formula(text), examples_model)
        assert d == space({"alien"}, {"alien": "true"})
        assert p == Determined(Fraction(1, 1000))

    def test_conflicting_merge_is_empty(self, examples_model):
        d = quiet_denote(parse_formula("H@c && T@c"), examples_model)
        assert d.points == frozenset()
