"""Property tests: both parsers are total, printing round-trips, the
evaluator and the enumeration oracle give the same answer, verdict or
error, also on formulas thousands of levels deep, variable elimination
gives each space its lifted sum on generated Bayes-net models, ``denote``
gives the space that a point-by-point reading of the definitions gives,
the explanation's root
is ``prob``, both forms of the parallel Bayes rule agree, generated
noisy-OR models, factored or perturbed, evaluate as the oracle does, the
gate weigher gives the rows' and the oracle's masses, and
the support walk gives the support and ancestral closure, the
post-order program and the independent ``&&`` and ``||``, that a
recursion over the formula gives.

Runs are derandomized and keep no example database, so every run checks
the same inputs and writes nothing to the checkout (``conftest.py`` moves
hypothesis's other cache to a temporary directory).
"""

import math
import random
import warnings
from contextlib import suppress
from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from colprob import evaluator, semantics
from colprob import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
    ColprobError,
    Determined,
    EventSpace,
    GivenAdd,
    GivenPar,
    Not,
    ParAnd,
    ParOr,
    Point,
    SharedExperimentWarning,
    bayes_parallel,
    denote,
    enumerate_prob,
    format_formula,
    parse_formula,
    parse_model,
    prob,
    prob_explain,
    space_prob,
)
from _corpus import (
    draw_cells,
    lift_and_sum,
    noisy_or,
    noisy_or_model,
    random_dag_model,
    random_formula,
    random_model,
    random_query,
    random_space,
)


DETERMINISTIC = settings(derandomize=True, database=None, max_examples=200)

FORMULA_PIECES = [
    "(", ")", "~", "&", "&&", "|", "||", "@", " ", "\n", "#", "H", "T", "c", "d",
    "0", "12", "alien", "given", "pgiven", "_x", "é", "$",
]
FORMULA_TEXT = st.lists(st.sampled_from(FORMULA_PIECES), max_size=80).map(
    lambda p: "".join(p)[:200]
)
# Lines shaped like each declaration, with random names, outcomes and
# rationals, so that errors past the first line are reached too.
MODEL_LINE = st.from_regex(
    r"experiment [a-zT]{1,2} ?: ?[01HT](, ?[01HT](=-?[0-9]/[0-9])?){0,2}"
    r"( depends [cRT](, [cRT])?)?"
    r"|cpt [01] \| [RT]=[01](, [RT]=[01])? = -?[0-9](/[0-9])?"
    r"|predicate [a-z] = -?[0-9](/[0-9])?"
    r"|#.*|.{0,20}",
    fullmatch=True,
)
MODEL_TEXT = st.lists(MODEL_LINE, max_size=8).map(lambda lines: "\n".join(lines)[:200])


@DETERMINISTIC
@given(st.text(max_size=200) | FORMULA_TEXT)
def test_parse_formula_returns_or_raises_colprob_error(text):
    with suppress(ColprobError):
        parse_formula(text)


@DETERMINISTIC
@given(st.text(max_size=200) | MODEL_TEXT)
def test_parse_model_returns_or_raises_colprob_error(text):
    with suppress(ColprobError):
        parse_model(text)


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda name: name not in ("given", "pgiven")
)
OUTCOMES = NAMES | st.from_regex(r"[0-9]{1,3}", fullmatch=True)
FORMULAS = st.recursive(
    st.builds(AtomNode, NAMES, OUTCOMES),
    lambda sub: st.builds(Not, sub) | st.one_of(*(
        st.builds(node, sub, sub)
        for node in (ChoiceAnd, ChoiceOr, ParAnd, ParOr, GivenAdd, GivenPar)
    )),
    max_leaves=16,
)


@DETERMINISTIC
@given(FORMULAS)
def test_format_formula_round_trips(f):
    assert parse_formula(format_formula(f)) == f


# A channel T → R, a coin and a predicate; atoms include an unknown
# experiment and an unknown outcome, and any node may be a conditional.
SMALL_MODEL = parse_model(
    "experiment T : 0=1/3, 1=2/3\nexperiment R : 0, 1 depends T\n"
    "cpt 0 | T=0 = 9/10\ncpt 1 | T=0 = 1/10\ncpt 0 | T=1 = 1/5\ncpt 1 | T=1 = 4/5\n"
    "experiment c : H, T\npredicate p = 1/4\n"
)
SMALL_ATOMS = st.sampled_from([
    AtomNode(e, o) for e, o in (
        ("T", "0"), ("T", "1"), ("R", "0"), ("R", "1"), ("c", "H"), ("c", "T"),
        ("p", "true"), ("p", "false"), ("zz", "H"), ("c", "bogus"),
    )
])
SMALL_FORMULAS = st.recursive(
    SMALL_ATOMS,
    lambda sub: st.builds(Not, sub) | st.one_of(*(
        st.builds(node, sub, sub)
        for node in (ChoiceAnd, ChoiceOr, ParAnd, ParOr, GivenAdd, GivenPar)
    )),
    max_leaves=8,
)


def answer(run):
    """The Determined value, or which kind of verdict or error ``run`` gave."""
    try:
        result = run()
    except ColprobError:
        return "error"
    return result if isinstance(result, Determined) else "undetermined"


@DETERMINISTIC
@given(SMALL_FORMULAS)
@example(parse_formula("(0@T | H@c) && H@zz"))
@example(parse_formula("0@R pgiven ((0@T | H@c) && bogus@c)"))
@example(parse_formula("(0@R given 0@R) && bogus@c"))
def test_prob_agrees_with_enumeration(f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        evaluated = answer(lambda: prob(f, SMALL_MODEL))
    assert evaluated == answer(lambda: enumerate_prob(f, SMALL_MODEL))


def deep_formula(rng, depth: int):
    """A formula over SMALL_MODEL ``depth`` levels deep, built from a leaf
    up without recursion: each level puts ``~`` over the formula so far,
    or a connective with a shallow side on its left or its right. A
    choice connective's shallow side is an ``&&`` of one atom per
    experiment of the formula so far, so the sides share one support;
    sometimes the whole is a root conditional, on such a side for
    ``given``."""
    atoms = [AtomNode(e, o) for e in SMALL_MODEL.experiments for o in SMALL_MODEL.outcomes(e)]

    def over(names):  # a conjunction of one atom per experiment of ``names``
        side = None
        for name in sorted(names):
            atom = AtomNode(name, rng.choice(SMALL_MODEL.outcomes(name)))
            side = atom if side is None else ParAnd(side, atom)
        return side

    f = rng.choice(atoms)
    names = {f.experiment}
    for _ in range(depth):
        kind = rng.choice((Not, Not, ChoiceAnd, ChoiceOr, ParAnd, ParOr))
        if kind is Not:
            f = Not(f)
            continue
        if kind in (ChoiceAnd, ChoiceOr):
            side = over(names)
        else:
            side = rng.choice(atoms)
            names.add(side.experiment)
        if rng.random() < 0.5:
            side = Not(side)
        f = kind(f, side) if rng.random() < 0.5 else kind(side, f)
    if rng.random() < 0.3:
        f = GivenAdd(f, over(names)) if rng.random() < 0.5 else GivenPar(f, rng.choice(atoms))
    return f


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3000, 5000))
def test_prob_agrees_with_enumeration_thousands_deep(seed, depth):
    # Deeper than the recursion limit that hypothesis allows a test: every
    # pass of the evaluator and of the oracle is a loop. The formula's
    # thousands of choices come from a seeded generator, not from
    # hypothesis's own draws.
    f = deep_formula(random.Random(seed), depth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        evaluated = answer(lambda: prob(f, SMALL_MODEL))
    assert evaluated == answer(lambda: enumerate_prob(f, SMALL_MODEL))


@DETERMINISTIC
@given(st.randoms(use_true_random=False), st.booleans())
def test_elimination_agrees_with_lifting_on_random_dags(rng, empty):
    # Up to six experiments of up to four outcomes, each with up to three
    # parents and zero weights among its rows; a space over up to three of
    # them, which often uses only some outcomes of a support experiment
    # and leaves ancestors to sum out, or no point at all.
    model = random_dag_model(rng, max_experiments=6, max_outcomes=4, max_parents=3)
    space = random_space(rng, model, max_support=3)
    if empty:
        space = EventSpace(space.support, frozenset())
    assert space_prob(space, model) == lift_and_sum(space, model)
    f = random_query(rng, model, depth=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        evaluated = answer(lambda: prob(f, model))
    assert evaluated == answer(lambda: enumerate_prob(f, model))


def reference_space(f, model):
    """The space of a determined, conditional-free ``f``, one Point at a
    time: merges for ``&&``, products of outcomes for ``~`` and ``||``.
    It shares no code with the engine's ``cartesian_conj``, ``lift`` or
    ``full_space``."""
    def every(names):
        names = sorted(names)
        return {Point(tuple(zip(names, combo)))
                for combo in product(*(model.outcomes(n) for n in names))}

    def conj(left, right):
        return {m for a in left for b in right if (m := a.merge(b)) is not None}

    if isinstance(f, AtomNode):
        return {f.experiment}, {Point(((f.experiment, f.outcome),))}
    if isinstance(f, Not):
        names, points = reference_space(f.child, model)
        return names, every(names) - points
    (left_names, left), (right_names, right) = (
        reference_space(f.left, model), reference_space(f.right, model))
    if isinstance(f, ChoiceAnd):
        return left_names, left & right
    if isinstance(f, ChoiceOr):
        return left_names, left | right
    names = left_names | right_names
    if isinstance(f, ParAnd):
        return names, conj(left, right)
    return names, conj(left, every(names - left_names)) | conj(right, every(names - right_names))


def check_denotation(f, model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        try:
            space = denote(f, model)
        except ColprobError:
            return
    if isinstance(space, EventSpace):
        names, points = reference_space(f, model)
        assert space == EventSpace(frozenset(names), frozenset(points))


@DETERMINISTIC
@given(SMALL_FORMULAS)
@example(parse_formula("~(0@T || 1@R) && (H@c | T@c) && p"))
@example(parse_formula("(0@R && 1@T) || ~(H@c && 0@R)"))
def test_denote_agrees_with_pointwise_reference(f):
    check_denotation(f, SMALL_MODEL)


@DETERMINISTIC
@given(st.randoms(use_true_random=False))
def test_denote_agrees_with_pointwise_reference_on_random_dags(rng):
    model = random_dag_model(rng, max_experiments=6, max_outcomes=4, max_parents=3)
    check_denotation(random_query(rng, model, depth=4), model)


def verdict(run):
    """What ``run`` returns, or the type and message of its ColprobError."""
    try:
        return run()
    except ColprobError as err:
        return type(err), str(err)


@DETERMINISTIC
@given(SMALL_FORMULAS)
@example(parse_formula("0@T pgiven 1@R"))
@example(parse_formula("(0@R & 1@R) given (0@R & 1@R)"))
def test_explain_root_equals_prob(f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        explained = verdict(lambda: prob_explain(f, SMALL_MODEL)[0])
        assert explained == verdict(lambda: prob(f, SMALL_MODEL))


@DETERMINISTIC
@given(st.randoms(use_true_random=False))
def test_bayes_parallel_forms_agree_on_random_partitions(rng):
    # Cells over up to three experiments, overlapping now and then, and
    # evidence over one experiment or any: the same posteriors, or the
    # same error, from p(cell && F) as from p(cell) * p(F pgiven cell).
    model = (random_dag_model(rng) if rng.random() < 0.5 else
             random_model(rng, max_experiments=3, max_outcomes=4, edge_prob=0.8))
    cells, _ = draw_cells(rng, model, "parallel")
    evidence = random_formula(rng, model, 2, rng.choice([None, *sorted(model.experiments)]))
    joint = verdict(lambda: bayes_parallel(cells, evidence, model, "joint"))
    assert joint == verdict(lambda: bayes_parallel(cells, evidence, model, "prior-likelihood"))


WEIGHTS = [Fraction(k, 6) for k in range(7)]  # 0 and 1 among them


@st.composite
def noisy_or_models(draw):
    """A noisy-OR of 2 to 5 binary or 3-valued causes with a leak and
    inhibitors drawn from WEIGHTS, and, half the time, one cpt entry moved
    between the effect's outcomes, which as a rule leaves no column that
    factors. Returns the model and an atom of each cause."""
    causes = draw(st.integers(2, 5))
    priors, inhibitors = [], []
    for _ in range(causes):
        outcomes = draw(st.sampled_from([("true", "false"), ("0", "1", "2")]))
        cut = sorted(draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(outcomes) - 1,
                                   max_size=len(outcomes) - 1)))
        priors.append({o: b - a for o, a, b in zip(outcomes, [0, *cut], [*cut, 1])})
        inhibitors.append({o: draw(st.sampled_from(WEIGHTS)) for o in outcomes})
    leak = draw(st.sampled_from(WEIGHTS))
    moved = None
    if draw(st.booleans()):
        rows = list(product(*priors))
        k = draw(st.integers(0, len(rows) - 1))
        off = (1 - leak) * math.prod([inhibitors[i][o] for i, o in enumerate(rows[k])])
        moved = (k, off / 2 if off else Fraction(-1, 2))
    model = parse_model(noisy_or_model(priors, inhibitors, leak, moved))
    atoms = [f"{draw(st.sampled_from(sorted(p)))}@a{i}" for i, p in enumerate(priors)]
    return model, atoms


@DETERMINISTIC
@given(noisy_or_models(), st.data())
def test_noisy_or_models_agree_with_enumeration(case, data):
    model, atoms = case
    a = data.draw(st.sampled_from(atoms))
    e = data.draw(st.sampled_from(["true@e", "false@e"]))
    for text in (e, f"{a} pgiven {e}", f"{e} pgiven {a}", f"{a} && {e}", f"~({a} || {e})"):
        f = parse_formula(text)
        expected = answer(lambda: enumerate_prob(f, model))
        assert answer(lambda: prob(f, model)) == expected, text
        assert answer(lambda: prob_explain(f, model)[0]) == expected, text


@DETERMINISTIC
@given(st.randoms(use_true_random=False), st.booleans())
def test_gates_agree_with_rows_and_enumeration(rng, noisy):
    # The gate weigher, called directly, on random determined formulas:
    # over a random DAG, where atoms share experiments, have parents, sit
    # under ~, or name an experiment once and fold into their gate; or
    # over a noisy-OR whose effect's cpt enters in its per-cause form.
    # Each side's mass, and the conjunction's, equals the rows' and the
    # oracle's, and its count of points the space's; the conjunction's
    # right side gets its mass from the same elimination as the root.
    model = (parse_model(noisy_or(4)) if noisy
             else random_dag_model(rng, max_experiments=6, max_outcomes=3, max_parents=3))
    f = ParAnd(random_formula(rng, model, 3), random_formula(rng, model, 3))
    _, _, program = semantics._walk(f, model, None)
    if program is None:  # undetermined
        return
    run, start, _ = program
    split = start[-2]  # where the right side starts
    for part in (run, run[:split], run[split:-1]):
        expected = enumerate_prob(part[-1], model).value
        axes, rows = semantics._space(part, model)[0]
        weights, _, scale = evaluator._point_weights(axes, rows, model)
        assert Fraction(sum(weights), scale) == expected
        (weight,), scale = evaluator._gates(part, model)
        assert Fraction(weight, scale) == expected
        assert evaluator._counted(part, model) == (axes, len(rows))
    (joint, side), scale = evaluator._gates(run, model, right=True)
    assert Fraction(joint, scale) == enumerate_prob(f, model).value
    assert Fraction(side, scale) == enumerate_prob(f.right, model).value


def sides(g):
    """The two sides of a binary node: a conditional's event and condition."""
    if isinstance(g, (GivenAdd, GivenPar)):
        return g.event, g.condition
    return g.left, g.right


def reference_facts(f, model):
    """(node, support, closure) of every node of ``f``, in post-order, by a
    recursion that shares no code with the walk: each closure follows the
    parents of the node's experiments up to the roots."""
    out = []

    def closure(names):
        found, frontier = set(), list(names)
        while frontier:
            name = frontier.pop()
            if name not in found:
                found.add(name)
                frontier += model.experiments[name].parents
        return frozenset(found)

    def visit(g):
        if isinstance(g, AtomNode):
            names = frozenset([g.experiment])
        elif isinstance(g, Not):
            names = visit(g.child)
        else:
            left, right = sides(g)
            names = visit(left) | visit(right)
        out.append((g, names, closure(names)))
        return names

    visit(f)
    return out


def check_walk(f, model):
    """On a determined formula, the walk gives the root's support and
    closure, and its program lists the nodes in post-order, each with the
    start of its subtree, and holds exactly the indices of the ``&&``,
    ``||`` and root ``pgiven`` nodes, everywhere in the formula (under
    choice connectives too), whose sides have disjoint closures. A root
    conditional is its program's last node, over its event and condition,
    and a determined program holds no other conditional."""
    try:
        verdict, closure, program = semantics._walk(f, model, None)
    except ColprobError:
        return
    if not isinstance(verdict, frozenset):
        return
    nodes, start, independent = program
    expected = reference_facts(f, model)
    assert (verdict, closure) == expected[-1][1:]
    assert len(nodes) == len(start) == len(expected)
    assert all(g is h for g, (h, _, _) in zip(nodes, expected))
    for i, g in enumerate(nodes):  # each subtree starts where its first child's does
        if isinstance(g, AtomNode):
            assert start[i] == i
        elif isinstance(g, Not):
            assert nodes[i - 1] is g.child and start[i] == start[i - 1]
        else:
            left = start[i - 1] - 1
            first, second = sides(g)
            assert nodes[left] is first and nodes[i - 1] is second
            assert start[i] == start[left]
            assert i == len(nodes) - 1 or not isinstance(g, (GivenAdd, GivenPar))
    reference = {id(g): closure for g, _, closure in expected}
    assert independent == {
        i for i, (g, _, _) in enumerate(expected)
        if isinstance(g, (ParAnd, ParOr, GivenPar))
        and not reference[id(sides(g)[0])] & reference[id(sides(g)[1])]
    }


@DETERMINISTIC
@given(SMALL_FORMULAS)
@example(parse_formula("(0@R | 1@R) && ~(0@T || 0@R) && p"))
@example(parse_formula("~~(H@c & T@c) || 1@R pgiven (0@T && ~(0@R | 1@R))"))
@example(parse_formula("(1@R && H@c | 0@R && T@c) || ~(p & ~p) && 0@T"))
def test_walk_facts_agree_with_recursive_reference(f):
    check_walk(f, SMALL_MODEL)


@DETERMINISTIC
@given(st.randoms(use_true_random=False))
def test_walk_facts_agree_with_recursive_reference_on_random_dags(rng):
    model = random_dag_model(rng, max_experiments=6, max_outcomes=4, max_parents=3)
    check_walk(random_query(rng, model, depth=5), model)
