"""Seeded random models, formulas, ASTs, and spaces for the test suite.

Everything here is deterministic given the caller's random.Random instance;
the suites fix their seeds so failures reproduce exactly.
"""

import itertools
from fractions import Fraction
from functools import reduce

from colprob import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
    EvalError,
    EventSpace,
    ExperimentDecl,
    GivenAdd,
    GivenPar,
    Model,
    Not,
    ParAnd,
    ParOr,
    Partition,
    ancestral_closure,
    full_space,
    lift,
)


def rand_dist(rng, outcomes):
    weights = [rng.randint(0, 4) for _ in outcomes]
    if not any(weights):
        weights[rng.randrange(len(outcomes))] = 1
    total = sum(weights)
    return {o: Fraction(w, total) for o, w in zip(outcomes, weights)}


def random_model(rng, max_experiments=3, max_outcomes=6, edge_prob=0.5):
    """Up to ``max_experiments`` experiments, each with 2..max_outcomes
    outcomes and random exact weights; at most one parent edge."""
    n = rng.randint(1, max_experiments)
    names = [f"e{i}" for i in range(n)]
    edge = None
    if n >= 2 and rng.random() < edge_prob:
        child = rng.randrange(1, n)
        edge = (names[rng.randrange(child)], names[child])
    decls = {}
    for name in names:
        k = rng.randint(2, max_outcomes)
        outcomes = tuple(f"o{j}" for j in range(k))
        if edge and name == edge[1]:
            parent = edge[0]
            rows = {(po,): rand_dist(rng, outcomes) for po in decls[parent].outcomes}
            decls[name] = ExperimentDecl(name, outcomes, (parent,), rows)
        else:
            decls[name] = ExperimentDecl(name, outcomes, (), {(): rand_dist(rng, outcomes)})
    return Model(decls)


def random_dag_model(rng, max_experiments=6, max_outcomes=3, max_parents=3):
    """2..max_experiments experiments over a random DAG: each depends on up
    to ``max_parents`` earlier ones, so chains, forks and colliders occur
    and a query's support often leaves ancestors out. Rows carry random
    exact weights, zeros included; some zero entries are left out of the
    row, as a model file may omit them."""
    decls = {}
    for i in range(rng.randint(2, max_experiments)):
        name = f"e{i}"
        outcomes = tuple(f"o{j}" for j in range(rng.randint(2, max_outcomes)))
        parents = tuple(rng.sample(sorted(decls), rng.randint(0, min(max_parents, i))))
        rows = {}
        for key in itertools.product(*(decls[p].outcomes for p in parents)):
            dist = rand_dist(rng, outcomes)
            rows[key] = {o: w for o, w in dist.items() if w or rng.random() < 0.5}
        decls[name] = ExperimentDecl(name, outcomes, parents, rows)
    return Model(decls)


def random_atom(rng, model, experiment=None):
    name = experiment or rng.choice(sorted(model.experiments))
    return AtomNode(name, rng.choice(model.experiments[name].outcomes))


def random_formula(rng, model, depth, experiment=None):
    """Conditional-free formula of the given maximum depth.

    When ``experiment`` is set the whole subtree sticks to that experiment,
    which keeps choice connectives determined; otherwise choice operands
    are pinned to a common experiment most of the time and left free (and
    almost certainly undetermined) the rest.
    """
    if depth <= 0 or rng.random() < 0.25:
        return random_atom(rng, model, experiment)
    kind = rng.choice(("not", "cand", "cor", "pand", "por"))
    if kind == "not":
        return Not(random_formula(rng, model, depth - 1, experiment))
    if kind in ("cand", "cor"):
        exp = experiment
        if exp is None and rng.random() < 0.8:
            exp = rng.choice(sorted(model.experiments))
        left = random_formula(rng, model, depth - 1, exp)
        right = random_formula(rng, model, depth - 1, exp)
        return (ChoiceAnd if kind == "cand" else ChoiceOr)(left, right)
    left = random_formula(rng, model, depth - 1, experiment)
    right = random_formula(rng, model, depth - 1, experiment)
    return (ParAnd if kind == "pand" else ParOr)(left, right)


def random_query(rng, model, depth=5):
    """Like random_formula but occasionally wraps a root conditional."""
    r = rng.random()
    if r < 0.08:
        exp = rng.choice(sorted(model.experiments))
        return GivenAdd(
            random_formula(rng, model, depth - 1, exp),
            random_formula(rng, model, depth - 1, exp),
        )
    if r < 0.16:
        return GivenPar(
            random_formula(rng, model, depth - 1),
            random_formula(rng, model, depth - 1),
        )
    return random_formula(rng, model, depth)


# Lexemes that the grammar accepts and that cannot collide with keywords.
_OUTCOMES = ("H", "T", "0", "1", "6", "42", "true", "ok", "Xy", "o1")
_EXPERIMENTS = ("c", "d", "c1", "d2", "alien", "chan", "e0", "Big", "x_1")


def random_ast(rng, depth, conditionals=True):
    """Arbitrary formula AST for printer/parser round-trips; includes
    (parenthesized) nested conditionals when ``conditionals`` is set."""
    if depth <= 0 or rng.random() < 0.3:
        return AtomNode(rng.choice(_EXPERIMENTS), rng.choice(_OUTCOMES))
    kinds = ["not", "cand", "cor", "pand", "por"]
    if conditionals:
        kinds += ["given", "pgiven"]
    kind = rng.choice(kinds)
    left = random_ast(rng, depth - 1, conditionals)
    if kind == "not":
        return Not(left)
    right = random_ast(rng, depth - 1, conditionals)
    node = {
        "cand": ChoiceAnd,
        "cor": ChoiceOr,
        "pand": ParAnd,
        "por": ParOr,
        "given": GivenAdd,
        "pgiven": GivenPar,
    }[kind]
    return node(left, right)


def mentioned(f):
    """The experiments that the atoms of ``f`` name."""
    if isinstance(f, AtomNode):
        return {f.experiment}
    if isinstance(f, Not):
        return mentioned(f.child)
    if isinstance(f, (GivenAdd, GivenPar)):
        return mentioned(f.event) | mentioned(f.condition)
    return mentioned(f.left) | mentioned(f.right)


def random_space(rng, model, max_support=3):
    """Random nonempty event space over a random support of the model."""
    names = sorted(model.experiments)
    k = rng.randint(1, min(max_support, len(names)))
    support = rng.sample(names, k)
    pts = sorted(full_space(model, support).points, key=lambda p: p.items)
    chosen = rng.sample(pts, rng.randint(1, len(pts)))
    return EventSpace(frozenset(support), frozenset(chosen))


def joint_point_prob(model, assignment):
    """Exact probability of one full assignment over an ancestrally closed
    domain: the product of each experiment's cpt entry given its parents.
    The tests' reference for ``space_prob`` and the oracle."""
    for name in assignment:
        for p in model.decl(name).parents:
            if p not in assignment:
                raise EvalError(
                    f"assignment domain is not ancestrally closed: "
                    f"'{name}' depends on '{p}', which is missing"
                )
    prob = Fraction(1)
    for name, outcome in assignment.items():
        decl = model.decl(name)
        if outcome not in decl.outcomes:
            raise EvalError(f"unknown outcome '{outcome}' of experiment '{name}'")
        row = decl.cpt[tuple(assignment[p] for p in decl.parents)]
        prob *= row.get(outcome, Fraction(0))
    return prob


def lift_and_sum(space, model):
    """The definition space_prob computes: lift the space to the ancestral
    closure of its support and sum every lifted point's joint probability."""
    closure = ancestral_closure(model, space.support)
    return sum(
        (joint_point_prob(model, p.as_dict()) for p in lift(space, closure, model).points),
        start=Fraction(0),
    )


def child_first_chain(n):
    """Model-file text of an n-node binary Markov chain x0 → … → x{n-1},
    declared child first, so every parent follows its child."""
    lines = []
    for i in range(n - 1, 0, -1):
        lines.append(f"experiment x{i} : 0, 1 depends x{i - 1}")
        lines += [f"cpt {o} | x{i - 1}={p} = 1/2" for p in "01" for o in "01"]
    lines.append("experiment x0 : 0, 1")
    return "\n".join(lines) + "\n"


def noisy_or(n):
    """Model-file text of an n-cause noisy-OR: predicates a_i with
    p(a_i) = 1/(i+2), and an effect e that each present cause a_i triggers
    with probability (i+1)/(i+3), plus a leak of 1/20."""
    causes = [f"a{i}" for i in range(n)]
    lines = [f"predicate a{i} = 1/{i + 2}" for i in range(n)]
    lines.append(f"experiment e : true, false depends {', '.join(causes)}")
    for row in itertools.product(("true", "false"), repeat=n):
        off = Fraction(19, 20)
        for i, o in enumerate(row):
            off *= Fraction(2, i + 3) if o == "true" else 1
        given = ", ".join(f"{c}={o}" for c, o in zip(causes, row))
        lines += [f"cpt true | {given} = {1 - off}", f"cpt false | {given} = {off}"]
    return "\n".join(lines) + "\n"


def noisy_or_model(priors, inhibitors, leak, moved=None):
    """Model-file text of a noisy-OR over causes a0, a1, …: cause a_i has
    the outcomes and weights of ``priors[i]`` (a dict), and the effect e,
    over true and false, is false with probability (1 - leak) times, per
    cause, ``inhibitors[i]`` at its outcome. ``moved``, a pair (row, w),
    moves the weight w from false to true in that row of the cpt (w < 0
    moves it back), which as a rule leaves no column that factors."""
    causes = [f"a{i}" for i in range(len(priors))]
    lines = [f"experiment {c} : " + ", ".join(f"{o}={w}" for o, w in dist.items())
             for c, dist in zip(causes, priors)]
    lines.append(f"experiment e : true, false depends {', '.join(causes)}")
    for k, row in enumerate(itertools.product(*priors)):
        off = 1 - Fraction(leak)
        for i, o in enumerate(row):
            off *= inhibitors[i][o]
        if moved is not None and moved[0] == k:
            off -= moved[1]
        given = ", ".join(f"{c}={o}" for c, o in zip(causes, row))
        lines += [f"cpt true | {given} = {1 - off}", f"cpt false | {given} = {off}"]
    return "\n".join(lines) + "\n"


def noisy_channel(bits):
    """Model-file text of a ``bits``-bit noisy channel: transmitted bits
    t_i with p(t_i=0) = (i+1)/10, each received as r_i and flipped with
    probability 1/(i+3). Returns the text, the priors and the flips."""
    priors = [Fraction(i + 1, 10) for i in range(bits)]
    flips = [Fraction(1, i + 3) for i in range(bits)]
    lines = []
    for i, (p, e) in enumerate(zip(priors, flips)):
        lines += [
            f"experiment t{i} : 0={p}, 1={1 - p}",
            f"experiment r{i} : 0, 1 depends t{i}",
            f"cpt 0 | t{i}=0 = {1 - e}",
            f"cpt 1 | t{i}=0 = {e}",
            f"cpt 0 | t{i}=1 = {e}",
            f"cpt 1 | t{i}=1 = {1 - e}",
        ]
    return "\n".join(lines) + "\n", priors, flips


def draw_cells(rng, model, variant):
    """Cells over a few experiments, each a set of full assignments of them
    (an atom under the additive variant). The groups start as a partition of
    every assignment, then points are dropped, copied into a second cell or
    widened to a partial assignment, so overlaps occur, zero-weight ones too.
    Returns the cells and their point sets."""
    names = sorted(model.experiments)
    if variant == "additive":
        chosen = [rng.choice(names)]
    else:
        chosen = rng.sample(names, rng.randint(1, min(3, len(names))))
    points = list(itertools.product(*(
        [(e, o) for o in model.experiments[e].outcomes] for e in chosen
    )))
    rng.shuffle(points)
    k = rng.randint(2, min(6, len(points)))
    groups = [[pt] for pt in points[:k]]
    for pt in points[k:]:
        rng.choice(groups).append(pt)
    if rng.random() < 0.3:
        group = rng.choice(groups)
        if len(group) > 1:
            group.pop()
    if rng.random() < 0.5:
        pt = rng.choice(points)
        rng.choice([g for g in groups if pt not in g]).append(pt)
    join = ChoiceOr if variant == "additive" else ParOr
    cells, sets = [], []
    for group in groups:
        terms = [list(pt) for pt in group]
        if len(chosen) > 1 and rng.random() < 0.2:
            del terms[0][rng.randrange(len(chosen))]  # a partial assignment
        covered = {
            pt for pt in points if any(set(t) <= set(pt) for t in terms)
        }
        atoms = [reduce(ParAnd, (AtomNode(e, o) for e, o in t)) for t in terms]
        cells.append(reduce(join, atoms))
        sets.append(covered)
    return Partition(tuple(cells)), sets


def _rows(child, parent, parent_outcomes, dist):
    """cpt lines giving ``child`` the distribution ``dist(p)`` (outcome to
    weight text, zero weights omitted) under each outcome p of ``parent``."""
    return [f"cpt {o} | {parent}={p} = {w}"
            for p in parent_outcomes for o, w in dist(p).items()]


_WIDE = [f"o{i}" for i in range(300)]

# Models whose cpts scale to integers over awkward denominators, each with
# queries that sum ancestors out. Each value is (model-file text, queries).
SCALING_MODELS = {
    # lcms 3, 7 and 1000003 (a prime): pairwise coprime, one of them large
    "coprime": ("\n".join(
        ["experiment a : x=1/3, y=2/3", "experiment b : 0, 1 depends a"]
        + _rows("b", "a", "xy", lambda p: {"0": "2/7", "1": "5/7"} if p == "x"
                else {"0": "6/7", "1": "1/7"})
        + ["experiment c : 0, 1 depends b"]
        + _rows("c", "b", "01", lambda p: {"0": "999999/1000003", "1": "4/1000003"}
                if p == "0" else {"0": "1/1000003", "1": "1000002/1000003"})
    ) + "\n", ["0@c", "1@c", "x@a pgiven 1@c", "1@b && 0@c", "1@c pgiven y@a",
               "(0@b || 1@c) && x@a"]),
    # rows of one cpt over different denominators: 7 / 1000003 and 11 / 13
    "mixed-rows": ("\n".join(
        ["experiment a : x=1/3, y=2/3", "experiment b : 0, 1 depends a"]
        + _rows("b", "a", "xy", lambda p: {"0": "2/7", "1": "5/7"} if p == "x"
                else {"0": "999999/1000003", "1": "4/1000003"})
        + ["experiment c : u, v depends b"]
        + _rows("c", "b", "01", lambda p: {"u": "1/11", "v": "10/11"} if p == "0"
                else {"u": "6/13", "v": "7/13"})
    ) + "\n", ["u@c", "v@c", "x@a pgiven u@c", "u@c pgiven 1@b", "(0@b | 1@b) && v@c"]),
    # rows that omit an outcome, which then weighs 0
    "omitted": ("\n".join(
        ["experiment a : x=1/2, y=1/2", "experiment b : 0, 1, 2 depends a"]
        + _rows("b", "a", "xy", lambda p: {"0": "1/3", "1": "2/3"} if p == "x"
                else {"2": "1"})
        + ["experiment c : u, v, w depends b"]
        + _rows("c", "b", "012", lambda p: {"u": "1/5", "v": "4/5"} if p != "2"
                else {"w": "3/4", "u": "1/4"})
    ) + "\n", ["w@c", "v@c", "2@b pgiven w@c", "x@a pgiven v@c", "~u@c && x@a", "2@b"]),
    # a 300-outcome experiment between a root and a binary child
    "wide": ("\n".join(
        ["experiment t : 0=1/3, 1=2/3", f"experiment w : {', '.join(_WIDE)} depends t"]
        + _rows("w", "t", "01", lambda p: {o: f"{i + 1}/45150" for i, o in enumerate(_WIDE)}
                if p == "0" else {o: "1/300" for o in _WIDE})
        + ["experiment r : 0, 1 depends w"]
        + _rows("r", "w", _WIDE, lambda p: {"0": f"1/{int(p[1:]) % 7 + 2}",
                                            "1": f"{int(p[1:]) % 7 + 1}/{int(p[1:]) % 7 + 2}"})
    ) + "\n", ["0@r", "o299@w pgiven 0@r", "0@r pgiven 1@t", "1@t pgiven 1@r",
               "(o0@w | o150@w) && 1@r"]),
}
