"""Probability evaluation over a model, with an optional derivation.

The rules rewrite a query top-down:

    R1  p(~E)     = 1 - p(E)
    R2  p(E | F)  = p(E) + p(F) - p(E & F)        (equal supports)
    R3  p(E & F)  = p(F) * p(E given F)           (equal supports)
    R4  p(E || F) = 1 - p(~E && ~F)
    R5  p(E && F) = p(E) * p(F) under independence,
                    else p(F) * p(E pgiven F)

A conditional, legal only at the root, is the ratio of its joint,
``E & F`` or ``E && F``, to its condition. Each mechanism has one owner:

  * ``semantics._walk``: the verdict, decided once per query, and the
    query's one program, which marks the ``&&``, ``||`` and root
    ``pgiven`` whose sides have disjoint ancestral closures;
  * ``_value``: the rules, as two loops over the program (no recursion);
    a node that no rule computes from its sides' steps is weighed by
    ``_weigh``, and so, ahead of the loops, is a root conditional's
    joint, with its condition when no rule decides that, from one
    elimination;
  * ``_by_gates``: the one cost function that picks how ``_weigh``
    weighs a run: as rows, the event spaces that ``semantics._space``
    folds, or as gates;
  * ``_point_weights``: the exact weights of a space's rows, by variable
    elimination over dense integer cpt tables (``_cpts``, ``_cut``,
    ``_eliminate``, ``_sum_out``, ``_place``, ``_read_off``); ``_weighed``
    and ``space_prob`` sum one space's, ``_masses`` a batch's for the
    Bayes rules;
  * ``_gates``: a run's mass as a weighted model count (Tseitin 1968;
    Chavira & Darwiche 2008): one ``_eliminate`` over the closure's cpt
    factors and one 0/1 factor per node of the run (``_gate_form``), in
    a greedy smallest-table order (``_order``), so a wide node costs no
    space of its outcome combinations;
  * ``prob_explain``: the same loops, recording each step as a
    ``Derivation`` (``_read``, ``_independence``, ``_one_minus``, ``_node``)
    that ``render_derivation`` prints; a record, not a second engine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from math import prod
from operator import add, mul
from typing import Callable, Collection, Iterable, Iterator

from ._record import Record
from .errors import EvalError, NullConditionError
from .formula import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
    Formula,
    GivenAdd,
    GivenPar,
    Not,
    ParAnd,
    ParOr,
    format_formula,
)
from .model import Model, ancestral_closure, parents_first
from .semantics import (
    EventSpace,
    Undetermined,
    _conj,
    _encode,
    _Program,
    _Space,
    _space,
    _walk,
    _warn_shared,
    format_support,
)


class Determined(Record):
    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", value)


ProbResult = Determined | Undetermined


class Derivation(Record):
    """One node of the explanation tree.

    ``rule`` is "R1".."R5" for the rewrite rules, "cpt" for atomic lookups,
    or "enumeration" for the event-space fallback. The root's result always
    equals ``prob`` of the same formula.
    """

    def __init__(self, rule: str, formula: str, result: ProbResult,
                 children: tuple[Derivation, ...] = (), note: str = ""):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "note", note)


def space_prob(space: EventSpace, model: Model) -> Fraction:
    """Exact probability mass of a space, by variable elimination: the sum
    of its points' weights (``_point_weights``) over their common scale.
    This equals summing the joint probability of every point of the space
    lifted to the ancestral closure of its support. An outcome that the
    model does not declare is an EvalError naming the first, in sorted
    order."""
    axes, rows = encoded = _encode(space)
    for name, column in zip(axes, zip(*rows)):
        unknown = set(column).difference(model.outcomes(name))
        if unknown:
            raise EvalError(f"unknown outcome '{min(unknown)}' of experiment '{name}'")
    return _weighed(encoded, model)[1]


def _weighed(space: _Space, model: Model) -> tuple[_Space, Fraction]:
    """``space``, in the engine's form, and its mass."""
    weights, _, scale = _point_weights(*space, model)
    return space, Fraction(sum(weights), scale)


def _masses(spaces: list[_Space], model: Model) -> list[Fraction]:
    """The mass of each of ``spaces``, from one elimination per
    distinct support: the rows of every space over that support are
    weighed at once, and each space sums its own."""
    distinct: dict[tuple[str, ...], dict[tuple[str, ...], None]] = {}
    for axes, rows in spaces:
        distinct.setdefault(axes, {}).update(dict.fromkeys(rows))
    tables = {}
    for axes, rows in distinct.items():
        weights, _, scale = _point_weights(axes, rows.keys(), model)
        tables[axes] = dict(zip(rows, weights)).__getitem__, scale
    masses = []
    for axes, rows in spaces:
        weight, scale = tables[axes]
        masses.append(Fraction(sum(map(weight, rows)), scale))
    return masses


# A factor: the axes it ranges over, and its integer values, flat in
# row-major order over them (the last fastest). An axis is an experiment,
# running over its outcomes in sorted order (``ExperimentDecl._scaled``)
# or over the ones a cut keeps, or the auxiliary axis of a noisy-OR's
# per-cause form, named by the 1-tuple of its effect's name, which no
# experiment name can equal, or a gate of a gate form (``_gate_form``),
# named by its node's index. An axis of one outcome is left out, so a
# factor over no axis is one number.
_Axis = str | tuple[str] | int
_Factor = tuple[tuple[_Axis, ...], list[int]]


def _point_weights(
    axes: tuple[str, ...], rows: Collection[tuple[str, ...]], model: Model,
    condition: _Space | None = None,
) -> tuple[Iterator[int], Iterator[int] | None, int]:
    """The marginal probability of each of ``rows`` (distinct points over
    the sorted support ``axes``, as tuples of outcomes aligned with it), as
    integers in the order ``rows`` iterates, over one common scale; and,
    given a ``condition``, the same for its rows (else None), from the
    same elimination.

    Every experiment in the ancestral closure of the support contributes
    its cpt as a factor: the decl's flat integer table, scaled by the lcm
    of the cpt's denominators (compiled once, at its first query). When
    the closure is the support, each point is read off those tables.
    Otherwise each support experiment's axis is first cut down to the
    outcomes the points use (``_cut``), the closure experiments outside
    the support are summed out (``_eliminate``), and each point weighs the
    product of the remaining tables at its positions on the cut axes. A
    noisy-OR cpt that the decl compiled to per-cause factors enters the
    elimination as those factors, with its auxiliary axis ordered after
    its parents and before its effect, so that summing out a cause costs
    that cause's own entries. The arithmetic is on integers throughout;
    the scale is the product of the lcms, and of the per-cause forms'
    factors.

    A condition is a space over a subset C of the support that holds
    every row's projection onto C: a root conditional's condition beside
    its joint. The cuts then follow the condition's rows on C and keep
    every outcome on the rest of the support, which the condition's mass
    sums over. After the rows are read off, the support's axes outside C
    are summed out of the same factors, and the condition's rows are
    read off what remains.
    """
    if any([model.decl(name).parents for name in axes]):
        closure = parents_first(model, axes)
    else:  # the support is its own closure, parents-first in any order
        closure = list(axes)
    whole = len(closure) == len(axes)  # nothing to sum out: read the full tables
    factors, sizes, positions, scale = _cpts(model, closure, not whole)
    if len(factors) > len(closure):  # per-cause forms: each auxiliary axis is
        # eliminated after its parents, before its effect
        for aux in [(name,) for name in closure if (name,) in sizes]:
            closure.insert(closure.index(aux[0]), aux)
    c_axes, c_rows = condition or (axes, rows)
    if not c_rows:  # nor, then, has ``rows`` any row
        return iter(()), None if condition is None else iter(()), scale
    columns = {}  # each row's position on each axis that factors keep
    if condition is None:  # the rows are their own condition
        c_columns, outcomes, c_outcomes = columns, {}, zip(axes, zip(*rows))
    else:  # the rows, by axis, and the condition's
        c_columns, outcomes = {}, dict(zip(axes, zip(*rows) if rows else repeat(())))
        c_outcomes = zip(c_axes, zip(*c_rows))
    if whole:
        for name, column in c_outcomes:
            c_columns[name] = list(map(positions[name].__getitem__, column))
        for name, column in outcomes.items():
            columns[name] = list(map(positions[name].__getitem__, column))
    else:
        # The positions each cut axis keeps: the outcomes the condition's
        # rows use, or the one outcome of an experiment that has no other.
        # The support's axes outside C keep every outcome.
        cuts = {name: [0] for name, n in sizes.items() if n == 1}
        for name, column in c_outcomes:
            used = sorted(set(column), key=positions[name].__getitem__)
            keep = list(map(positions[name].__getitem__, used))
            if len(keep) < sizes[name]:
                cuts[name] = keep
            if len(keep) > 1:
                local = dict(zip(used, range(len(used))))
                c_columns[name] = list(map(local.__getitem__, column))
                if condition is not None:
                    columns[name] = list(map(local.__getitem__, outcomes[name]))
        for name, column in outcomes.items():
            if name not in c_axes and name not in cuts:
                columns[name] = list(map(positions[name].__getitem__, column))
        factors = [_cut(f, sizes, cuts) if any(map(cuts.__contains__, f[0])) else f
                   for f in factors]
        sizes.update((name, len(keep)) for name, keep in cuts.items())
        factors = _eliminate(frozenset(axes), closure, factors, sizes)
    weights = _read_off(factors, columns, sizes, len(rows))
    if condition is None:
        return weights, None, scale
    if c_axes != axes:
        factors = _eliminate(frozenset(c_axes), [n for n in closure if n in outcomes],
                             factors, sizes)
    return weights, _read_off(factors, c_columns, sizes, len(c_rows)), scale


def _cpts(model: Model, names: Iterable[str], per_cause: bool
          ) -> tuple[list[_Factor], dict[_Axis, int], dict[str, dict[str, int]], int]:
    """The cpts of ``names`` as factors, their axes' sizes, each
    experiment's outcome positions, and the scale the factors carry: each
    decl's integer table or, given ``per_cause`` and a per-cause form,
    that form's factors over its auxiliary axis."""
    factors: list[_Factor] = []
    sizes: dict[_Axis, int] = {}
    positions: dict[str, dict[str, int]] = {}
    scale = 1
    for name in names:
        decl = model.decl(name)
        table, lcm, positions[name], form = decl._scaled
        sizes[name] = len(positions[name])
        scale *= lcm
        if form is None or not per_cause:
            factors.append((decl.parents + (name,), table))
        else:
            causes, delta, factor = form
            aux = (name,)
            sizes[aux] = 2
            scale *= factor
            factors += [((p, aux), t) for p, t in zip(decl.parents, causes)]
            factors.append(((aux, name), delta))
    return factors, sizes, positions, scale


def _cut(factor: _Factor, sizes: dict[_Axis, int], cuts: dict[str, list[int]]) -> _Factor:
    """``factor`` with each axis in ``cuts`` cut down to the positions it
    keeps, outermost first, which leaves the strides of the axes inside it
    as they were; an axis left with one position is dropped. An innermost
    axis cut to one position is one extended slice, any other axis a list
    of slices."""
    scope, table = factor
    stride = len(table)
    for name in scope:
        size = sizes[name]
        stride //= size  # the product of the sizes inside this axis
        keep = cuts.get(name)
        if keep is None:
            continue
        if stride == 1 and len(keep) == 1:
            table = table[keep[0]::size]
            continue
        starts = [block + k * stride for block in range(0, len(table), size * stride)
                  for k in keep]
        table = list(chain.from_iterable([table[i:i + stride] for i in starts]))
    kept = tuple([name for name in scope if name not in cuts or len(cuts[name]) > 1])
    return kept, table


def _eliminate(
    support: frozenset[str], axes: list[_Axis], factors: list[_Factor], sizes: dict[_Axis, int]
) -> list[_Factor]:
    """Sum the axes of ``axes`` (in elimination order: parents first, or
    ``_order``'s) that are outside the support out of ``factors``, in that
    order; returns the factors over the support's axes only: experiments,
    or the gates a gate form keeps."""
    order = [name for name in axes if name not in support]
    rank = {name: i for i, name in enumerate(order)}
    buckets: list[list[_Factor]] = [[] for _ in order]
    remaining: list[_Factor] = []

    def place(factor: _Factor) -> None:
        # under the first experiment of its scope to be eliminated, if any
        first = [rank[v] for v in factor[0] if v in rank]
        (buckets[min(first)] if first else remaining).append(factor)

    for factor in factors:
        place(factor)
    for name, bucket in zip(order, buckets):
        if bucket:  # empty only for an experiment of one outcome, which no scope lists
            place(_sum_out(name, bucket, sizes))
    return remaining


def _sum_out(name: _Axis, factors: list[_Factor], sizes: dict[_Axis, int]) -> _Factor:
    """Multiply the factors that mention ``name`` and sum it out of them.

    The product runs over ``name`` outermost, then the other experiments
    in the order of the largest factor, so that a factor already in that
    order is used as it is, and any other is placed by one gather; the
    factors over ``name`` alone weigh its blocks. Summing ``name`` out
    adds up the weighted blocks, or, when a block has no more entries than
    there are blocks, takes one dot product per entry instead, which
    keeps a chain's two-entry steps cheap."""
    weights = None  # the product of the factors over ``name`` alone
    tables = []
    for scope, table in factors:
        if len(scope) == 1:
            weights = table if weights is None else list(map(mul, weights, table))
        else:
            tables.append((scope, table))
    if not tables:
        return (), [sum(weights)]
    tables.sort(key=lambda factor: len(factor[1]), reverse=True)
    largest = tables[0][0]
    rest = largest[1:] if largest[0] == name else tuple([v for v in largest if v != name])
    for scope, _ in tables[1:]:
        rest += tuple([v for v in scope if v != name and v not in rest])
    joint = (name,) + rest
    product = None
    for scope, table in tables:
        if scope != joint:
            table = _place(scope, table, joint, sizes)
        product = table if product is None else list(map(mul, product, table))
    count = sizes[name]
    size = len(product) // count  # the entries of each block
    if size <= count:  # no more entries than blocks: a dot product per entry
        columns = [product[i::size] for i in range(size)]
        if weights is None:
            return rest, list(map(sum, columns))
        return rest, [sum(map(mul, weights, column)) for column in columns]
    blocks = [product[i:i + size] for i in range(0, len(product), size)]
    if weights is not None:
        blocks = [map(mul, block, repeat(w)) for block, w in zip(blocks, weights)]
    total = blocks[0]
    for block in blocks[1:]:
        total = list(map(add, total, block))
    return rest, total


def _place(
    scope: tuple[_Axis, ...], table: list[int], joint: tuple[_Axis, ...], sizes: dict[_Axis, int]
) -> list[int]:
    """``table``, over ``scope``, at every position of ``joint``, which
    holds every experiment of ``scope``, in row-major order. The index
    vector is built by one comprehension per axis of ``joint``."""
    strides = {}
    stride = 1
    for name in reversed(scope):
        strides[name] = stride
        stride *= sizes[name]
    index = [0]
    for name in joint:
        stride = strides.get(name, 0)
        steps = range(0, sizes[name] * stride, stride) if stride else [0] * sizes[name]
        index = [i + k for i in index for k in steps]
    return list(map(table.__getitem__, index))


def _read_off(
    factors: list[_Factor], columns: dict[_Axis, list[int]], sizes: dict[_Axis, int], count: int
) -> Iterator[int]:
    """Each of ``count`` points' product of ``factors``, which range over
    support axes only; ``columns`` holds each point's position on every
    such axis."""
    weights: Iterator[int] | None = None
    for scope, table in factors:
        if not scope:
            values = repeat(table[0], count)
        else:
            index: Iterable[int] = columns[scope[0]]
            for name in scope[1:]:  # row-major: outer position * size + inner
                index = map(add, map(mul, index, repeat(sizes[name])), columns[name])
            values = map(table.__getitem__, index)
        weights = values if weights is None else map(mul, weights, values)
    return repeat(1, count) if weights is None else weights


# The truth table of a binary gate over (left, right, own), flat, for a
# conjunction or a disjunction (``either``) and the position at which each
# side holds: own is 1 exactly where the connective of the sides holds.
_GATES = {
    (either, hl, hr): [int(((a == hl) or (b == hr) if either else (a == hl) and (b == hr)) == g)
                       for a in (0, 1) for b in (0, 1) for g in (0, 1)]
    for either in (False, True) for hl in (0, 1) for hr in (0, 1)
}


def _gate_form(run: list[Formula], model: Model, weighted: bool, right: bool
               ) -> tuple[list[_Factor], dict[_Axis, int], int, list[_Literal]]:
    """The run's formula as factors whose product, summed over every
    axis but the root's gate, is p(root) at the position where the root
    holds and p(not root) at the other: its factors, their axes' sizes,
    the scale, and the literals of the root and, given ``right``, of the
    right side of the root, which is then binary.

    Each node gets a gate axis of two positions, named by its index in
    the run, which no other axis name can equal: an atom's factor is its
    indicator over (experiment, gate), a binary node's its truth table
    over its sides' gates and its own (``_GATES``). A ``~`` gets no axis:
    its literal is its child's gate at the other position. Weighted, the
    closure's cpts enter as ``_point_weights``' do, with every per-cause
    form used; but an experiment that one atom names, that no closure
    experiment has as a parent and whose cpt has no per-cause form is
    summed into that atom's factor at once, which ranges over its
    parents and its gate. Without parents, that factor is the atom's
    weights alone, and such a literal stays closed: a binary node over
    two closed sides takes its weights from theirs, and one over a
    closed side sums that side into its table, so neither adds an axis;
    the sides of the root are opened when ``right`` asks for one. Unweighted,
    there are no cpts, nothing is folded, and the sum counts the
    support's points where the root holds.
    """
    counts: dict[str, int] = {}
    for node in run:
        if type(node) is AtomNode:
            counts[node.experiment] = counts.get(node.experiment, 0) + 1
    folded = set()
    if weighted:
        closure = ancestral_closure(model, counts)
        parents = {p for name in closure for p in model.decl(name).parents}
        folded = {name for name in closure if counts.get(name) == 1 and name not in parents
                  and model.decl(name)._scaled[3] is None}
        factors, sizes, _, scale = _cpts(model, closure - folded, True)
    else:
        factors, sizes, scale = [], {}, 1
    literals: list[_Literal] = []
    last = len(run) - 1
    for j, node in enumerate(run):
        kind = type(node)
        if kind is Not:
            gate, holds, weights = literals[-1]
            literals[-1] = gate, 1 - holds, weights
            continue
        if kind is AtomNode:
            decl = model.decl(node.experiment)
            table, lcm, positions, _ = decl._scaled
            at, size = positions[node.outcome], len(positions)
            if node.experiment in folded:  # each parent row: its mass off and on the outcome
                scale *= lcm
                gate = []
                for block in range(0, len(table), size):
                    w = table[block + at]
                    gate += (sum(table[block:block + size]) - w, w)
                if not decl.parents:
                    literals.append((j, 1, gate))
                    continue
                factors.append((decl.parents + (j,), gate))
            else:
                sizes[node.experiment] = size
                gate = [1, 0] * size
                gate[2 * at:2 * at + 2] = 0, 1
                factors.append(((node.experiment, j), gate))
            sizes[j] = 2
            literals.append((j, 1, None))
            continue
        (b, hb, wb), (a, ha, wa) = literals.pop(), literals.pop()
        if right and j == last:  # both sides keep an axis
            for gate, weights in ((a, wa), (b, wb)):
                if weights is not None:
                    sizes[gate] = 2
                    factors.append(((gate,), weights))
            wa = wb = None
        table = _GATES[kind is ParOr or kind is ChoiceOr, ha, hb]  # at 4a + 2b + g
        if wa is not None and wb is not None:
            weights = [sum([wa[x] * wb[y] * table[4 * x + 2 * y + g]
                            for x in (0, 1) for y in (0, 1)]) for g in (0, 1)]
            literals.append((j, 1, weights))
            continue
        if wa is not None:  # the left side summed in: over (b, gate)
            factors.append(((b, j), [wa[0] * table[k] + wa[1] * table[4 + k] for k in range(4)]))
        elif wb is not None:  # the right side summed in: over (a, gate)
            factors.append(((a, j), [wb[0] * table[k] + wb[1] * table[k + 2]
                                     for k in (0, 1, 4, 5)]))
        else:
            factors.append(((a, b, j), table))
        sizes[j] = 2
        literals.append((j, 1, None))
    return factors, sizes, scale, literals + ([(b, hb, wb)] if right else [])


# A node's literal in the gate form: its gate axis, the position at which
# the node holds, and, for a closed literal, its weights by position.
_Literal = tuple[int, int, list[int] | None]


def _gates(run: list[Formula], model: Model, right: bool = False, weighted: bool = True
           ) -> tuple[list[int], int]:
    """The weight of the run's root and, given ``right``, of its right
    side, as integers over one scale, from one elimination of the gate
    form (``_gate_form``): every axis is summed out but the gates kept,
    in ``_order``'s order. Unweighted, the root's weight is its number of
    points over the support."""
    factors, sizes, scale, keep = _gate_form(run, model, weighted, right)
    (a, ha, weights), *rest = keep
    if weights is not None:  # closed: no axis to sum
        return [weights[ha]], scale
    kept = frozenset([gate for gate, _, _ in keep])
    factors = _eliminate(kept, _order(factors, sizes, kept), factors, sizes)
    if not right:
        return [next(_read_off(factors, {a: [ha]}, sizes, 1))], scale
    (c, hc, _), = rest
    both, root_only, right_only = _read_off(
        factors, {a: [ha, ha, 1 - ha], c: [hc, 1 - hc, hc]}, sizes, 3)
    return [both + root_only, both + right_only], scale


def _order(factors: list[_Factor], sizes: dict[_Axis, int], keep: frozenset) -> list[_Axis]:
    """Every axis of ``factors`` outside ``keep``, in a greedy elimination
    order: next, the axis whose sum builds the smallest table, the product
    of its size and its neighbours' (the axes that share a factor with it,
    as the sums so far have joined them). A heap holds the candidates; an
    entry whose table has grown since it went in goes back at its size."""
    neighbours: dict[_Axis, set[_Axis]] = {}
    for scope, _ in factors:
        for name in scope:
            neighbours.setdefault(name, set()).update(scope)

    def width(name: _Axis) -> int:
        return prod(map(sizes.__getitem__, neighbours[name]))

    heap = [(width(name), i, name) for i, name in enumerate(neighbours) if name not in keep]
    heapify(heap)
    serial = len(neighbours)
    order = []
    while heap:
        size, _, name = heappop(heap)
        if name not in neighbours:
            continue
        now = width(name)
        if now > size:
            heappush(heap, (now, serial, name))
            serial += 1
            continue
        order.append(name)
        joined = neighbours.pop(name)
        joined.discard(name)
        for other in joined:
            around = neighbours[other]
            around |= joined
            around.discard(name)
            if other not in keep:
                heappush(heap, (width(other), serial, other))
                serial += 1
    return order


def prob(f: Formula, model: Model) -> ProbResult:
    """p(f): Determined(exact rational in [0, 1]) or Undetermined."""
    return _evaluate(f, model, False, set())[0]


def cond_additive(event: Formula, condition: Formula, model: Model) -> ProbResult:
    """p(event given condition) = p(event & condition) / p(condition),
    defined only when both sides share one support."""
    return _evaluate(GivenAdd(event, condition), model, False, set())[0]


def cond_parallel(event: Formula, condition: Formula, model: Model) -> ProbResult:
    """p(event pgiven condition) = p(event && condition) / p(condition).

    No support restriction; for experiments with no shared ancestry this
    collapses to p(event).
    """
    return _evaluate(GivenPar(event, condition), model, False, set())[0]


def prob_explain(f: Formula, model: Model) -> tuple[ProbResult, Derivation]:
    """Evaluate ``f`` while recording the rule applied at every step.

    The returned result is exactly the value ``prob`` gives: both run the
    same loops, and the tree is their record, not an alternative answer.
    """
    return _evaluate(f, model, True, set())


_RULE = {
    AtomNode: "cpt",
    Not: "R1",
    ChoiceOr: "R2",
    ChoiceAnd: "R3",
    ParOr: "R4",
    ParAnd: "R5",
    GivenAdd: "R3",
    GivenPar: "R5",
}

_Step = tuple[ProbResult, "Derivation | None"]


def _evaluate(f: Formula, model: Model, explain: bool, shared: set[str] | None) -> _Step:
    """p(f), with its Derivation when ``explain`` is set (else None).
    Given a set ``shared``, a determined ``f`` warns once, before it is
    evaluated, naming the non-predicate experiments shared by its
    parallel connectives or by a root ``pgiven``'s event and condition.
    The warning points at the line that called this function's caller, so
    each public entry point calls it directly."""
    # raises on unknown atoms and nested conditionals
    verdict, _, program = _walk(f, model, shared)
    if isinstance(verdict, Undetermined):
        return verdict, _undetermined(f, verdict) if explain else None
    _warn_shared(shared, stacklevel=3)
    return _value(program, model, explain)


def _undetermined(f: Formula, verdict: Undetermined) -> Derivation:
    """The verdict as one R1 node per leading ``~`` over a leaf, built from
    the leaf up, so a deep formula costs no Python frames."""
    nots = []
    while isinstance(f, Not):
        nots.append(f)
        f = f.child
    d = Derivation(_RULE[type(f)], format_formula(f), verdict)
    for f in reversed(nots):
        d = Derivation("R1", format_formula(f), verdict, (d,))
    return d


def _value(program: _Program, model: Model, explain: bool) -> _Step:
    """p(f) for a formula the walk has found determined and compiled to
    ``program``.

    Two passes over the program. The first, from the root down, lists the
    indices whose steps the root reads: the child of a ``~``, both sides
    of an independent ``&&`` or ``||``, and, for the explanation, the
    right side of every other connective (its condition, or the ``~F`` of
    R4) and both sides of ``|``. The second runs over that list reversed,
    children first, and takes those steps: R1 from the child's, R4 and R5
    under independence from the sides', and every other node from its own
    mass (``_weigh``); a dependent ``||`` is R4 with p(~E && ~F) one minus
    it. Under explain the sides of a ``|`` come from one fold of the
    node's run without the node: R2 takes E | F and E & F from them, and
    p(E & F) = p(E) + p(F) - p(E | F) from the steps it has taken.

    A root conditional's joint, ``E & F`` or ``E && F``, takes the root's
    place in both passes, and its condition's step is always taken; the
    ratio of the two follows the loop. A joint that no rule decides is
    weighed ahead of the loop, and so is its condition when no rule
    decides it either, from the same elimination (``_weigh``)."""
    nodes, start, independent = program
    n, f = len(nodes), nodes[-1]
    ratio = type(f) in (GivenAdd, GivenPar)
    weighed: dict[int, tuple[Fraction, _Points]] = {}
    if ratio:  # its joint takes its place
        nodes = nodes[:-1] + [(ChoiceAnd if type(f) is GivenAdd else ParAnd)(f.event, f.condition)]
        if n - 1 not in independent:
            c = n - 2  # the condition's root
            decided = type(nodes[c]) is Not or c in independent
            weighed = dict(zip((n - 1, c), _weigh(nodes, model, None if decided else start[c])))
    needed = [n - 1]  # grows as it is read: each index after the node that reads it
    for i in needed:  # a node's right side, or child, is i - 1; its left side start[i - 1] - 1
        kind = type(nodes[i])
        if i in independent or explain and kind is ChoiceOr:
            needed += (i - 1, start[i - 1] - 1)
        elif kind is Not or (explain or ratio and i == n - 1) and kind is not AtomNode:
            needed.append(i - 1)
    steps: list = [None] * n
    for i in reversed(needed):
        node, kind, right = nodes[i], type(nodes[i]), steps[i - 1]
        if kind is Not:
            steps[i] = _one_minus(node, right, explain)
        elif i in independent:
            steps[i] = _independence(node, steps[start[i - 1] - 1], right, explain)
        elif explain and kind is ChoiceOr:  # R2: p(E & F) = p(E) + p(F) - p(E | F)
            (axes, e_rows), (_, f_rows) = _space(nodes[start[i]:i], model)  # its sides
            p = weighed[i][0] if i in weighed else _weighed((axes, e_rows | f_rows), model)[1]
            left = steps[start[i - 1] - 1]
            both = e_rows & f_rows
            step = _read(ChoiceAnd(node.left, node.right), left[0].value + right[0].value - p,
                         model, True, right, lambda: (axes, len(both)))
            steps[i] = _node(True, node, Determined(p), (left[1], right[1], step[1]),
                             "p(E) + p(F) - p(E & F)")
        else:  # off its own space, given its right side's step under explain
            p, points = weighed.get(i) or _weigh(nodes[start[i]:i + 1], model)[0]
            if kind is ParOr:  # R4: ~E && ~F holds where E || F does not
                both = ParAnd(Not(node.left), Not(node.right))
                given = _one_minus(both.right, right, True) if explain else None
                step = _read(both, 1 - p, model, explain, given, lambda: _outside(points, model))
                steps[i] = _one_minus(node, step, explain)
            else:
                steps[i] = _read(node, p, model, explain, right, points)
    if not ratio:
        return steps[-1]
    joint, condition = steps[-1], steps[-2]
    if condition[0].value == 0:
        raise NullConditionError(
            f"conditioning on null event: p({format_formula(f.condition)}) = 0"
        )
    return _node(
        explain, f, Determined(joint[0].value / condition[0].value),
        (joint[1], condition[1]), "ratio of the joint to the condition",
    )


# What an explanation's note prints of a space it did not need to build:
# a function giving the space's support and number of points.
_Points = Callable[[], tuple[tuple[str, ...], int]]


def _weigh(run: list[Formula], model: Model, split: int | None = None
           ) -> list[tuple[Fraction, _Points]]:
    """The mass of the root of ``run``, a complete subtree, and, given the
    ``split`` where the right side of a conjunctive root starts, of that
    side (a root conditional's condition beside its joint), each with its
    space's points. ``_by_gates`` picks the way: one elimination of the
    gate form (``_gates``), or rows. By rows, one fold gives the root's
    space, or with ``split`` the sides' spaces, which the root joins, so
    the right side's space is built once and both masses come from one
    elimination (``_point_weights``' condition mode)."""
    if _by_gates(run, model):
        weights, scale = _gates(run, model, split is not None)
        runs = [run] if split is None else [run, run[split:-1]]
        return [(Fraction(w, scale), partial(_counted, r, model)) for w, r in zip(weights, runs)]
    if split is None:
        axes, rows = _space(run, model)[0]
        weights, _, scale = _point_weights(axes, rows, model)
        return [(Fraction(sum(weights), scale), lambda: (axes, len(rows)))]
    event, condition = _space(run[:-1], model)
    joint = _conj(event, condition)
    weights, c_weights, scale = _point_weights(*joint, model, condition)
    return [(Fraction(sum(w), scale), lambda space=space: (space[0], len(space[1])))
            for w, space in ((weights, joint), (c_weights, condition))]


def _counted(run: list[Formula], model: Model) -> tuple[tuple[str, ...], int]:
    """The support of the root of ``run`` and its space's number of points,
    from the gate form with unit weights (no space is built)."""
    axes = tuple(sorted({node.experiment for node in run if type(node) is AtomNode}))
    return axes, _gates(run, model, weighted=False)[0][0]


def _outside(points: _Points, model: Model) -> tuple[tuple[str, ...], int]:
    """The support and number of points of the complement of a space
    whose ``points`` are given."""
    axes, count = points()
    return axes, prod(len(model.outcomes(name)) for name in axes) - count


def _by_gates(run: list[Formula], model: Model) -> bool:
    """Whether the root of ``run`` is weighed by gates rather than rows:
    the one cost function of the choice.

    A run of fewer than ``_SHORT`` nodes, or one whose support has at
    most ``_NARROW`` outcome combinations, takes rows: its fold builds
    few rows, and its gate form costs more than that in fixed work, so
    these cheap tests decide the common case without the pass below. Any
    other run compares the rows that the fold may
    build with the size of the gate form, both counted in one pass over
    the run. A node's rows are bounded by its support's outcome
    combinations: an atom has one row, a ``~`` that bound, a conjunction
    at most the product of its sides' rows, and a union its sides' rows,
    each lifted to the joint support. The gate form has an indicator of
    two entries per outcome for each atom and a table of eight entries
    for each binary node; each factor also costs a fixed amount of work,
    which ``_GATE_COST`` counts in rows. The closure's cpts, which both
    ways eliminate, are left out of both sides. Gates win when the rows
    exceed the gate form's size."""
    if len(run) < _SHORT:
        return False
    names = {node.experiment for node in run if type(node) is AtomNode}
    outcomes = {name: len(model.outcomes(name)) for name in names}
    if prod(outcomes.values()) <= _NARROW:
        return False
    rows = size = 0
    done: list[tuple[set[str], int, int]] = []  # each subtree's support, its size, its bound
    for node in run:
        kind = type(node)
        if kind is AtomNode:
            done.append(({node.experiment}, outcomes[node.experiment], 1))
            size += 2 * outcomes[node.experiment] + _GATE_COST
            continue
        if kind is Not:
            names, whole, _ = done[-1]
            done[-1] = names, whole, whole
            rows += whole
            continue
        right, left = done.pop(), done[-1]
        if len(left[0]) < len(right[0]):  # grow the larger side's set
            left, right = right, left
        (names, whole, l_rows), (r_names, r_whole, r_rows) = left, right
        union = whole * prod([outcomes[name] for name in r_names if name not in names])
        names |= r_names
        if kind is ParAnd or kind is ChoiceAnd:
            bound = min(l_rows * r_rows, union)
        else:
            bound = min(l_rows * (union // whole) + r_rows * (union // r_whole), union)
        done[-1] = names, union, bound
        rows += bound
        size += 8 + _GATE_COST
    return rows > size


# Runs of fewer nodes, and supports of at most as many outcome
# combinations, take rows without a count.
_SHORT, _NARROW = 9, 64
# The fixed work of one gate factor (ordering, placing, summing out), in rows.
_GATE_COST = 16


def _independence(f: ParAnd | ParOr, left: _Step, right: _Step, explain: bool) -> _Step:
    """R5 under independence: the product of the two sides' steps; R4 under
    it: one minus the product of their complements', whose nodes only the
    explanation builds."""
    node = f
    if isinstance(f, ParOr):
        if not explain:
            return Determined(1 - (1 - left[0].value) * (1 - right[0].value)), None
        node = ParAnd(Not(f.left), Not(f.right))
        left, right = _one_minus(node.left, left, True), _one_minus(node.right, right, True)
    step = _node(explain, node, Determined(left[0].value * right[0].value),
                 (left[1], right[1]), "independence: p(E) * p(F)")
    return step if node is f else _one_minus(f, step, True)


def _read(f: Formula, mass: Fraction, model: Model, explain: bool,
          condition: _Step | None, points: _Points) -> _Step:
    """p(f) = ``mass``, read off f's space, whose ``points`` are counted
    only for the note that needs them. Under explain, a binary ``f`` is
    shown as the step of its right side, ``condition``, times a
    conditional read off the spaces (R3, or R5 without independence),
    unless p(F) = 0 leaves the space as the only justification."""
    result = Determined(mass)
    if not explain or isinstance(f, AtomNode):
        return _node(explain, f, result)
    p_condition, condition_why = condition
    if p_condition.value == 0:
        axes, count = points()
        return result, Derivation(
            "enumeration", format_formula(f), result,
            note=f"{count} point(s) over {format_support(axes)}, "
                 f"summed over {format_support(ancestral_closure(model, axes))}",
        )
    given = (GivenAdd if isinstance(f, ChoiceAnd) else GivenPar)(f.left, f.right)
    ratio = Derivation(
        "enumeration",
        format_formula(given),
        Determined(result.value / p_condition.value),
        note="conditional read off the event spaces",
    )
    word = "given" if isinstance(f, ChoiceAnd) else "pgiven"
    return _node(True, f, result, (condition_why, ratio), f"p(F) * p(E {word} F)")


def _one_minus(f: Not | ParOr, step: _Step, explain: bool) -> _Step:
    """R1 and R4: one minus the probability of ``step``, which is that of
    f's child or of ~E && ~F."""
    note = f"1 - p({step[1].formula})" if explain else ""
    return _node(explain, f, Determined(1 - step[0].value), (step[1],), note)


def _node(explain: bool, f: Formula, result: ProbResult, children=(), note="") -> _Step:
    if not explain:
        return result, None
    return result, Derivation(_RULE[type(f)], format_formula(f), result, children, note)


def _preorder(d: Derivation) -> Iterator[tuple[int, Derivation]]:
    """Each node of the tree ``d`` with its depth, in pre-order. The walk
    keeps its own stack, so a deep tree costs no Python frames."""
    stack = [(0, d)]
    while stack:
        depth, d = stack.pop()
        yield depth, d
        stack += [(depth + 1, child) for child in reversed(d.children)]


def render_derivation(d: Derivation) -> str:
    """Indented, human-readable rendering of a derivation tree: one line per
    node, in pre-order (``_preorder``), each child two spaces in from its
    parent."""
    lines = []
    for depth, d in _preorder(d):
        if isinstance(d.result, Determined):
            value = str(d.result.value)
        else:
            value = f"undetermined ({d.result.reason})"
        line = f"{'  ' * depth}[{d.rule}] p({d.formula}) = {value}"
        if d.note:
            line += f"   ({d.note})"
        lines.append(line)
    return "\n".join(lines)
