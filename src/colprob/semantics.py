"""Denotational semantics: event formulas as spaces of exclusive points.

A point assigns one outcome to each experiment in a space's support; it is
unordered, so two points are equal exactly when their assignments are. An
event space is a set of pairwise-distinct points over a fixed support.

The denotation is structural:

  * an atom denotes the singleton space over its experiment;
  * ``~E`` denotes the complement of E within the full joint space over
    E's support;
  * ``E | F`` and ``E & F`` denote union and intersection, and are only
    determined when E and F have *equal* supports (any mismatch, even an
    overlap, is undetermined rather than silently lifted);
  * ``E && F`` denotes the unordered, flattened Cartesian conjunction:
    every merge of a point of E with a point of F in which shared
    experiments agree; conflicting merges are dropped, duplicate atoms
    collapse (which is what makes ``a && a`` mean ``a`` for predicates);
  * ``E || F`` denotes the union of both spaces lifted to the joint
    support, which equals its defining expansion
    ``(E && F) | (~E && F) | (E && ~F)``.

``support`` decides from the syntax alone whether a formula is determined,
before any space is built. Conditionals have no denotation; they are
probability-level constructs, which ``support``, ``denote`` and Bayes
reject before the walk (``_reject_conditional``). The decision is one
post-order walk on an explicit stack (``_walk``), so a deep formula costs
no Python frames. For the evaluator and Bayes the same walk gives the
root's ancestral closure, each node's the union of its children's, and
compiles the formula to its program: its nodes in post-order, where each
node's subtree starts, and the indices of the ``&&`` and ``||`` whose
sides have disjoint closures, the one fact rules R4 and R5 ask of a node,
so a query computes each fact once and every later pass is a loop over
the program. A root conditional is its program's last node, over its
event and condition, so every query has one program. A determined query
warns once, naming what that walk collects; building a space never
warns.

The engine builds every space in one compact form, ``(axes, rows)``:
``axes`` holds the support's experiment names, sorted, and ``rows`` is a
set of tuples of outcomes aligned with them, one per point. ``~`` is the
product of the axes' outcomes minus the rows. The fold joins ``&`` and
``&&`` in one hash join on the shared axes, a plain product when there
are none and an intersection over one support, which is ``&``'s case. It
unites ``|`` and ``||``, first joining each side with the full product of
the axes it lacks, which over one support, ``|``'s case, is none.
``_space`` is one fold, with a stack of spaces, over a run of a program
made of complete subtrees that hold no conditional, and returns the
spaces the run leaves, one per subtree, left to right: ``denote`` folds
a formula's own run, and Bayes a run of cells, which gives every cell's
space. Only they, and the public operations below, fold rows: the
evaluator weighs a narrow node as one bitmask over its support's grid
and a wide one as gates (``evaluator._weigh``).
``Point`` and ``EventSpace`` are the public form: ``denote`` decodes its
result once, and ``cartesian_conj``, ``lift``, ``full_space`` (and
``evaluator.space_prob``) encode their arguments, run the one engine
operation and decode, so every operation has one implementation.
"""

from __future__ import annotations

import warnings
from itertools import product, starmap
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping

from ._record import Record
from .errors import EmptySpaceError, EvalError
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
)
from .model import Model, ancestral_closure


class SharedExperimentWarning(UserWarning):
    """A parallel connective over a shared non-predicate experiment.

    The parallel connectives are meant for distinct experiments; for shared
    ones the conflict-filtering merge still yields a well-defined space
    (e.g. ``H@c && T@c`` is empty), but the query is probably not what the
    author intended, so we flag it instead of guessing.
    """


class Point(Record):
    """One outcome per experiment, stored as a sorted tuple of pairs.

    Its outcomes, in that order, are its row in the engine's form over the
    sorted support; the engine builds no Point until a space is decoded."""

    def __init__(self, items: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "items", items)

    @staticmethod
    def of(assignment: Mapping[str, str]) -> "Point":
        return Point(tuple(sorted(assignment.items())))

    @property
    def experiments(self) -> frozenset[str]:
        return frozenset(e for e, _ in self.items)

    def as_dict(self) -> dict[str, str]:
        return dict(self.items)

    def merge(self, other: "Point") -> "Point | None":
        """Combine two points; None when a shared experiment disagrees.
        Deprecated: ``cartesian_conj`` of the two one-point spaces is the
        conjunction the engine computes."""
        warnings.warn("Point.merge is deprecated; use cartesian_conj of the one-point spaces",
                      DeprecationWarning, stacklevel=2)
        merged = dict(self.items)
        for e, o in other.items:
            if merged.setdefault(e, o) != o:
                return None
        return Point.of(merged)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{e}={o}" for e, o in self.items) + "}"


class EventSpace(Record):
    """A set of points over one support: the public form of a space, which
    ``denote`` and the public space operations return."""

    def __init__(self, support: frozenset[str], points: frozenset[Point]):
        # A Point's items are sorted by experiment, one per experiment, so
        # each point's names must be exactly the sorted support.
        names = tuple(sorted(support))
        first = itemgetter(0)
        for p in points:
            if tuple(map(first, p.items)) != names:
                fault = ("does not cover support" if p.experiments != support
                         else "repeats or misorders an experiment of support")
                raise ValueError(f"point {p} {fault} {format_support(support)}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "points", points)

    @staticmethod
    def of(support: Iterable[str], points: Iterable[Point]) -> "EventSpace":
        return EventSpace(frozenset(support), frozenset(points))

    def __str__(self) -> str:
        if not self.points:
            return "{ }"
        return "{ " + ", ".join(str(p) for p in sorted(self.points, key=lambda p: p.items)) + " }"


class Undetermined(Record):
    """First-class 'the calculus assigns no value here' verdict."""

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


Denotation = EventSpace | Undetermined


def format_support(support: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(support)) + "}"


# A space in the engine's form: the support's names, sorted, and the set
# of its points as tuples of outcomes aligned with them.
_Space = tuple[tuple[str, ...], set[tuple[str, ...]]]

# A formula compiled by ``_walk``: its nodes in post-order, ``~`` among
# them, and a root conditional last, over its event and condition; for
# each node i, the index where its subtree starts, so that the subtree is
# ``nodes[start[i]:i + 1]``, a binary node's right side is i - 1 and its
# left side start[i - 1] - 1; and the indices of the ``&&``, ``||`` and
# root ``pgiven`` whose sides have disjoint ancestral closures.
_Program = tuple[list[Formula], list[int], set[int]]


def _encode(s: EventSpace) -> _Space:
    return tuple(sorted(s.support)), {tuple([o for _, o in sorted(p.items)]) for p in s.points}


def _decode(space: _Space) -> EventSpace:
    axes, rows = space
    points = frozenset([Point(tuple(zip(axes, row))) for row in rows])
    return EventSpace(frozenset(axes), points)


def full_space(model: Model, support: Iterable[str]) -> EventSpace:
    """The joint space of every outcome combination over ``support``: the
    engine's ``_full``, which ``~`` and ``||`` use, decoded."""
    return _decode(_full(model, tuple(sorted(set(support)))))


def cartesian_conj(s: EventSpace, t: EventSpace) -> EventSpace:
    """Unordered, flattened Cartesian conjunction of two spaces.

    Points merge pairwise; merges that disagree on a shared experiment are
    dropped and duplicate atoms collapse, so the result is again a set of
    genuine partial assignments over the combined support. This is the
    engine's hash join (``_conj``) between encoding and decoding.
    """
    return _decode(_conj(_encode(s), _encode(t)))


def lift(s: EventSpace, target: Iterable[str], model: Model) -> EventSpace:
    """Extend every point of ``s`` with all outcome combinations of the
    experiments in ``target`` that ``s`` does not already assign: the
    engine's ``_lift``, as ``||`` uses it."""
    target = frozenset(target)
    if not s.support <= target:
        raise EvalError(
            f"cannot lift a space over {format_support(s.support)} "
            f"to the smaller support {format_support(target)}"
        )
    if target == s.support:
        return s
    return _decode(_lift(_encode(s), tuple(sorted(target)), model))


def _full(model: Model, axes: tuple[str, ...]) -> _Space:
    """Every outcome combination over ``axes``."""
    return axes, set(product(*[model.outcomes(name) for name in axes]))


def _complement(space: _Space, model: Model) -> _Space:
    axes, rows = space
    universe = _full(model, axes)[1]
    universe -= rows
    return axes, universe


def _lift(space: _Space, axes: tuple[str, ...], model: Model) -> _Space:
    """``space`` joined with the full product of the ``axes`` it lacks."""
    missing = tuple([name for name in axes if name not in space[0]])
    return _conj(space, _full(model, missing)) if missing else space


def _pick(indices: list[int]) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """A function giving a row's entries at ``indices``, as a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple([row[i] for i in indices])


def _conj(left: _Space, right: _Space) -> _Space:
    """``E && F``: every row of ``left`` extended with the rest of each row
    of ``right`` that agrees with it on their shared axes, put in joint
    order by one permutation. Over no shared axis every pair merges; over
    the same axes the join is an intersection."""
    (l_axes, l_rows), (r_axes, r_rows) = left, right
    if l_axes == r_axes:
        return l_axes, l_rows & r_rows
    at = {name: i for i, name in enumerate(l_axes)}
    rest = [i for i, name in enumerate(r_axes) if name not in at]
    merged = l_axes + tuple([r_axes[i] for i in rest])
    axes = tuple(sorted(merged))
    if len(rest) == len(r_axes):  # no shared axis: a plain product
        pairs = starmap(add, product(l_rows, r_rows))
    else:  # group ``right`` by its projection onto the shared axes
        shared = [i for i, name in enumerate(r_axes) if name in at]
        r_key, r_rest = _pick(shared), _pick(rest)
        groups: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for row in r_rows:
            groups.setdefault(r_key(row), []).append(r_rest(row))
        l_key = _pick([at[r_axes[i]] for i in shared])
        pairs = (row + extra for row in l_rows for extra in groups.get(l_key(row), ()))
    if merged == axes:
        return axes, set(pairs)
    position = {name: i for i, name in enumerate(merged)}
    return axes, set(map(_pick([position[name] for name in axes]), pairs))


def support(f: Formula, model: Model) -> frozenset[str] | Undetermined:
    """The experiments ``f`` mentions, or Undetermined.

    A formula is undetermined exactly when one of its choice connectives
    spans two different supports. The walk goes left to right and stops at
    the first undetermined subformula; before it, an unknown atom or a
    conditional is an error, not a verdict, and a root conditional is one
    before anything is walked. A query's root walk also collects the
    shared experiments that its one warning names.
    """
    _reject_conditional(f)
    return _walk(f, model, None)[0]


_CONDITIONALS = (GivenAdd, GivenPar)
_NOT_AN_EVENT = ("conditionals ('given'/'pgiven') are only allowed at the root "
                 "of a query; they have no event space")
# The verdict's name for each connective whose sides must share one support.
_CHOICE = {
    ChoiceAnd: "choice-and (&)",
    ChoiceOr: "choice-or (|)",
    GivenAdd: "additive conditional (given)",
}


def _reject_conditional(f: Formula) -> None:
    """Raise where an event is needed and ``f`` is a root conditional,
    which ``_walk`` compiles but which has no event space."""
    if type(f) in _CONDITIONALS:
        raise EvalError(_NOT_AN_EVENT)


def _walk(
    f: Formula, model: Model, shared: set[str] | None
) -> tuple[frozenset[str] | Undetermined, frozenset[str] | None, _Program | None]:
    """``support``, the ancestral closure of ``f``, and ``f``'s program:
    its nodes in post-order, where each node's subtree starts, and the
    indices of the ``&&``, ``||`` and root ``pgiven`` whose sides have
    disjoint closures, the one fact R4 and R5 ask of a node. Given a set
    ``shared``, it gains the non-predicate experiments that the two sides
    of each ``&&``, ``||`` and root ``pgiven`` share. The closure and the program are complete only when the
    verdict is a support; else both are None.

    A root conditional is the program's last node, a binary node over its
    event and condition: ``pgiven`` is decided as ``&&`` is (shared
    experiments, and independence when the closures are disjoint),
    ``given`` as a choice connective; its support is then the joint's. A
    conditional anywhere else is an error.

    One post-order walk on an explicit stack, children left to right: a
    ``~`` or a connective goes back on the stack, ready (in a 1-tuple),
    under its children, and when it comes off again takes its place in
    the program and combines their supports and closures from the top of
    ``done``. A ``~`` has its child's; so has a choice connective its left
    side's, since its sides have one support. An ``&&`` or ``||`` has the
    unions of its sides': each support is a set that only its node's
    entry holds, so the union grows the larger side's set in place with
    the smaller, and a chain of n atoms adds O(n log n) names in all, not
    O(n^2). So does a closure, but an atom's is its experiment's, computed
    once per walk and shared by its atoms, and one without parents is its
    support: such a closure is copied once before it grows. When both
    sides are their own closures, so is the union."""
    nodes: list[Formula] = []
    start: list[int] = []
    independent: set[int] = set()
    above: dict[str, frozenset[str]] = {}  # each atom experiment's closure
    # the support and closure of each node finished and not yet combined
    done: list[tuple[set[str], set[str] | frozenset[str]]] = []
    stack: list[Formula | tuple[Formula]] = [f]
    if type(f) in _CONDITIONALS:
        stack = [(f,), f.condition, f.event]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is AtomNode:
            decl = model.decl(node.experiment)
            if node.outcome not in decl.outcomes:
                raise EvalError(
                    f"unknown outcome '{node.outcome}' of experiment '{node.experiment}'")
            start.append(len(nodes))
            nodes.append(node)
            names = {node.experiment}
            if not decl.parents:  # its own closure
                done.append((names, names))
                continue
            closure = above.get(node.experiment)
            if closure is None:
                closure = above[node.experiment] = ancestral_closure(model, frozenset(names))
            done.append((names, closure))
        elif kind is tuple:
            node, = node
            kind = type(node)
            i = len(nodes)  # its index: its right side, or its child, is i - 1
            nodes.append(node)
            if kind is Not:
                start.append(start[i - 1])
                continue
            start.append(start[start[i - 1] - 1])  # its left side's start
            right, r_closure = done.pop()
            names, closure = done[-1]
            if kind is ParAnd or kind is ParOr or kind is GivenPar:
                if not names.isdisjoint(right):
                    if shared is not None:
                        shared.update(e for e in names & right if not model.decl(e).is_predicate)
                elif closure.isdisjoint(r_closure):
                    independent.add(i)
                own = closure is names and r_closure is right
                if len(closure) < len(r_closure):  # grow the larger side's sets
                    closure, r_closure = r_closure, closure
                if not own:
                    if type(closure) is frozenset or closure is names or closure is right:
                        closure = set(closure)
                    closure |= r_closure
                if len(names) < len(right):
                    names, right = right, names
                names |= right
                done[-1] = names, names if own else closure
            elif names != right:
                return Undetermined(
                    f"{_CHOICE[kind]} across distinct supports "
                    f"{format_support(names)} and {format_support(right)}"
                ), None, None
        elif kind is Not:
            stack += ((node,), node.child)
        elif kind in (ParAnd, ParOr, ChoiceAnd, ChoiceOr):
            stack += ((node,), node.right, node.left)
        elif kind in _CONDITIONALS:
            raise EvalError(_NOT_AN_EVENT)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    names, closure = done[0]
    support = frozenset(names)
    closure = support if closure is names else frozenset(closure)
    return support, closure, (nodes, start, independent)


def _warn_shared(shared: set[str] | None, stacklevel: int) -> None:
    """One warning naming every experiment in ``shared``, if any."""
    if shared:
        warnings.warn(f"parallel-and (&&) over shared experiment(s) {format_support(shared)}; "
                      "merging with conflict filtering", SharedExperimentWarning, stacklevel + 1)


def denote(f: Formula, model: Model) -> Denotation:
    """The event space of ``f`` under ``model``, or the Undetermined verdict
    (or error) that ``support`` gives before any space is built."""
    _reject_conditional(f)
    shared: set[str] = set()
    verdict, _, program = _walk(f, model, shared)
    if isinstance(verdict, Undetermined):
        return verdict
    _warn_shared(shared, stacklevel=2)
    return _decode(_space(program[0], model)[0])


def _space(nodes: Iterable[Formula], model: Model) -> list[_Space]:
    """The spaces, in the engine's form, of the complete subtrees that
    make up the run ``nodes`` of a program, left to right: one for a
    formula's subtree, one per cell for a run of cells (the walk has
    found them determined, and they hold no conditional); never warns.
    One fold over the run: an atom pushes its space, a ``~`` complements
    the top of ``done``, and a connective combines the two spaces on top
    of it."""
    done: list[_Space] = []
    for node in nodes:
        kind = type(node)
        if kind is AtomNode:
            done.append(((node.experiment,), {(node.outcome,)}))
        elif kind is Not:
            done[-1] = _complement(done[-1], model)
        else:
            right = done.pop()
            left = done[-1]
            if kind is ParAnd or kind is ChoiceAnd:
                done[-1] = _conj(left, right)
            elif left[0] == right[0]:  # ParOr or ChoiceOr over one support: the union
                done[-1] = left[0], left[1] | right[1]
            else:  # the union of the sides, each lifted to the joint support
                axes = tuple(sorted({*left[0], *right[0]}))
                done[-1] = axes, _lift(left, axes, model)[1] | _lift(right, axes, model)[1]
    return done


def to_set_normal_form(s: EventSpace) -> Formula:
    """Rewrite a nonempty space as a choice-or of parallel-ands of atoms.

    The result is canonical (points and atoms in sorted order) and denotes
    exactly ``s``. The empty space, and the one point over no experiments,
    have no such formula; asking for one is an EmptySpaceError.
    """
    if not s.points:
        raise EmptySpaceError(
            "the empty event space has no set normal form "
            "(no choice-or of atoms denotes it)"
        )
    if not s.support:  # its one point is {}, and no formula names zero experiments
        raise EmptySpaceError("the space over no experiments has no set normal form")
    disjuncts = []
    for point in sorted(s.points, key=lambda p: p.items):
        atoms = [AtomNode(e, o) for e, o in point.items]
        conj: Formula = atoms[0]
        for a in atoms[1:]:
            conj = ParAnd(conj, a)
        disjuncts.append(conj)
    out: Formula = disjuncts[0]
    for d in disjuncts[1:]:
        out = ChoiceOr(out, d)
    return out
