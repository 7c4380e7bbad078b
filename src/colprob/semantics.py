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
probability-level constructs and are rejected there. A determined query
warns once, naming what that walk collects; building a space never warns.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

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
from .model import Model


class SharedExperimentWarning(UserWarning):
    """A parallel connective over a shared non-predicate experiment.

    The parallel connectives are meant for distinct experiments; for shared
    ones the conflict-filtering merge still yields a well-defined space
    (e.g. ``H@c && T@c`` is empty), but the query is probably not what the
    author intended, so we flag it instead of guessing.
    """


@dataclass(frozen=True)
class Point:
    """One outcome per experiment, stored as a sorted tuple of pairs."""

    items: tuple[tuple[str, str], ...]

    @staticmethod
    def of(assignment: Mapping[str, str]) -> "Point":
        return Point(tuple(sorted(assignment.items())))

    @property
    def experiments(self) -> frozenset[str]:
        return frozenset(e for e, _ in self.items)

    def as_dict(self) -> dict[str, str]:
        return dict(self.items)

    def merge(self, other: "Point") -> "Point | None":
        """Combine two points; None when a shared experiment disagrees."""
        merged = dict(self.items)
        for e, o in other.items:
            if merged.setdefault(e, o) != o:
                return None
        return Point.of(merged)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{e}={o}" for e, o in self.items) + "}"


@dataclass(frozen=True)
class EventSpace:
    support: frozenset[str]
    points: frozenset[Point]

    def __post_init__(self):
        for p in self.points:
            if p.experiments != self.support:
                raise ValueError(
                    f"point {p} does not cover support {format_support(self.support)}"
                )

    @staticmethod
    def of(support: Iterable[str], points: Iterable[Point]) -> "EventSpace":
        return EventSpace(frozenset(support), frozenset(points))

    @staticmethod
    def _trusted(support: frozenset[str], points: frozenset[Point]) -> "EventSpace":
        """A space whose points the caller built over ``support``; skips
        the per-point check that the constructor makes."""
        space = object.__new__(EventSpace)
        space.__dict__.update(support=support, points=points)
        return space

    def __str__(self) -> str:
        if not self.points:
            return "{ }"
        return "{ " + ", ".join(str(p) for p in sorted(self.points, key=lambda p: p.items)) + " }"


@dataclass(frozen=True)
class Undetermined:
    """First-class 'the calculus assigns no value here' verdict."""

    reason: str


Denotation = EventSpace | Undetermined


def format_support(support: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(support)) + "}"


def full_space(model: Model, support: Iterable[str]) -> EventSpace:
    """The joint space of every outcome combination over ``support``."""
    names = sorted(set(support))
    combos = itertools.product(*(model.outcomes(n) for n in names))
    points = frozenset(Point(tuple(zip(names, combo))) for combo in combos)
    return EventSpace._trusted(frozenset(names), points)


def cartesian_conj(s: EventSpace, t: EventSpace) -> EventSpace:
    """Unordered, flattened Cartesian conjunction of two spaces.

    Points merge pairwise; merges that disagree on a shared experiment are
    dropped and duplicate atoms collapse, so the result is again a set of
    genuine partial assignments over the combined support.
    """
    support = s.support | t.support
    if s.support.isdisjoint(t.support):  # every merge is a distinct point
        return EventSpace._trusted(support, frozenset([
            Point(tuple(sorted(a.items + b.items))) for a in s.points for b in t.points
        ]))
    points = set()
    for a in s.points:
        for b in t.points:
            merged = a.merge(b)
            if merged is not None:
                points.add(merged)
    return EventSpace._trusted(support, frozenset(points))


def lift(s: EventSpace, target: Iterable[str], model: Model) -> EventSpace:
    """Extend every point of ``s`` with all outcome combinations of the
    experiments in ``target`` that ``s`` does not already assign."""
    target = frozenset(target)
    if not s.support <= target:
        raise EvalError(
            f"cannot lift a space over {format_support(s.support)} "
            f"to the smaller support {format_support(target)}"
        )
    if target == s.support:
        return s
    return cartesian_conj(s, full_space(model, target - s.support))


def support(f: Formula, model: Model) -> frozenset[str] | Undetermined:
    """The experiments ``f`` mentions, or Undetermined.

    A formula is undetermined exactly when one of its choice connectives
    spans two different supports. The walk goes left to right and stops at
    the first undetermined subformula; before it, an unknown atom or an
    embedded conditional is an error, not a verdict. A query's root walk
    also collects the shared experiments that its one warning names.
    """
    return _support(f, model, None)


def _support(f: Formula, model: Model, shared: set[str] | None) -> frozenset[str] | Undetermined:
    """``support``, adding to ``shared`` (if a set) the non-predicate
    experiments that the two sides of each ``&&`` and ``||`` share."""
    if isinstance(f, AtomNode):
        decl = model.decl(f.experiment)
        if f.outcome not in decl.outcomes:
            raise EvalError(
                f"unknown outcome '{f.outcome}' of experiment '{f.experiment}'"
            )
        return frozenset((f.experiment,))
    if isinstance(f, Not):
        return _support(f.child, model, shared)
    if isinstance(f, (ChoiceAnd, ChoiceOr, ParAnd, ParOr)):
        left = _support(f.left, model, shared)
        if isinstance(left, Undetermined):
            return left
        right = _support(f.right, model, shared)
        if isinstance(right, Undetermined):
            return right
        if shared is not None and isinstance(f, (ParAnd, ParOr)):
            _share(shared, left, right, model)
        if isinstance(f, (ParAnd, ParOr)) or left == right:
            return left | right
        op = "choice-and (&)" if isinstance(f, ChoiceAnd) else "choice-or (|)"
        return Undetermined(
            f"{op} across distinct supports "
            f"{format_support(left)} and {format_support(right)}"
        )
    if isinstance(f, (GivenAdd, GivenPar)):
        raise EvalError(
            "conditionals ('given'/'pgiven') are only allowed at the root "
            "of a query; they have no event space"
        )
    raise TypeError(f"not a formula node: {f!r}")


def _share(shared: set[str], left: frozenset[str], right: frozenset[str], model: Model) -> None:
    """Add to ``shared`` the non-predicate experiments in both ``left`` and ``right``."""
    shared.update(e for e in left & right if not model.decl(e).is_predicate)


def _warn_shared(shared: set[str] | None, stacklevel: int) -> None:
    """One warning naming every experiment in ``shared``, if any."""
    if shared:
        warnings.warn(f"parallel-and (&&) over shared experiment(s) {format_support(shared)}; "
                      "merging with conflict filtering", SharedExperimentWarning, stacklevel + 1)


def denote(f: Formula, model: Model) -> Denotation:
    """The event space of ``f`` under ``model``, or the Undetermined verdict
    (or error) that ``support`` gives before any space is built."""
    shared: set[str] = set()
    verdict = _support(f, model, shared)
    if isinstance(verdict, Undetermined):
        return verdict
    _warn_shared(shared, stacklevel=2)
    return _space(f, model)


def _space(f: Formula, model: Model) -> EventSpace:
    """The event space of ``f``, which ``support`` has found determined; never warns."""
    if isinstance(f, AtomNode):
        return EventSpace._trusted(
            frozenset((f.experiment,)), frozenset((Point(((f.experiment, f.outcome),)),))
        )
    if isinstance(f, Not):
        inner = _space(f.child, model)
        universe = full_space(model, inner.support)
        return EventSpace._trusted(inner.support, universe.points - inner.points)
    left = _space(f.left, model)
    right = _space(f.right, model)
    if isinstance(f, ChoiceAnd):
        return EventSpace._trusted(left.support, left.points & right.points)
    if isinstance(f, ChoiceOr):
        return EventSpace._trusted(left.support, left.points | right.points)
    if isinstance(f, ParAnd):
        return cartesian_conj(left, right)
    # At least one side occurs: the union of both sides' lifts.
    joint = left.support | right.support
    return EventSpace._trusted(
        joint, lift(left, joint, model).points | lift(right, joint, model).points
    )


def to_set_normal_form(s: EventSpace) -> Formula:
    """Rewrite a nonempty space as a choice-or of parallel-ands of atoms.

    The result is canonical (points and atoms in sorted order) and denotes
    exactly ``s``. The empty space has no such formula; asking for one is
    an EmptySpaceError.
    """
    if not s.points:
        raise EmptySpaceError(
            "the empty event space has no set normal form "
            "(no choice-or of atoms denotes it)"
        )
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
