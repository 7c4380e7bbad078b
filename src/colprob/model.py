"""Experiment declarations, exact rational arithmetic, joint distributions.

Probabilities are `fractions.Fraction` throughout: arbitrary precision,
always in lowest terms, positive denominator, exact arithmetic. No floats
enter core evaluation at any point.

An experiment is a named, finite-outcome random source. It may depend on
parent experiments, in which case its distribution is a full conditional
probability table (one row per assignment of parent outcomes). The parent
graph must be acyclic. A model is just the collection of declared
experiments; its joint outcome space is the universe every query lives in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Container, Iterable, Mapping

from .errors import EvalError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, eq=False)
class ExperimentDecl:
    """One declared experiment.

    ``cpt`` maps a tuple of parent outcomes (aligned with ``parents``; the
    empty tuple for parentless experiments) to the distribution over this
    experiment's own outcomes. Every row must sum to exactly 1. The cpt
    must not change once the decl has been queried: its integer form is
    compiled then and kept.
    """

    name: str
    outcomes: tuple[str, ...]
    parents: tuple[str, ...] = ()
    cpt: Mapping[tuple[str, ...], Mapping[str, Fraction]] = field(default_factory=dict)
    is_predicate: bool = False

    @staticmethod
    def uniform(name: str, outcomes: Iterable[str]) -> "ExperimentDecl":
        outs = tuple(outcomes)
        w = Fraction(1, len(outs))
        return ExperimentDecl(name, outs, cpt={(): {o: w for o in outs}})

    @staticmethod
    def weighted(name: str, weights: Mapping[str, Fraction]) -> "ExperimentDecl":
        return ExperimentDecl(name, tuple(weights), cpt={(): dict(weights)})

    @staticmethod
    def predicate(name: str, p_true: Fraction) -> "ExperimentDecl":
        """A completed/uncertain proposition as a true/false experiment."""
        dist = {"true": p_true, "false": ONE - p_true}
        return ExperimentDecl(
            name, ("true", "false"), cpt={(): dist}, is_predicate=True
        )

    @cached_property
    def _scaled(self) -> tuple[list[int], int, dict[str, int]]:
        """The cpt as integers over the lcm of its denominators, that lcm,
        and each outcome's position on this experiment's axis.

        The table is flat, in row-major order over ``parents + (name,)``,
        the last fastest, and an omitted outcome weighs 0. Each axis runs
        over its experiment's outcomes in sorted order, not declared order:
        a valid cpt has one row per assignment of the parents, so its
        sorted keys are that order over the parents' axes, and the decl
        compiles without the model (one layout, whichever model holds it).
        Built at the first query, not in the constructor, because
        ``parse_model`` fills the cpt afterwards."""
        outcomes = sorted(self.outcomes)
        rows = [self.cpt[key] for key in sorted(self.cpt)]
        lcm = math.lcm(*[w.denominator for row in rows for w in row.values()])
        table = [int(row.get(o, 0) * lcm) for row in rows for o in outcomes]
        return table, lcm, dict(zip(outcomes, range(len(outcomes))))


@dataclass(frozen=True, eq=False)
class Model:
    """Immutable collection of experiments keyed by name.

    Construct once, validate, then query from any number of threads; nothing
    here mutates after __init__.
    """

    experiments: Mapping[str, ExperimentDecl]

    @staticmethod
    def of(*decls: ExperimentDecl) -> "Model":
        return Model({d.name: d for d in decls})

    def decl(self, name: str) -> ExperimentDecl:
        try:
            return self.experiments[name]
        except KeyError:
            raise EvalError(f"unknown experiment '{name}'") from None

    def outcomes(self, name: str) -> tuple[str, ...]:
        return self.decl(name).outcomes

    def __contains__(self, name: str) -> bool:
        return name in self.experiments


def validate_model(model: Model) -> list[str]:
    """Check every declaration invariant; return all violations found.

    An empty list means the model is valid. Checks: outcome lists nonempty
    and distinct, parents declared, parent graph acyclic, one cpt row per
    full parent assignment, no stray rows, weights in [0, 1], and every row
    summing to exactly 1.
    """
    issues: list[str] = []
    for name, decl in model.experiments.items():
        prefix = f"experiment {name}"
        if decl.name != name:
            issues.append(f"{prefix}: declared under mismatched key '{decl.name}'")
        if not decl.outcomes:
            issues.append(f"{prefix}: no outcomes declared")
            continue
        seen = set()
        for o in decl.outcomes:
            if o in seen:
                issues.append(f"{prefix}: duplicate outcome '{o}'")
            seen.add(o)
        unknown_parents = [p for p in decl.parents if p not in model.experiments]
        for p in unknown_parents:
            issues.append(f"{prefix}: unknown parent '{p}'")
        if p_dup := [p for i, p in enumerate(decl.parents) if p in decl.parents[:i]]:
            issues.append(f"{prefix}: duplicate parent '{p_dup[0]}'")
        if unknown_parents:
            continue
        issues.extend(_check_cpt(model, decl))
    issues.extend(_check_acyclic(model))
    return issues


def _check_cpt(model: Model, decl: ExperimentDecl) -> list[str]:
    issues = []
    prefix = f"experiment {decl.name}"
    expected_rows = set(
        itertools.product(*(model.outcomes(p) for p in decl.parents))
    )
    for key in decl.cpt:
        if key not in expected_rows:
            issues.append(f"{prefix}: cpt row for impossible parent assignment {key}")
    for key in sorted(expected_rows):
        row = decl.cpt.get(key)
        if row is None:
            issues.append(f"{prefix}: missing cpt row for {_row_label(decl, key)}")
            continue
        for o in row:
            if o not in decl.outcomes:
                issues.append(f"{prefix}: cpt references unknown outcome '{o}'")
        for o, w in row.items():
            if w < 0 or w > 1:
                issues.append(f"{prefix}: probability {w} for outcome '{o}' outside [0, 1]")
        total = sum(row.get(o, ZERO) for o in decl.outcomes)
        if total != 1:
            issues.append(f"{prefix}: cpt row {_row_label(decl, key)} sums to {total}")
    return issues


def _row_label(decl: ExperimentDecl, key: tuple[str, ...]) -> str:
    if not decl.parents:
        return "(unconditional)"
    return ", ".join(f"{p}={o}" for p, o in zip(decl.parents, key))


def _check_acyclic(model: Model) -> list[str]:
    # DFS with an explicit path, so deep chains cannot exhaust Python's
    # stack and each cycle found can be named.
    issues = []
    done: set[str] = set()
    for root in model.experiments:
        if root in done:
            continue
        path, on_path = [root], {root}
        stack = [iter(model.experiments[root].parents)]
        while stack:
            p = next(stack[-1], None)
            if p is None:
                stack.pop()
                done.add(path[-1])
                on_path.remove(path.pop())
            elif p in on_path:
                issues.append("cycle: " + "→".join(path[path.index(p):] + [p]))
            elif p in model.experiments and p not in done:
                path.append(p)
                on_path.add(p)
                stack.append(iter(model.experiments[p].parents))
    return issues


def ancestral_closure(model: Model, support: Iterable[str]) -> frozenset[str]:
    """Smallest superset of ``support`` closed under the parent relation."""
    closure: set[str] = set()
    frontier = list(support)
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        closure.add(name)
        frontier.extend(model.decl(name).parents)
    return frozenset(closure)


def joint_point_prob(model: Model, assignment: Mapping[str, str]) -> Fraction:
    """Exact probability of one full assignment over an ancestrally closed
    domain: the product of each experiment's cpt entry given its parents.

    For mutually independent experiments this reduces to the plain product
    of marginals. The assignment is an unordered mapping; the result does
    not depend on iteration order.
    """
    for name in assignment:
        decl = model.decl(name)
        for p in decl.parents:
            if p not in assignment:
                raise EvalError(
                    f"assignment domain is not ancestrally closed: "
                    f"'{name}' depends on '{p}', which is missing"
                )
    prob = ONE
    for name, outcome in assignment.items():
        decl = model.decl(name)
        if outcome not in decl.outcomes:
            raise EvalError(f"unknown outcome '{outcome}' of experiment '{name}'")
        row = decl.cpt[tuple(assignment[p] for p in decl.parents)]
        prob *= row.get(outcome, ZERO)
    return prob


def parents_first(
    model: Model, support: Iterable[str], within: Container[str] | None = None
) -> list[str]:
    """The ancestral closure of ``support``, each experiment after its
    parents: the order in which a depth-first walk from each name of the
    sorted support, parents in declaration order, finishes them. The walk
    keeps its own stack, so deep chains cannot exhaust Python's.

    Only the closure is walked, so a cycle elsewhere in the model is no
    error. An experiment that reaches a cycle, or with ``within`` a parent
    outside it, cannot be placed; the error names every such experiment,
    which are the names the sweeps of ``topological_order`` leave unplaced.
    """
    order: list[str] = []
    seen: set[str] = set()
    placed: set[str] = set()
    stuck: set[str] = set()
    for root in sorted(set(support)):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(model.decl(root).parents))]
        while stack:
            name, parents = stack[-1]
            p = next(parents, None)
            if p is None:
                stack.pop()
                if name not in stuck:
                    order.append(name)
                    placed.add(name)
                elif stack:  # so is the child that reached it
                    stuck.add(stack[-1][0])
            elif p not in seen and (within is None or p in within):
                seen.add(p)
                stack.append((p, iter(model.decl(p).parents)))
            elif p not in placed:  # on the walk's path, stuck, or outside ``within``
                stuck.add(name)
    if stuck:
        raise EvalError("dependency cycle among: " + ", ".join(sorted(stuck)))
    return order


def topological_order(model: Model, names: Iterable[str]) -> list[str]:
    """Parents-first ordering of ``names`` (which must be ancestrally
    closed), deterministic: ties broken by experiment name.

    The order is that of sweeps over the sorted names, each placing every
    name whose parents are already placed, earlier in the sweep or before
    it. A name's sweep is its rank: the largest of its parents' ranks, one
    more for a parent that sorts after it. ``parents_first`` gives every
    parent's rank before its child's, and sorting by (rank, name) gives the
    order in O(n log n).
    """
    names = set(names)
    rank: dict[str, int] = {}
    for name in parents_first(model, names, names):
        parents = model.decl(name).parents
        rank[name] = max((rank[p] + (p > name) for p in parents), default=0)
    return sorted(rank, key=lambda name: (rank[name], name))
