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
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import add
from typing import Container, Iterable, Mapping

from ._record import Record
from .errors import EvalError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class ExperimentDecl(Record, eq=False):
    """One declared experiment.

    ``cpt`` maps a tuple of parent outcomes (aligned with ``parents``; the
    empty tuple for parentless experiments) to the distribution over this
    experiment's own outcomes. Every row must sum to exactly 1. The cpt
    must not change once the decl has been queried: its compiled forms are
    built at their first use and kept. They are the evaluator's integer
    table, with a noisy-OR cpt's per-cause factors (``_scaled``), and the
    Monte Carlo sampler's cumulative rows (``_sampled``).
    """

    def __init__(self, name: str, outcomes: tuple[str, ...], parents: tuple[str, ...] = (),
                 cpt: Mapping[tuple[str, ...], Mapping[str, Fraction]] | None = None,
                 is_predicate: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "cpt", {} if cpt is None else cpt)  # a fresh dict per decl
        object.__setattr__(self, "is_predicate", is_predicate)

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
    def _scaled(self) -> tuple[list[int], int, dict[str, int], _PerCause | None]:
        """The cpt as integers over the lcm of its denominators, that lcm,
        each outcome's position on this experiment's axis, and the
        per-cause form of a noisy-OR cpt (``_per_cause``), else None.

        The table is flat, in row-major order over ``parents + (name,)``,
        the last fastest, and an omitted outcome weighs 0. Each axis runs
        over its experiment's outcomes in sorted order, not declared order:
        a valid cpt has one row per assignment of the parents, so its
        sorted keys are that order over the parents' axes, and the decl
        compiles without the model (one layout, whichever model holds it).
        Built at the first query, not in the constructor, because
        ``parse_model`` fills the cpt afterwards."""
        outcomes = sorted(self.outcomes)
        keys = sorted(self.cpt)
        rows = [self.cpt[key] for key in keys]
        lcm = math.lcm(*[w.denominator for row in rows for w in row.values()])
        table = [int(row.get(o, 0) * lcm) for row in rows for o in outcomes]
        sizes = [len({key[j] for key in keys}) for j in range(len(self.parents))]
        positions = dict(zip(outcomes, range(len(outcomes))))
        return table, lcm, positions, _per_cause(table, lcm, sizes)

    @cached_property
    def _sampled(self) -> dict[tuple[str, ...], list[float]]:
        """Each cpt row, keyed as in ``cpt``, as the cumulative floats of
        its weights over the outcomes in declared order, the last set to
        1.0 against round-off: what the Monte Carlo sampler bisects, or,
        in a row ``[c, 1.0]`` of two outcomes, the ``c`` that it compares
        with its uniform. The sampler lists the rows by the code of their
        parents' outcomes. Built at the first sample, as ``_scaled`` is at
        the first query."""
        sampled = {}
        for key, row in self.cpt.items():
            cumulative = list(accumulate(map(float, [row.get(o, 0) for o in self.outcomes])))
            cumulative[-1] = 1.0
            sampled[key] = cumulative
        return sampled


# A noisy-OR cpt's per-cause form: per parent a table over (parent, aux),
# a table over (aux, experiment), and the factor by which their product
# exceeds the cpt's integer table. ``aux`` is an axis of two positions.
_PerCause = tuple[list[list[int]], list[int], int]


def _per_cause(table: list[int], lcm: int, sizes: list[int]) -> _PerCause | None:
    """The per-cause form of a cpt's integer ``table`` (over ``lcm``,
    row-major over parents of ``sizes`` outcomes, then two outcomes of its
    own), or None where the table stays the cheaper form.

    Causal independence (noisy-OR, and noisy-MAX through an auxiliary
    variable: Díez & Galán 2003) makes one outcome's column T rank one
    over the parents. With T* the first row's entry and T_j(v) the entry
    of the row that moves only parent j, to position v, the test is exact
    on the integers: T[a] * T*^(n-1) = prod_j T_j(a_j) for every row a,
    T* is not 0, and each row sums to ``lcm``. Then the table, times
    T*^n, is the sum over aux of prod_j h_j(a_j, aux) * D(aux, e), where
    h_j(v, 0) = T_j(v) and h_j(v, 1) = T*; D(0, e) is T* on T's outcome
    and -T* on the other, D(1, e) is 0 on T's outcome and ``lcm`` on the
    other. Summing a cause out of that form costs its own 2 * size
    entries, not a pass over the whole table.

    The form is kept when the effect has two outcomes, there are at least
    two parents, a column passes the test, and its 2 * sum(sizes) + 4
    entries are fewer than the table's. Every other cpt, one whose column
    is perturbed off rank one among them, keeps its table."""
    n = len(sizes)
    if (n < 2 or len(table) != 2 * math.prod(sizes) or 2 * sum(sizes) + 4 >= len(table)
            or any(map(lcm.__ne__, map(add, table[0::2], table[1::2])))):
        return None
    strides = [math.prod(sizes[j + 1:]) for j in range(n)]
    for column in (0, 1):
        entries = table[column::2]
        first = entries[0]
        if first == 0:
            continue
        causes = [entries[0:stride * size:stride] for stride, size in zip(strides, sizes)]
        product = [1]
        for cause in causes:  # the outer product, row-major like the table
            product = [p * t for p in product for t in cause]
        power = first ** (n - 1)
        if [t * power for t in entries] != product:
            continue
        per_cause = [list(chain.from_iterable(zip(cause, repeat(first)))) for cause in causes]
        other = [0, lcm] if column == 0 else [lcm, 0]
        delta = ([first, -first] if column == 0 else [-first, first]) + other
        return per_cause, delta, first ** n
    return None


class Model(Record, eq=False):
    """Immutable collection of experiments keyed by name.

    Construct once, validate, then query from any number of threads; nothing
    here mutates after __init__.
    """

    def __init__(self, experiments: Mapping[str, ExperimentDecl]):
        object.__setattr__(self, "experiments", experiments)

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
        if _row_is_valid(row, decl.outcomes):
            continue
        for o, w in row.items():
            if w < 0 or w > 1:
                issues.append(f"{prefix}: probability {w} for outcome '{o}' outside [0, 1]")
        total = sum(row.get(o, ZERO) for o in decl.outcomes)
        if total != 1:
            issues.append(f"{prefix}: cpt row {_row_label(decl, key)} sums to {total}")
    return issues


def _row_is_valid(row: Mapping[str, Fraction], outcomes: tuple[str, ...]) -> bool:
    """Whether every weight of ``row`` is an int or a Fraction in [0, 1]
    and its weights of ``outcomes`` sum to 1, checked on the integers over
    the lcm of the denominators: the Fraction comparisons and additions
    that word a failing row's messages cost several times more."""
    if not all(type(w) is Fraction or type(w) is int for w in row.values()):
        return False
    lcm = math.lcm(*[w.denominator for w in row.values()])
    scaled = {o: w.numerator * (lcm // w.denominator) for o, w in row.items()}
    return (all(0 <= n <= lcm for n in scaled.values())
            and sum([scaled.get(o, 0) for o in outcomes]) == lcm)


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
    which are the names the sweeps of ``oracle.topological_order`` leave
    unplaced.
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
