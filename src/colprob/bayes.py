"""Both Bayes rules over a user-supplied partition of disjoint events.

The additive rule conditions within a single experiment:

    posterior_i = p(cell_i & F) / sum_j p(cell_j & F)

and therefore demands that every cell and the evidence share one support.
The parallel rule conditions across experiments:

    posterior_i = p(cell_i && F) / sum_j p(cell_j && F)

equivalently prior-times-likelihood, p(cell_i) * p(F pgiven cell_i), which
agrees with the joint form exactly under rational arithmetic.

There is no union query and no query per cell: this module reads
masses only, from ``evaluator._masses``, which weighs a batch of spaces
by one variable elimination per distinct support. Two cells overlap
exactly when their joint has nonzero mass; a partition check weighs its
cells and their candidate joints in one batch, and the joint weights of
the cells and the evidence in one more. Each cell and the
evidence are walked once (``semantics._walk``), which decides the
verdict, gives the ancestral closure that R5's independence test reads,
and compiles the program that the space and p(evidence), when R5 needs
it, are read from. The prior-likelihood form keeps its own prob call per
cell, as a second computation to check the joint form against. The
formulas built here are engine plumbing, not user queries: this module's
``prob`` never warns.

Picking the wrong variant is a reported error, never a silent zero: for a
transmitted/received pair the additive rule is rejected with a support
mismatch instead of dividing 0 by 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

from ._record import Record
from .errors import PartitionError
from .evaluator import ProbResult, _evaluate, _masses, _value
from .formula import Formula, GivenPar, format_formula
from .model import ZERO, Model
from .semantics import (Undetermined, _conj, _reject_conditional, _Space, _space, _walk,
                        format_support)

ADDITIVE = "additive"
PARALLEL = "parallel"


class Partition(Record):
    """An ordered list of at least two candidate events."""

    def __init__(self, cells: tuple[Formula, ...]):
        if len(cells) < 2:
            raise ValueError("a partition needs at least two cells")
        object.__setattr__(self, "cells", cells)


class PartitionReport(Record):
    """What ``check_partition`` found; ``support`` is the cells' common
    support, None if parallel."""

    def __init__(self, ok: bool, violations: tuple[str, ...], exhaustive: bool,
                 total: Fraction, support: frozenset[str] | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "exhaustive", exhaustive)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "support", support)


def check_partition(p: Partition, model: Model, variant: str) -> PartitionReport:
    """Decide disjointness and report exhaustiveness.

    Each cell's space is built once, all in one fold (``semantics._space``
    over the cells' programs in turn). Two cells overlap exactly when their
    joint, under the variant's conjunction, has nonzero mass. Over one
    support (always so when additive), the candidates are the pairs of
    cells that share a point, and a joint is the points they share; over
    different supports every pair is joined (``&&``'s hash join). The
    cells and the joints are weighed in one batch (``evaluator._masses``).
    Exhaustiveness (cell probabilities summing to exactly 1) is reported
    but not required. Undetermined or conditional cells, or cells with
    differing supports under the additive variant, are errors.
    """
    return _check(p, model, variant)[0]


# What a partition check knows of each cell: its ancestral closure, event
# space (in the engine's form) and probability.
_Cells = list[tuple[frozenset[str], _Space, Fraction]]


def _check(p: Partition, model: Model, variant: str) -> tuple[PartitionReport, _Cells]:
    """``check_partition``'s report, and what it learned of each cell."""
    if variant not in (ADDITIVE, PARALLEL):
        raise ValueError(f"unknown variant {variant!r}")
    supports, closures, runs = [], [], []
    for i, cell in enumerate(p.cells, start=1):
        _reject_conditional(cell)
        verdict, closure, program = _walk(cell, model, None)
        if isinstance(verdict, Undetermined):
            raise PartitionError(
                f"cell {i} ({format_formula(cell)}) is undetermined: {verdict.reason}"
            )
        supports.append(verdict)
        closures.append(closure)
        runs.append(program[0])
    first = supports[0]
    mismatch = next((i for i, s in enumerate(supports, start=1) if s != first), None)
    if variant == ADDITIVE and mismatch is not None:
        raise PartitionError(
            f"support mismatch between cells: cell 1 over {format_support(first)} "
            f"but cell {mismatch} over {format_support(supports[mismatch - 1])}"
        )
    spaces = _space(chain.from_iterable(runs), model)  # one fold, one space per cell
    if mismatch is None:  # over one support, only cells that share a row can overlap
        owners: dict[tuple[str, ...], list[int]] = {}  # by row
        for i, (_, rows) in enumerate(spaces):
            for row in rows:
                owners.setdefault(row, []).append(i)
        pairs = sorted({pair for cells in owners.values() for pair in combinations(cells, 2)})
    else:
        pairs = list(combinations(range(len(spaces)), 2))
    masses = _masses(spaces + [_conj(spaces[i], spaces[j]) for i, j in pairs], model)
    masses, joints = masses[:len(spaces)], masses[len(spaces):]
    total = sum(masses, start=ZERO)
    violations = tuple(f"cells {i + 1},{j + 1} not disjoint"
                       for (i, j), joint in zip(pairs, joints) if joint)
    report = PartitionReport(
        ok=not violations,
        violations=violations,
        exhaustive=(total == 1),
        total=total,
        support=first if variant == ADDITIVE else None,
    )
    return report, list(zip(closures, spaces, masses))


def posteriors(
    p: Partition, evidence: Formula, model: Model, variant: str
) -> tuple[PartitionReport, list[Fraction]]:
    """Check ``p`` once, then give its report and each cell's posterior,
    weighed by the variant's conjunction with ``evidence``.

    Each weight is decided as the evaluator decides the conjunction at its
    root. A parallel cell whose ancestral closure is disjoint from the
    evidence's weighs p(cell) * p(evidence) (R5), with p(evidence)
    evaluated once. Every other cell is conjoined with the evidence's
    space, built once, and these joint spaces are weighed in one batch.
    """
    report, cells = _check(p, model, variant)
    if not report.ok:
        raise PartitionError("partition cells overlap", report.violations)
    _reject_conditional(evidence)
    ev, ev_closure, program = _walk(evidence, model, None)
    if variant == ADDITIVE:
        if isinstance(ev, Undetermined):
            raise PartitionError(f"evidence is undetermined: {ev.reason}")
        if ev != report.support:
            raise PartitionError(
                f"support mismatch: partition cells over {format_support(report.support)} "
                f"but evidence over {format_support(ev)}; "
                "the additive Bayes rule needs a single experiment"
            )
    elif isinstance(ev, Undetermined):
        raise PartitionError(f"undetermined weight: {ev.reason}")
    p_evidence = ev_space = None
    weights: list[Fraction] = []
    joints: dict[int, _Space] = {}  # by cell index, weighed together below
    for i, (closure, space, mass) in enumerate(cells):
        if variant == PARALLEL and closure.isdisjoint(ev_closure):
            if p_evidence is None:
                p_evidence = _value(program, model, False)[0].value
            weights.append(mass * p_evidence)
            continue
        if ev_space is None:
            ev_space = _space(program[0], model)[0]
        joints[i] = _conj(space, ev_space)  # over one support, the intersection
        weights.append(ZERO)
    for i, mass in zip(joints, _masses(list(joints.values()), model)):
        weights[i] = mass
    return report, _normalize(weights)


def bayes_additive(p: Partition, evidence: Formula, model: Model) -> list[Fraction]:
    """Posterior of each cell given ``evidence``, additive reading."""
    return posteriors(p, evidence, model, ADDITIVE)[1]


def bayes_parallel(
    p: Partition, evidence: Formula, model: Model, form: str = "joint"
) -> list[Fraction]:
    """Posterior of each cell given ``evidence``, parallel reading.

    ``form`` selects how the weights are computed: "joint" uses
    p(cell && evidence) directly, "prior-likelihood" uses
    p(cell) * p(evidence pgiven cell). The two agree exactly.
    """
    if form not in ("joint", "prior-likelihood"):
        raise ValueError(f"unknown form {form!r}")
    if form == "joint":
        return posteriors(p, evidence, model, PARALLEL)[1]
    report = check_partition(p, model, PARALLEL)
    if not report.ok:
        raise PartitionError("partition cells overlap", report.violations)
    weights = []
    for cell in p.cells:
        weight = _determined(prob(cell, model))  # the prior
        if weight:
            weight *= _determined(prob(GivenPar(evidence, cell), model))
        weights.append(weight)
    return _normalize(weights)


def prob(f: Formula, model: Model) -> ProbResult:
    """``evaluator.prob`` without the shared-experiment warning."""
    return _evaluate(f, model, False, None)[0]


def _normalize(weights: list[Fraction]) -> list[Fraction]:
    denominator = sum(weights, start=Fraction(0))
    if denominator == 0:
        raise PartitionError(
            "zero denominator: the evidence is incompatible with every cell"
        )
    return [w / denominator for w in weights]


def _determined(result) -> Fraction:
    if isinstance(result, Undetermined):
        raise PartitionError(f"undetermined weight: {result.reason}")
    return result.value
