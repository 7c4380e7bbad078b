"""Both Bayes rules over a user-supplied partition of disjoint events.

The additive rule conditions within a single experiment:

    posterior_i = p(cell_i & F) / sum_j p(cell_j & F)

and therefore demands that every cell and the evidence share one support.
The parallel rule conditions across experiments:

    posterior_i = p(cell_i && F) / sum_j p(cell_j && F)

equivalently prior-times-likelihood, p(cell_i) * p(F pgiven cell_i), which
agrees with the joint form exactly under rational arithmetic.

Picking the wrong variant is a reported error, never a silent zero: for a
transmitted/received pair the additive rule is rejected with a support
mismatch instead of dividing 0 by 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import PartitionError
from .formula import ChoiceAnd, ChoiceOr, Formula, GivenPar, ParAnd, format_formula
from .evaluator import prob
from .model import Model
from .semantics import SharedExperimentWarning, Undetermined, format_support, support

ADDITIVE = "additive"
PARALLEL = "parallel"


@dataclass(frozen=True)
class Partition:
    """An ordered list of at least two candidate events."""

    cells: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.cells) < 2:
            raise ValueError("a partition needs at least two cells")


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    violations: tuple[str, ...]
    exhaustive: bool
    total: Fraction
    support: frozenset[str] | None = None  # the cells' common support; None if parallel


def check_partition(p: Partition, model: Model, variant: str) -> PartitionReport:
    """Decide disjointness with one union query and report exhaustiveness.

    Cells over one support (always so when additive) are joined by ``|``,
    which there denotes what ``||`` does without building complements, in
    a balanced tree U. With N the number of cells that occur, sum_i
    p(cell_i) - p(U) = E[N - 1{N >= 1}], 0 exactly when no pair overlaps
    with nonzero probability. The pairs are checked with the variant's
    conjunction only when p(U) falls short, to name them, or when the cells
    lie over different supports. Exhaustiveness (cell probabilities summing
    to exactly 1) is reported but not required. Undetermined or conditional
    cells, or cells with differing supports under the additive variant, are
    errors.
    """
    if variant not in (ADDITIVE, PARALLEL):
        raise ValueError(f"unknown variant {variant!r}")
    supports = []
    for i, cell in enumerate(p.cells, start=1):
        verdict = support(cell, model)  # raises on a conditional cell
        if isinstance(verdict, Undetermined):
            raise PartitionError(
                f"cell {i} ({format_formula(cell)}) is undetermined: {verdict.reason}"
            )
        supports.append(verdict)
    first = supports[0]
    mismatch = next((i for i, s in enumerate(supports, start=1) if s != first), None)
    if variant == ADDITIVE and mismatch is not None:
        raise PartitionError(
            f"support mismatch between cells: cell 1 over {format_support(first)} "
            f"but cell {mismatch} over {format_support(supports[mismatch - 1])}"
        )
    # Determined cells keep their own, U's and the pairwise conjunctions'
    # probabilities determined.
    total = sum((_quiet_prob(cell, model).value for cell in p.cells), start=Fraction(0))
    conj = ChoiceAnd if variant == ADDITIVE else ParAnd
    one_support = mismatch is None
    violations = []
    if not one_support or _quiet_prob(_balanced(p.cells), model).value != total:
        violations = [
            f"cells {i + 1},{j + 1} not disjoint"
            for i, j in combinations(range(len(p.cells)), 2)
            if _quiet_prob(conj(p.cells[i], p.cells[j]), model).value != 0
        ]
    return PartitionReport(
        ok=not violations,
        violations=tuple(violations),
        exhaustive=(total == 1),
        total=total,
        support=first if variant == ADDITIVE else None,
    )


def _balanced(cells: tuple[Formula, ...]) -> Formula:
    """``cells`` joined by ``|`` in a tree of depth ceil(log2(len))."""
    if len(cells) == 1:
        return cells[0]
    mid = len(cells) // 2
    return ChoiceOr(_balanced(cells[:mid]), _balanced(cells[mid:]))


def posteriors(
    p: Partition, evidence: Formula, model: Model, variant: str
) -> tuple[PartitionReport, list[Fraction]]:
    """Check ``p`` once, then give its report and each cell's posterior,
    weighed by the variant's conjunction with ``evidence``."""
    report = check_partition(p, model, variant)
    if not report.ok:
        raise PartitionError("partition cells overlap", report.violations)
    if variant == ADDITIVE:
        ev = support(evidence, model)
        if isinstance(ev, Undetermined):
            raise PartitionError(f"evidence is undetermined: {ev.reason}")
        if ev != report.support:
            raise PartitionError(
                f"support mismatch: partition cells over {format_support(report.support)} "
                f"but evidence over {format_support(ev)}; "
                "the additive Bayes rule needs a single experiment"
            )
    conj = ChoiceAnd if variant == ADDITIVE else ParAnd
    weights = [
        _determined(_quiet_prob(conj(cell, evidence), model)) for cell in p.cells
    ]
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
        weight = _determined(_quiet_prob(cell, model))  # the prior
        if weight:
            weight *= _determined(_quiet_prob(GivenPar(evidence, cell), model))
        weights.append(weight)
    return _normalize(weights)


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


def _quiet_prob(f: Formula, model: Model):
    # Formulas built here are engine plumbing, not user queries; the
    # shared-experiment warning would only be noise.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharedExperimentWarning)
        return prob(f, model)
