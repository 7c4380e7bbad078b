"""Independent verification paths: exhaustive enumeration and Monte Carlo.

This module deliberately shares no formula semantics with
colprob.semantics or colprob.evaluator. Formulas are evaluated as plain
truth conditions over full joint assignments (over full assignments the
choice and parallel connectives coincide as boolean and/or), and the
support-equality conditions that make choice connectives undetermined are
re-derived here from the syntax alone. Agreement between this path and the
event-space path is evidence, not tautology.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

from .errors import EvalError, NullConditionError, OracleError
from .evaluator import Determined
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
from .model import Model, ancestral_closure, joint_point_prob, topological_order
from .semantics import Undetermined

STATE_SPACE_BOUND = 10_000_000


@dataclass(frozen=True)
class SampleConfig:
    sample_count: int
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


class _SupportMismatch(Exception):
    """An undetermined formula. ``sampled`` is the sampler's wording of
    ``reason``, which differs for the additive conditional."""

    def __init__(self, reason: str, sampled: str | None = None):
        self.reason = reason
        self.sampled = sampled or reason
        super().__init__(reason)


def _fmt(support: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(support)) + "}"


def _support(f: Formula) -> frozenset[str]:
    """Syntactic support, replicating the undeterminedness conditions:
    choice connectives demand equal supports on both sides."""
    if isinstance(f, AtomNode):
        return frozenset((f.experiment,))
    if isinstance(f, Not):
        return _support(f.child)
    if isinstance(f, (ChoiceAnd, ChoiceOr)):
        left, right = _support(f.left), _support(f.right)
        if left != right:
            op = "choice-and (&)" if isinstance(f, ChoiceAnd) else "choice-or (|)"
            raise _SupportMismatch(
                f"{op} spans distinct supports {_fmt(left)} vs {_fmt(right)}"
            )
        return left
    if isinstance(f, (ParAnd, ParOr)):
        return _support(f.left) | _support(f.right)
    raise EvalError("conditionals are only allowed at the root of a query")


def _mentioned(f: Formula, model: Model) -> frozenset[str]:
    """The experiments ``f`` mentions, every atom checked against ``model``
    left to right, so the leftmost unknown one is the error reported."""
    names = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, AtomNode):
            if node.outcome not in model.decl(node.experiment).outcomes:
                raise EvalError(
                    f"unknown outcome '{node.outcome}' of experiment '{node.experiment}'"
                )
            names.add(node.experiment)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (ChoiceAnd, ChoiceOr, ParAnd, ParOr)):
            stack += (node.right, node.left)
        elif isinstance(node, (GivenAdd, GivenPar)):
            stack += (node.condition, node.event)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return frozenset(names)


def _compile(f: Formula) -> Callable[[Mapping[str, str]], bool]:
    """Compile a conditional-free formula to a truth test on assignments."""
    if isinstance(f, AtomNode):
        experiment, outcome = f.experiment, f.outcome
        return lambda a: a[experiment] == outcome
    if isinstance(f, Not):
        child = _compile(f.child)
        return lambda a: not child(a)
    if isinstance(f, (ChoiceAnd, ParAnd)):
        left, right = _compile(f.left), _compile(f.right)
        return lambda a: left(a) and right(a)
    if isinstance(f, (ChoiceOr, ParOr)):
        left, right = _compile(f.left), _compile(f.right)
        return lambda a: left(a) or right(a)
    raise EvalError("conditionals are only allowed at the root of a query")


def _prepare(f: Formula, model: Model):
    """What both oracles start from: every atom checked, the verdict (a
    _SupportMismatch when ``f`` is undetermined), then the ancestral
    closure of the experiments ``f`` mentions, its event test and its
    condition test (None unless ``f`` is a root conditional)."""
    names = _mentioned(f, model)
    if isinstance(f, (GivenAdd, GivenPar)):
        event_support = _support(f.event)
        condition_support = _support(f.condition)
        if isinstance(f, GivenAdd) and event_support != condition_support:
            spans = f"{_fmt(event_support)} vs {_fmt(condition_support)}"
            raise _SupportMismatch(
                f"additive conditional (given) spans distinct supports {spans}",
                f"additive conditional spans {spans}",
            )
        event, condition = _compile(f.event), _compile(f.condition)
    else:
        _support(f)
        event, condition = _compile(f), None
    return ancestral_closure(model, names), event, condition


def _assignments(model: Model, names: list[str]):
    for combo in product(*(model.outcomes(n) for n in names)):
        assignment = dict(zip(names, combo))
        yield assignment, joint_point_prob(model, assignment)


def enumerate_prob(f: Formula, model: Model):
    """Brute-force p(f) by summing over every full joint assignment.

    Returns the same tri-state result the evaluator does: Determined with
    an exact rational, or Undetermined when a choice connective (or the
    additive conditional) spans distinct supports.
    """
    try:
        closure, event, condition = _prepare(f, model)
    except _SupportMismatch as mismatch:
        return Undetermined(mismatch.reason)
    names = sorted(closure)
    size = math.prod(len(model.outcomes(n)) for n in names)
    if size > STATE_SPACE_BOUND:
        raise OracleError(
            f"state-space bound exceeded: {size} joint assignments "
            f"(limit {STATE_SPACE_BOUND})"
        )
    if condition is None:
        total = Fraction(0)
        for assignment, weight in _assignments(model, names):
            if event(assignment):
                total += weight
        return Determined(total)
    numerator = Fraction(0)
    denominator = Fraction(0)
    for assignment, weight in _assignments(model, names):
        if condition(assignment):
            denominator += weight
            if event(assignment):
                numerator += weight
    if denominator == 0:
        raise NullConditionError("conditioning on null event (enumerated mass 0)")
    return Determined(numerator / denominator)


def mc_estimate(f: Formula, model: Model, cfg: SampleConfig) -> McEstimate:
    """Seeded Monte Carlo estimate of p(f) with its binomial standard error.

    Experiments are sampled ancestors-first from their cpt rows; the same
    seed, model and formula always reproduce the same estimate bit for bit.
    Undetermined formulas cannot be sampled and are rejected.
    """
    try:
        closure, event, condition = _prepare(f, model)
    except _SupportMismatch as mismatch:
        raise OracleError(
            f"cannot sample an undetermined formula: {mismatch.sampled}"
        ) from None
    order = topological_order(model, closure)
    samplers = []
    for name in order:
        decl = model.decl(name)
        rows = {}
        for key, dist in decl.cpt.items():
            cumulative: list[float] = []
            running = 0.0
            for outcome in decl.outcomes:
                running += float(dist.get(outcome, 0))
                cumulative.append(running)
            cumulative[-1] = 1.0  # guard against float round-off
            rows[key] = cumulative
        samplers.append((name, decl.parents, decl.outcomes, rows))

    rng = random.Random(cfg.seed)
    hits = 0
    eligible = 0
    for _ in range(cfg.sample_count):
        assignment: dict[str, str] = {}
        for name, parents, outcomes, rows in samplers:
            row = rows[tuple(assignment[p] for p in parents)]
            assignment[name] = outcomes[bisect_right(row, rng.random())]
        if condition is not None and not condition(assignment):
            continue
        eligible += 1
        if event(assignment):
            hits += 1
    if condition is not None and eligible == 0:
        raise OracleError(
            f"condition never occurred in {cfg.sample_count} samples; "
            "cannot estimate the conditional"
        )
    n = cfg.sample_count if condition is None else eligible
    p_hat = hits / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return McEstimate(p_hat, stderr, cfg.sample_count, cfg.seed)
