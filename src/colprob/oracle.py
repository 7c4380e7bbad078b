"""Independent verification paths: exhaustive enumeration and Monte Carlo.

This module deliberately shares no formula semantics with
colprob.semantics or colprob.evaluator. Formulas are evaluated as plain
truth conditions over full joint assignments (over full assignments the
choice and parallel connectives coincide as boolean and/or), and the
support-equality conditions that make choice connectives undetermined are
re-derived here from the syntax alone. Agreement between this path and the
event-space path is evidence, not tautology.

Both paths work on blocks of rows. A row is one joint assignment
(enumeration) or one sample (Monte Carlo); a block holds each closure
experiment's outcome indices as a column, and a formula is evaluated once
per block on integer bitmasks (bit i = row i), not once per row.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, islice, product
from operator import mul
from typing import Mapping, Sequence

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
from .model import Model, ancestral_closure, topological_order
from .semantics import Undetermined

STATE_SPACE_BOUND = 10_000_000
_BLOCK = 256  # rows per block: what either oracle holds in memory at once


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


def _atoms(f: Formula, model: Model) -> set[AtomNode]:
    """The atoms ``f`` mentions, each checked against ``model`` left to
    right, so the leftmost unknown one is the error reported."""
    atoms = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, AtomNode):
            if node.outcome not in model.decl(node.experiment).outcomes:
                raise EvalError(
                    f"unknown outcome '{node.outcome}' of experiment '{node.experiment}'"
                )
            atoms.add(node)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (ChoiceAnd, ChoiceOr, ParAnd, ParOr)):
            stack += (node.right, node.left)
        elif isinstance(node, (GivenAdd, GivenPar)):
            stack += (node.condition, node.event)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return atoms


def _prepare(f: Formula, model: Model):
    """What both oracles start from: every atom checked, the verdict (a
    _SupportMismatch when ``f`` is undetermined), the ancestral closure of
    the experiments ``f`` mentions in parents-first order (one column per
    experiment), each atom with its column, outcome index and outcome
    count, and the conditional-free event and condition (None unless ``f``
    is a root conditional)."""
    atoms = _atoms(f, model)
    if isinstance(f, (GivenAdd, GivenPar)):
        event_support = _support(f.event)
        condition_support = _support(f.condition)
        if isinstance(f, GivenAdd) and event_support != condition_support:
            spans = f"{_fmt(event_support)} vs {_fmt(condition_support)}"
            raise _SupportMismatch(
                f"additive conditional (given) spans distinct supports {spans}",
                f"additive conditional spans {spans}",
            )
        event, condition = f.event, f.condition
    else:
        _support(f)
        event, condition = f, None
    closure = ancestral_closure(model, {atom.experiment for atom in atoms})
    order = topological_order(model, closure)
    column = {name: j for j, name in enumerate(order)}
    targets = []
    for atom in atoms:
        outcomes = model.outcomes(atom.experiment)
        targets.append(
            (atom, column[atom.experiment], outcomes.index(atom.outcome), len(outcomes))
        )
    return order, targets, event, condition


def _cpts(model: Model, order: list[str]):
    """For each experiment of ``order``: the columns of its parents, and its
    cpt rows keyed by the parents' outcome indices, each row the weights of
    the experiment's outcomes in declaration order."""
    column = {name: j for j, name in enumerate(order)}
    cpts = []
    for name in order:
        decl = model.decl(name)
        domains = [model.outcomes(p) for p in decl.parents]
        rows = {
            key: [decl.cpt[parents].get(o, 0) for o in decl.outcomes]
            for key, parents in zip(
                product(*[range(len(d)) for d in domains]), product(*domains)
            )
        }
        cpts.append((tuple([column[p] for p in decl.parents]), rows))
    return cpts


def _rows_equal(col: Sequence[int], value: int, count: int) -> int:
    """The rows (bit i = row i) where ``col``, a column of indices below
    ``count``, holds ``value``. Each byte of the indices is matched by one
    ``bytes.translate``, so any outcome count works."""
    rows = -1
    for shift in range(0, max(8, (count - 1).bit_length()), 8):
        digits = bytes(col) if count <= 256 else bytes(i >> shift & 255 for i in col)
        byte = value >> shift & 255
        rows &= int(digits[::-1].translate(b"0" * byte + b"1" + b"0" * (255 - byte)), 2)
    return rows


def _truth(f: Formula, masks: Mapping[AtomNode, int], full: int) -> int:
    """The rows of a block where conditional-free ``f`` holds, given each
    atom's rows and the block's ``full`` mask."""
    if isinstance(f, AtomNode):
        return masks[f]
    if isinstance(f, Not):
        return full ^ _truth(f.child, masks, full)
    if isinstance(f, (ChoiceAnd, ParAnd)):
        return _truth(f.left, masks, full) & _truth(f.right, masks, full)
    if isinstance(f, (ChoiceOr, ParOr)):
        return _truth(f.left, masks, full) | _truth(f.right, masks, full)
    raise EvalError("conditionals are only allowed at the root of a query")


def _block_truth(event, condition, targets, columns, size: int) -> tuple[int, int]:
    """The rows of a block of ``size`` rows where the event and the
    condition both hold, and the rows where the condition holds."""
    full = (1 << size) - 1
    masks = {
        atom: _rows_equal(columns[j], index, count)
        for atom, j, index, count in targets
    }
    held = full if condition is None else _truth(condition, masks, full)
    return _truth(event, masks, full) & held, held


def enumerate_prob(f: Formula, model: Model):
    """Brute-force p(f) by summing over every full joint assignment.

    Returns the same tri-state result the evaluator does: Determined with
    an exact rational, or Undetermined when a choice connective (or the
    additive conditional) spans distinct supports. Each experiment's cpt
    is scaled to integers over the lcm of its denominators, so a row's
    weight is an integer product and only the final value is a Fraction.
    """
    try:
        order, targets, event, condition = _prepare(f, model)
    except _SupportMismatch as mismatch:
        return Undetermined(mismatch.reason)
    sizes = [len(model.outcomes(n)) for n in order]
    size = math.prod(sizes)
    if size > STATE_SPACE_BOUND:
        raise OracleError(
            f"state-space bound exceeded: {size} joint assignments "
            f"(limit {STATE_SPACE_BOUND})"
        )
    factors = []
    scale = 1
    for parents, rows in _cpts(model, order):
        lcm = math.lcm(*[w.denominator for row in rows.values() for w in row])
        scaled = {
            key: [w.numerator * (lcm // w.denominator) for w in row]
            for key, row in rows.items()
        }
        factors.append((parents, scaled))
        scale *= lcm
    bits = bytes.maketrans(b"01", b"\0\1")

    def mass(weights: list[int], rows: int) -> int:
        return sum(compress(weights, format(rows, "b")[::-1].encode().translate(bits)))

    numerator = denominator = 0
    # Star-arguments come from lists here: a tuple built from a bare
    # iterator starts at 10 slots and is resized, and CPython's tuple free
    # lists then hoard the odd sizes (about 1 MB more peak RSS per process).
    assignments = product(*[range(n) for n in sizes])
    while columns := list(zip(*list(islice(assignments, _BLOCK)))):
        weights = [1] * len(columns[0])
        for (parents, scaled), col in zip(factors, columns):
            if parents:
                keys = zip(*[columns[p] for p in parents])
                factor = [scaled[key][o] for key, o in zip(keys, col)]
            else:
                factor = map(scaled[()].__getitem__, col)
            weights = list(map(mul, weights, factor))
        both, held = _block_truth(event, condition, targets, columns, len(weights))
        numerator += mass(weights, both)
        if condition is not None:
            denominator += mass(weights, held)
    if condition is None:
        return Determined(Fraction(numerator, scale))
    if denominator == 0:
        raise NullConditionError("conditioning on null event (enumerated mass 0)")
    return Determined(Fraction(numerator, denominator))


def mc_estimate(f: Formula, model: Model, cfg: SampleConfig) -> McEstimate:
    """Seeded Monte Carlo estimate of p(f) with its binomial standard error.

    Experiments are sampled ancestors-first from their cpt rows; the same
    seed, model and formula always reproduce the same estimate bit for bit.
    A block's uniforms are drawn sample-major, one per experiment in
    parents-first order, so the estimate does not depend on the block size.
    Undetermined formulas cannot be sampled and are rejected.
    """
    try:
        order, targets, event, condition = _prepare(f, model)
    except _SupportMismatch as mismatch:
        raise OracleError(
            f"cannot sample an undetermined formula: {mismatch.sampled}"
        ) from None
    samplers = []
    for parents, rows in _cpts(model, order):
        cumulative_rows = {}
        for key, row in rows.items():
            cumulative = list(accumulate(map(float, row)))
            cumulative[-1] = 1.0  # guard against float round-off
            cumulative_rows[key] = cumulative
        samplers.append((parents, cumulative_rows))

    uniforms = iter(random.Random(cfg.seed).random, None)
    k = len(order)
    hits = 0
    eligible = 0
    for start in range(0, cfg.sample_count, _BLOCK):
        size = min(_BLOCK, cfg.sample_count - start)
        draws = list(islice(uniforms, size * k))
        columns: list[list[int]] = []
        for j, (parents, rows) in enumerate(samplers):
            if parents:
                keys = zip(*[columns[p] for p in parents])
                col = [bisect_right(rows[key], u) for key, u in zip(keys, draws[j::k])]
            else:
                row = rows[()]
                col = [bisect_right(row, u) for u in draws[j::k]]
            columns.append(col)
        both, held = _block_truth(event, condition, targets, columns, size)
        hits += both.bit_count()
        eligible += held.bit_count()
    if eligible == 0:
        raise OracleError(
            f"condition never occurred in {cfg.sample_count} samples; "
            "cannot estimate the conditional"
        )
    p_hat = hits / eligible
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / eligible)
    return McEstimate(p_hat, stderr, cfg.sample_count, cfg.seed)
