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
from fractions import Fraction
from itertools import chain, compress, islice, product, repeat, starmap
from operator import mul
from typing import Iterable, Mapping, Sequence

from ._record import Record
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
from .model import Model, ancestral_closure, parents_first
from .semantics import Undetermined, format_support

STATE_SPACE_BOUND = 10_000_000
_BLOCK = 256  # rows per block: what either oracle holds in memory at once


class SampleConfig(Record):
    def __init__(self, sample_count: int, seed: int = 0):
        if sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "sample_count", sample_count)
        object.__setattr__(self, "seed", seed)


class McEstimate(Record):
    def __init__(self, estimate: float, stderr: float, samples: int, seed: int):
        object.__setattr__(self, "estimate", estimate)
        object.__setattr__(self, "stderr", stderr)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)


class _SupportMismatch(Exception):
    """An undetermined formula. ``sampled`` is the sampler's wording of
    ``reason``, which differs for the additive conditional."""

    def __init__(self, reason: str, sampled: str | None = None):
        self.reason = reason
        self.sampled = sampled or reason
        super().__init__(reason)


def _support(f: Formula, model: Model) -> tuple[frozenset[str], list[Formula]]:
    """Syntactic support, and the nodes of ``f`` in post-order. The support
    replicates the undeterminedness conditions: choice connectives demand
    equal supports on both sides. Atoms are checked against ``model`` left
    to right, so an unknown atom is an error only when no undetermined
    connective comes before it. One post-order walk on an explicit stack:
    a ``~`` or a connective goes back on the stack, ready (in a 1-tuple),
    under its children, and a connective combines their supports from
    the top of ``done``."""
    order: list[Formula] = []
    done: list[frozenset[str]] = []
    stack: list[Formula | tuple[Formula]] = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, AtomNode):
            if node.outcome not in model.decl(node.experiment).outcomes:
                raise EvalError(
                    f"unknown outcome '{node.outcome}' of experiment '{node.experiment}'"
                )
            order.append(node)
            done.append(frozenset((node.experiment,)))
        elif isinstance(node, Not):
            stack += ((node,), node.child)
        elif isinstance(node, (ChoiceAnd, ChoiceOr, ParAnd, ParOr)):
            stack += ((node,), node.right, node.left)
        elif isinstance(node, tuple):
            order.append(node[0])
            if isinstance(node[0], Not):
                continue
            right, left = done.pop(), done.pop()
            if left != right and isinstance(node[0], (ChoiceAnd, ChoiceOr)):
                op = "choice-and (&)" if isinstance(node[0], ChoiceAnd) else "choice-or (|)"
                raise _SupportMismatch(f"{op} spans distinct supports "
                                       f"{format_support(left)} vs {format_support(right)}")
            done.append(left | right)
        else:
            raise EvalError("conditionals are only allowed at the root of a query")
    return done[0], order


def topological_order(model: Model, names: Iterable[str]) -> list[str]:
    """Parents-first ordering of ``names`` (which must be ancestrally
    closed), deterministic: ties broken by experiment name. It is the
    column order of both oracles, so Monte Carlo estimates depend on it.

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


def _prepare(f: Formula, model: Model):
    """What both oracles start from: the verdict (a _SupportMismatch when
    ``f`` is undetermined), the ancestral closure of the experiments ``f``
    mentions in parents-first order (one column per experiment), each atom
    with its column, outcome index and outcome count, and the nodes of
    the conditional-free event and of the condition in post-order (the
    condition's None unless ``f`` is a root conditional)."""
    if isinstance(f, (GivenAdd, GivenPar)):
        event_support, event = _support(f.event, model)
        condition_support, condition = _support(f.condition, model)
        if isinstance(f, GivenAdd) and event_support != condition_support:
            spans = f"{format_support(event_support)} vs {format_support(condition_support)}"
            raise _SupportMismatch(
                f"additive conditional (given) spans distinct supports {spans}",
                f"additive conditional spans {spans}",
            )
    else:
        event, condition = _support(f, model)[1], None
    atoms = {node for node in chain(event, condition or ()) if isinstance(node, AtomNode)}
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


def _by_parents(model: Model, order: list[str], row):
    """For each experiment of ``order``: the columns of its parents, and
    ``row(decl, parents)`` for each assignment ``parents`` of their
    outcomes, keyed by the parents' outcome indices."""
    column = {name: j for j, name in enumerate(order)}
    tables = []
    for name in order:
        decl = model.decl(name)
        domains = [model.outcomes(p) for p in decl.parents]
        keys = product(*[range(len(d)) for d in domains])
        rows = {key: row(decl, parents) for key, parents in zip(keys, product(*domains))}
        tables.append((tuple([column[p] for p in decl.parents]), rows))
    return tables


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


def _truth(nodes: list[Formula], masks: Mapping[AtomNode, int], full: int) -> int:
    """The rows of a block where the conditional-free formula whose nodes
    in post-order are ``nodes`` holds, given each atom's rows and the
    block's ``full`` mask: one fold over the nodes with a stack of rows."""
    done: list[int] = []
    for node in nodes:
        if isinstance(node, AtomNode):
            done.append(masks[node])
        elif isinstance(node, Not):
            done[-1] ^= full
        else:  # the rows where both sides hold, or where either does
            right, both = done.pop(), isinstance(node, (ChoiceAnd, ParAnd))
            done[-1] = done[-1] & right if both else done[-1] | right
    return done[0]


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
        try:
            count = str(size)
        except ValueError:  # more digits than Python converts to text
            power = int(math.log10(size))  # corrected below if the float rounded up
            count = f"more than 10^{power - (10 ** power >= size)}"
        raise OracleError(
            f"state-space bound exceeded: {count} joint assignments "
            f"(limit {STATE_SPACE_BOUND})"
        )
    factors = []
    scale = 1
    cpts = _by_parents(  # each row its outcomes' weights, in declared order
        model, order, lambda decl, parents: [decl.cpt[parents].get(o, 0) for o in decl.outcomes])
    for parents, rows in cpts:
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

    Experiments are sampled ancestors-first from their cpt rows, which
    each decl compiles once, at its first sample, into cumulative floats
    (``ExperimentDecl._sampled``); a call only keys them by the parents'
    outcome indices. The same seed, model and formula always reproduce
    the same estimate bit for bit.
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
    samplers = _by_parents(model, order, lambda decl, parents: decl._sampled[parents])
    uniform = random.Random(cfg.seed).random
    k = len(order)
    hits = 0
    eligible = 0
    for start in range(0, cfg.sample_count, _BLOCK):
        size = min(_BLOCK, cfg.sample_count - start)
        draws = list(starmap(uniform, repeat((), size * k)))
        columns: list[list[int]] = []
        for j, (parents, rows) in enumerate(samplers):
            if parents:
                cumulatives = map(rows.__getitem__, zip(*[columns[p] for p in parents]))
            else:
                cumulatives = repeat(rows[()], size)
            columns.append(list(map(bisect_right, cumulatives, draws[j::k])))
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
