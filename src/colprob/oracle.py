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
per block on integer bitmasks (bit i = row i), not once per row. Each
query is compiled once into a post-order program of small integer
opcodes, where an atom is a slot in the block's list of masks. Each
experiment's cpt rows are listed by the code of their parents' outcomes
(mixed-radix, the last parent fastest), and a block's codes are computed
for all its rows at once, as lanes of one big integer.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, islice, product, repeat, starmap
from operator import itemgetter, le, mul
from typing import Iterable, Sequence

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
_NOT, _AND, _OR = -1, -2, -3  # a truth program's opcodes; an atom's is its slot


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


def _compile(f: Formula, model: Model,
             slots: dict[tuple[str, str], int]) -> tuple[frozenset[str], list[int]]:
    """Syntactic support, and the truth program of ``f``: its nodes in
    post-order as opcodes, an atom as its slot in ``slots`` (keyed by
    experiment and outcome, a new key taking the next slot). The support
    replicates the undeterminedness conditions: choice connectives demand
    equal supports on both sides. Atoms are checked against ``model`` left
    to right, so an unknown atom is an error only when no undetermined
    connective comes before it. One post-order walk on an explicit stack:
    a ``~`` or a connective goes back on the stack, ready (in a 1-tuple),
    under its children, and a connective combines their supports from
    the top of ``done``."""
    program: list[int] = []
    done: list[frozenset[str]] = []
    stack: list[Formula | tuple[Formula]] = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, AtomNode):
            if node.outcome not in model.decl(node.experiment).outcomes:
                raise EvalError(
                    f"unknown outcome '{node.outcome}' of experiment '{node.experiment}'"
                )
            program.append(slots.setdefault((node.experiment, node.outcome), len(slots)))
            done.append(frozenset((node.experiment,)))
        elif isinstance(node, Not):
            stack += ((node,), node.child)
        elif isinstance(node, (ChoiceAnd, ChoiceOr, ParAnd, ParOr)):
            stack += ((node,), node.right, node.left)
        elif isinstance(node, tuple):
            node = node[0]
            if isinstance(node, Not):
                program.append(_NOT)
                continue
            right, left = done.pop(), done.pop()
            if left != right and isinstance(node, (ChoiceAnd, ChoiceOr)):
                op = "choice-and (&)" if isinstance(node, ChoiceAnd) else "choice-or (|)"
                raise _SupportMismatch(f"{op} spans distinct supports "
                                       f"{format_support(left)} vs {format_support(right)}")
            done.append(left | right)
            program.append(_AND if isinstance(node, (ChoiceAnd, ParAnd)) else _OR)
        else:
            raise EvalError("conditionals are only allowed at the root of a query")
    return done[0], program


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
    slot's column, outcome index and outcome count, and the truth programs
    of the conditional-free event and of the condition (the condition's
    None unless ``f`` is a root conditional)."""
    slots: dict[tuple[str, str], int] = {}
    if isinstance(f, (GivenAdd, GivenPar)):
        event_support, event = _compile(f.event, model, slots)
        condition_support, condition = _compile(f.condition, model, slots)
        if isinstance(f, GivenAdd) and event_support != condition_support:
            spans = f"{format_support(event_support)} vs {format_support(condition_support)}"
            raise _SupportMismatch(
                f"additive conditional (given) spans distinct supports {spans}",
                f"additive conditional spans {spans}",
            )
    else:
        event, condition = _compile(f, model, slots)[1], None
    closure = ancestral_closure(model, {name for name, _ in slots})
    order = topological_order(model, closure)
    column = {name: j for j, name in enumerate(order)}
    targets = []
    for name, outcome in slots:  # in slot order
        outcomes = model.outcomes(name)
        targets.append((column[name], outcomes.index(outcome), len(outcomes)))
    return order, targets, event, condition


def _by_parents(model: Model, order: list[str], table: str):
    """For each experiment of ``order``: the columns of its parents, their
    outcome counts, and the rows of its decl's ``table`` (``cpt`` or a
    compiled form keyed as it is), listed by the code of their parents'
    outcomes (``_coder``)."""
    column = {name: j for j, name in enumerate(order)}
    tables = []
    for name in order:
        decl = model.decl(name)
        domains = [model.outcomes(p) for p in decl.parents]
        rows = list(map(getattr(decl, table).__getitem__, product(*domains)))
        tables.append(([column[p] for p in decl.parents], [len(d) for d in domains], rows))
    return tables


def _coder(radices: list[int]):
    """The function from a block's digit columns, one per radix of
    ``radices``, to the column of their mixed-radix codes, the last digit
    fastest: the position of their assignment in ``product`` order. One
    digit is its own code. Several are lanes of one integer per digit,
    each lane wide enough for the largest code, so the sum of the integers
    times their strides carries no lane into the next: a few operations on
    whole integers per block, not a tuple and a lookup per row."""
    if len(radices) <= 1:  # none: a parentless experiment, which needs no code
        return itemgetter(0)
    typecode = next(t for t in "BHIQ" if 256 ** array(t).itemsize >= math.prod(radices))
    width = array(typecode).itemsize
    strides = [math.prod(radices[i + 1:]) for i in range(len(radices))]
    # Where each byte of a digit goes in its lane: the lanes are native
    # integers, as the memoryview that reads the codes off sees them.
    low, step = (0, 1) if sys.byteorder == "little" else (width - 1, -1)

    def code(digits: list[Sequence[int]]) -> memoryview:
        lanes = 0
        for digit, stride, radix in zip(digits, strides, radices):
            spread = bytearray(width * len(digit))
            for shift in range(0, max(8, (radix - 1).bit_length()), 8):
                spread[low + step * (shift >> 3)::width] = (
                    digit if radix <= 256 else [i >> shift & 255 for i in digit])
            lanes += int.from_bytes(spread, sys.byteorder) * stride
        return memoryview(lanes.to_bytes(len(spread), sys.byteorder)).cast(typecode)
    return code


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


def _truth(program: list[int], masks: list[int], full: int) -> int:
    """The rows of a block where the conditional-free formula compiled to
    ``program`` holds, given each atom slot's rows and the block's
    ``full`` mask: one fold over the opcodes with a stack of rows."""
    done: list[int] = []
    for op in program:
        if op >= 0:
            done.append(masks[op])
        elif op == _NOT:
            done[-1] ^= full
        else:  # the rows where both sides hold, or where either does
            right = done.pop()
            done[-1] = done[-1] & right if op == _AND else done[-1] | right
    return done[0]


def _block_truth(event, condition, targets, columns, size: int) -> tuple[int, int]:
    """The rows of a block of ``size`` rows where the event and the
    condition both hold, and the rows where the condition holds."""
    full = (1 << size) - 1
    masks = [_rows_equal(columns[j], index, count) for j, index, count in targets]
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
    for j, (parents, radices, rows) in enumerate(_by_parents(model, order, "cpt")):
        # One table over the parents and the experiment itself, its own
        # outcomes in declared order the fastest digit of the code.
        outcomes = model.outcomes(order[j])
        entries = [row.get(o, 0) for row in rows for o in outcomes]
        lcm = math.lcm(*[w.denominator for w in entries])
        scaled = [w.numerator * (lcm // w.denominator) for w in entries]
        factors.append((parents + [j], _coder(radices + [sizes[j]]), scaled))
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
        for digits, code, scaled in factors:
            codes = code([columns[c] for c in digits])
            weights = list(map(mul, weights, map(scaled.__getitem__, codes)))
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
    (``ExperimentDecl._sampled``); a call only lists them by the code of
    the parents' outcome indices. A draw is the number of a row's entries
    at most its uniform u: ``bisect_right``, or, for a row ``[c, 1.0]`` of
    two outcomes, the one comparison ``c <= u``, as u < 1.0. The same
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
    for parents, radices, rows in _by_parents(model, order, "_sampled"):
        if len(rows[0]) == 2:  # each row's first entry, compared with u
            samplers.append((parents, _coder(radices), [row[0] for row in rows], le))
        else:
            samplers.append((parents, _coder(radices), rows, bisect_right))
    uniform = random.Random(cfg.seed).random
    k = len(order)
    hits = 0
    eligible = 0
    for start in range(0, cfg.sample_count, _BLOCK):
        size = min(_BLOCK, cfg.sample_count - start)
        draws = list(starmap(uniform, repeat((), size * k)))
        columns: list[list[int]] = []
        for j, (parents, code, rows, draw) in enumerate(samplers):
            if parents:
                entries = map(rows.__getitem__, code([columns[p] for p in parents]))
            else:
                entries = repeat(rows[0], size)
            columns.append(list(map(draw, entries, draws[j::k])))
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
