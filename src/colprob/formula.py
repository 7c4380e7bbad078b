"""Event-formula AST and the minimal-parentheses printer.

Eight node kinds. Choice connectives (`&`, `|`) combine outcomes of a
single experiment; parallel connectives (`&&`, `||`) combine outcomes of
different experiments; `given` / `pgiven` are the additive and parallel
conditionals and only make sense at the root of a query.

Nodes are frozen records (``_record.Record``): comparable structurally
and safe to share between threads. Their ``hash()`` and ``==`` recurse
once per nesting level, so a deep formula is unhashable in practice: the
900-term ``alien && ...`` chain that ``colprob eval`` evaluates raises
RecursionError in ``hash()``. The engine never hashes or compares whole
formulas, only atoms, outcome tuples and supports.
"""

from __future__ import annotations

from ._record import Record


class Formula(Record):
    """Base class for all event-formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


class AtomNode(Formula):
    def __init__(self, experiment: str, outcome: str):
        object.__setattr__(self, "experiment", experiment)
        object.__setattr__(self, "outcome", outcome)


class Not(Formula):
    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)


class _Binary(Formula):
    """The shape of the four connectives."""

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class ChoiceAnd(_Binary):
    pass


class ChoiceOr(_Binary):
    pass


class ParAnd(_Binary):
    pass


class ParOr(_Binary):
    pass


class _Conditional(Formula):
    """The shape of the two conditionals."""

    def __init__(self, event: Formula, condition: Formula):
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "condition", condition)


class GivenAdd(_Conditional):
    pass


class GivenPar(_Conditional):
    pass


# Printer precedence levels, matching the parser: conditionals bind loosest,
# then the or-level (| and ||), then the and-level (& and &&), then ~.
_LEVEL_COND = 0
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_NOT = 3

_BINARY = {
    ChoiceAnd: ("&", _LEVEL_AND),
    ParAnd: ("&&", _LEVEL_AND),
    ChoiceOr: ("|", _LEVEL_OR),
    ParOr: ("||", _LEVEL_OR),
}
_COND = {GivenAdd: "given", GivenPar: "pgiven"}
# The level each node binds at; an atom binds tighter than any context.
_LEVEL = {AtomNode: _LEVEL_NOT + 1, Not: _LEVEL_NOT, GivenAdd: _LEVEL_COND,
          GivenPar: _LEVEL_COND, **{kind: level for kind, (_, level) in _BINARY.items()}}


def format_formula(f: Formula) -> str:
    """Render ``f`` with as few parentheses as the grammar allows.

    Guaranteed inverse of the parser: parse_formula(format_formula(f))
    is structurally equal to f for every formula. The walk keeps its own
    stack of what is still to write, text or nodes, last first, so a deep
    formula costs no Python frames.
    """
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
            continue
        if kind is AtomNode:
            out.append(f"{node.outcome}@{node.experiment}")
            continue
        if kind is Not:
            out.append("~")
            _push(stack, node.child, _LEVEL_NOT)
            continue
        if kind in _BINARY:
            op, level = _BINARY[kind]
            # Left-associative: the left child may sit at the same level, the
            # right child needs to bind strictly tighter.
            left, right, left_level, right_level = node.left, node.right, level, level + 1
        else:
            # Non-associative: both sides must be at least or-level.
            op = _COND[kind]
            left, right, left_level, right_level = (
                node.event, node.condition, _LEVEL_OR, _LEVEL_OR)
        _push(stack, right, right_level)
        stack.append(f" {op} ")
        _push(stack, left, left_level)
    return "".join(out)


def _push(stack: list[Formula | str], f: Formula, min_level: int) -> None:
    """Put ``f`` on ``stack``, in parentheses if it binds looser than ``min_level``."""
    if _LEVEL[type(f)] < min_level:
        stack += (")", f, "(")
    else:
        stack.append(f)
