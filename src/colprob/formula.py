"""Event-formula AST and the minimal-parentheses printer.

Eight node kinds. Choice connectives (`&`, `|`) combine outcomes of a
single experiment; parallel connectives (`&&`, `||`) combine outcomes of
different experiments; `given` / `pgiven` are the additive and parallel
conditionals and only make sense at the root of a query.

Nodes are frozen dataclasses: comparable structurally and safe to share
between threads. Their ``hash()`` and ``==`` recurse once per nesting
level, so a deep formula is unhashable in practice: the 900-term
``alien && ...`` chain that ``colprob eval`` evaluates raises
RecursionError in ``hash()``. The engine never hashes or compares whole
formulas, only atoms, points and supports.
"""

from __future__ import annotations

from dataclasses import dataclass


class Formula:
    """Base class for all event-formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class AtomNode(Formula):
    experiment: str
    outcome: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class ChoiceAnd(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ChoiceOr(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ParAnd(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ParOr(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class GivenAdd(Formula):
    event: Formula
    condition: Formula


@dataclass(frozen=True)
class GivenPar(Formula):
    event: Formula
    condition: Formula


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


def format_formula(f: Formula) -> str:
    """Render ``f`` with as few parentheses as the grammar allows.

    Guaranteed inverse of the parser: parse_formula(format_formula(f))
    is structurally equal to f for every formula.
    """
    return _render(f, _LEVEL_COND)


def _render(f: Formula, min_level: int) -> str:
    if isinstance(f, AtomNode):
        return f"{f.outcome}@{f.experiment}"
    if isinstance(f, Not):
        text = "~" + _render(f.child, _LEVEL_NOT)
        level = _LEVEL_NOT
    elif type(f) in _BINARY:
        op, level = _BINARY[type(f)]
        # Left-associative: the left child may sit at the same level, the
        # right child needs to bind strictly tighter.
        left = _render(f.left, level)
        right = _render(f.right, level + 1)
        text = f"{left} {op} {right}"
    else:
        op = _COND[type(f)]
        # Non-associative: both sides must be at least or-level.
        left = _render(f.event, _LEVEL_OR)
        right = _render(f.condition, _LEVEL_OR)
        text = f"{left} {op} {right}"
        level = _LEVEL_COND
    if level < min_level:
        return f"({text})"
    return text
