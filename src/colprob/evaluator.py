"""Probability evaluation over a model, with an optional derivation.

One recursion applies the rewrite rules top-down:

    R1  p(~E)     = 1 - p(E)
    R2  p(E | F)  = p(E) + p(F) - p(E & F)        (equal supports)
    R3  p(E & F)  = p(F) * p(E given F)           (equal supports)
    R4  p(E || F) = 1 - p(~E && ~F)
    R5  p(E && F) = p(E) * p(F) under independence,
                    else p(F) * p(E pgiven F)

The verdict is decided once per root (once per side of a conditional) by
``semantics.support``; below it the recursion meets only determined
formulas. R1, R4 and independent R5 (disjoint ancestral closures)
compute a node from its children; every other node's value is read off
its own event space by ``space_prob``: variable elimination sums the
ancestors outside the space's support out of the cpt factors, and the
space's points are summed against what remains. The factors are integer
tables, each experiment's cpt scaled by the lcm of its denominators and
compiled once, at its first query; a space's value is the one Fraction
of the integer sum over the product of those scales.
``prob_explain`` runs the same recursion and records each step, showing
R2, R3 and dependent R5 as their decomposition of the value read off the
space, or as one "enumeration" leaf when the condition has probability
zero. Conditionals are probability ratios, legal only at the root.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Collection, Iterator, Sequence

from .errors import NullConditionError
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
    format_formula,
)
from .model import Model, ancestral_closure, parents_first
from .semantics import (
    EventSpace,
    Point,
    Undetermined,
    _space,
    format_support,
    support,
)


@dataclass(frozen=True)
class Determined:
    value: Fraction


ProbResult = Determined | Undetermined


@dataclass(frozen=True)
class Derivation:
    """One node of the explanation tree.

    ``rule`` is "R1".."R5" for the rewrite rules, "cpt" for atomic lookups,
    or "enumeration" for the event-space fallback. The root's result always
    equals ``prob`` of the same formula.
    """

    rule: str
    formula: str
    result: ProbResult
    children: tuple["Derivation", ...] = ()
    note: str = ""


def space_prob(space: EventSpace, model: Model) -> Fraction:
    """Exact probability mass of a space, by variable elimination: the sum
    of its points' weights (``_point_weights``) over their common scale.
    This equals summing the joint probability of every point of the space
    lifted to the ancestral closure of its support."""
    weights, scale = _point_weights(space.support, space.points, model)
    return Fraction(sum(weights), scale)


def _point_weights(
    support: frozenset[str], points: Collection[Point], model: Model
) -> tuple[Iterator[int], int]:
    """The marginal probability of each of ``points`` (distinct points over
    ``support``), as integers in the order ``points`` iterates, over one
    common scale.

    Every experiment in the ancestral closure of the support contributes
    its cpt as a factor, an integer table scaled by the lcm of the cpt's
    denominators (compiled once per experiment, at its first query). The
    closure experiments outside the support are summed out in the
    parents-first order of one ``parents_first`` walk, each from the
    bucket of factors that mention it, a support experiment ranging only
    over the outcomes the points use; each point then weighs the product
    of the remaining factors at its outcomes. The arithmetic is on
    integers throughout; the scale is the product of the lcms.
    """
    closure = parents_first(model, support)
    factors: list[_Factor] = []
    scale = 1
    for name in closure:
        decl = model.decl(name)
        table, lcm = decl._scaled
        scale *= lcm
        factors.append((decl.parents + (name,), table))
    if len(closure) != len(support):
        factors = _eliminate(support, points, model, closure, factors)
    names = sorted(support)  # the order of every point's items
    rows = [tuple([outcome for _, outcome in point.items]) for point in points]
    return _weights(rows, names, factors), scale


# A factor: the experiments it ranges over, and its integer value at each
# tuple of their outcomes.
_Factor = tuple[tuple[str, ...], dict[tuple[str, ...], int]]


def _eliminate(
    support: frozenset[str],
    points: Collection[Point],
    model: Model,
    closure: list[str],
    factors: list[_Factor],
) -> list[_Factor]:
    """Sum the experiments of ``closure`` (parents first) that are outside
    the support out of ``factors``, in that order; returns the factors over
    support experiments only."""
    order = [name for name in closure if name not in support]
    rank = {name: i for i, name in enumerate(order)}
    buckets: list[list[_Factor]] = [[] for _ in order]
    remaining: list[_Factor] = []

    def place(factor: _Factor) -> None:
        # under the first experiment of its scope to be eliminated, if any
        first = [rank[v] for v in factor[0] if v in rank]
        (buckets[min(first)] if first else remaining).append(factor)

    for factor in factors:
        place(factor)
    domains: dict[str, Collection[str]] = {name: set() for name in support}
    for point in points:
        for name, outcome in point.items:
            domains[name].add(outcome)
    domains.update((name, model.outcomes(name)) for name in order)
    for name, bucket in zip(order, buckets):
        place(_sum_out(name, bucket, domains))
    return remaining


def _sum_out(name: str, factors: list[_Factor], domains: dict[str, Collection[str]]) -> _Factor:
    """Multiply the factors that mention ``name`` and sum it out of them."""
    scope = tuple(dict.fromkeys(v for s, _ in factors for v in s if v != name))
    ranges = [domains[v] for v in scope]
    rows = list(itertools.product(*ranges, domains[name]))
    width = len(domains[name])  # rows sharing a key of ``scope`` are adjacent
    sums = map(sum, zip(*[_weights(rows, scope + (name,), factors)] * width))
    return scope, dict(zip(itertools.product(*ranges), sums))


def _weights(
    rows: list[tuple[str, ...]], names: Sequence[str], factors: list[_Factor]
) -> Iterator[int]:
    """Each row's product of ``factors``; a row holds the outcomes of
    ``names`` in that order."""
    at = {name: i for i, name in enumerate(names)}
    weights: Iterator[int] = itertools.repeat(1, len(rows))
    for scope, table in factors:
        positions = [at[v] for v in scope]
        if len(positions) == 1:  # a one-item slice keeps the key a tuple
            key = itemgetter(slice(positions[0], positions[0] + 1))
        else:
            key = itemgetter(*positions)
        weights = map(mul, weights, map(table.__getitem__, map(key, rows)))
    return weights


def prob(f: Formula, model: Model) -> ProbResult:
    """p(f): Determined(exact rational in [0, 1]) or Undetermined."""
    return _evaluate(f, model, explain=False)[0]


def cond_additive(event: Formula, condition: Formula, model: Model) -> ProbResult:
    """p(event given condition) = p(event & condition) / p(condition),
    defined only when both sides share one support."""
    return prob(GivenAdd(event, condition), model)


def cond_parallel(event: Formula, condition: Formula, model: Model) -> ProbResult:
    """p(event pgiven condition) = p(event && condition) / p(condition).

    No support restriction; for experiments with no shared ancestry this
    collapses to p(event).
    """
    return prob(GivenPar(event, condition), model)


def prob_explain(f: Formula, model: Model) -> tuple[ProbResult, Derivation]:
    """Evaluate ``f`` while recording the rule applied at every step.

    The returned result is exactly the value ``prob`` gives: both run one
    recursion, and the tree is its record, not an alternative answer.
    """
    return _evaluate(f, model, explain=True)


_RULE = {
    AtomNode: "cpt",
    Not: "R1",
    ChoiceOr: "R2",
    ChoiceAnd: "R3",
    ParOr: "R4",
    ParAnd: "R5",
    GivenAdd: "R3",
    GivenPar: "R5",
}

_Step = tuple[ProbResult, "Derivation | None"]


def _evaluate(f: Formula, model: Model, explain: bool) -> _Step:
    """p(f), with its Derivation when ``explain`` is set (else None)."""
    if isinstance(f, (GivenAdd, GivenPar)):
        return _conditional(f, model, explain)
    verdict = support(f, model)  # raises on unknown atoms and nested conditionals
    if isinstance(verdict, Undetermined):
        return verdict, _undetermined(f, verdict) if explain else None
    return _value(f, model, explain)


def _undetermined(f: Formula, verdict: Undetermined) -> Derivation:
    """The verdict as one R1 node per leading ``~`` over a leaf."""
    children = (_undetermined(f.child, verdict),) if isinstance(f, Not) else ()
    return Derivation(_RULE[type(f)], format_formula(f), verdict, children)


def _value(f: Formula, model: Model, explain: bool) -> _Step:
    """p(f) for a formula ``support`` has found determined."""
    if isinstance(f, Not):
        return _complement(f, f.child, model, explain)
    if isinstance(f, ParOr):
        return _complement(f, ParAnd(Not(f.left), Not(f.right)), model, explain)
    if isinstance(f, ParAnd) and not (
        ancestral_closure(model, support(f.left, model))
        & ancestral_closure(model, support(f.right, model))
    ):
        left, left_why = _value(f.left, model, explain)
        right, right_why = _value(f.right, model, explain)
        return _node(
            explain, f, Determined(left.value * right.value),
            (left_why, right_why), "independence: p(E) * p(F)",
        )
    space = _space(f, model)
    result = Determined(space_prob(space, model))
    if not explain or isinstance(f, AtomNode):
        return _node(explain, f, result)
    if isinstance(f, ChoiceOr):
        both = ChoiceAnd(f.left, f.right)
        children = tuple(_value(g, model, True)[1] for g in (f.left, f.right, both))
        return _node(True, f, result, children, "p(E) + p(F) - p(E & F)")
    # R3, or R5 without independence: p(F) times a conditional read off the
    # spaces, unless p(F) = 0 leaves the space as the only justification.
    condition, condition_why = _value(f.right, model, True)
    if condition.value == 0:
        closure = ancestral_closure(model, space.support)
        return result, Derivation(
            "enumeration", format_formula(f), result,
            note=f"{len(space.points)} point(s) over {format_support(space.support)}, "
                 f"summed over {format_support(closure)}",
        )
    given = (GivenAdd if isinstance(f, ChoiceAnd) else GivenPar)(f.left, f.right)
    ratio = Derivation(
        "enumeration",
        format_formula(given),
        Determined(result.value / condition.value),
        note="conditional read off the event spaces",
    )
    word = "given" if isinstance(f, ChoiceAnd) else "pgiven"
    return _node(True, f, result, (condition_why, ratio), f"p(F) * p(E {word} F)")


def _complement(f: Not | ParOr, inner: Formula, model: Model, explain: bool) -> _Step:
    """R1 and R4: one minus the probability of ``inner``."""
    result, why = _value(inner, model, explain)
    note = f"1 - p({why.formula})" if explain else ""
    return _node(explain, f, Determined(1 - result.value), (why,), note)


def _conditional(f: GivenAdd | GivenPar, model: Model, explain: bool) -> _Step:
    """The root ratio p(joint) / p(condition); ``given`` also needs the
    event and the condition to share one support."""
    event = support(f.event, model)
    if isinstance(event, Undetermined):
        return _node(explain, f, event)
    condition = support(f.condition, model)
    if isinstance(condition, Undetermined):
        return _node(explain, f, condition)
    if isinstance(f, GivenAdd) and event != condition:
        return _node(explain, f, Undetermined(
            "additive conditional (given) across distinct supports "
            f"{format_support(event)} and {format_support(condition)}"
        ))
    p_cond, cond_why = _value(f.condition, model, explain)
    if p_cond.value == 0:
        raise NullConditionError(
            f"conditioning on null event: p({format_formula(f.condition)}) = 0"
        )
    joint = (ChoiceAnd if isinstance(f, GivenAdd) else ParAnd)(f.event, f.condition)
    p_joint, joint_why = _value(joint, model, explain)
    return _node(
        explain, f, Determined(p_joint.value / p_cond.value),
        (joint_why, cond_why), "ratio of the joint to the condition",
    )


def _node(explain: bool, f: Formula, result: ProbResult, children=(), note="") -> _Step:
    if not explain:
        return result, None
    return result, Derivation(_RULE[type(f)], format_formula(f), result, children, note)


def render_derivation(d: Derivation, indent: int = 0) -> str:
    """Indented, human-readable rendering of a derivation tree."""
    pad = "  " * indent
    if isinstance(d.result, Determined):
        value = str(d.result.value)
    else:
        value = f"undetermined ({d.result.reason})"
    line = f"{pad}[{d.rule}] p({d.formula}) = {value}"
    if d.note:
        line += f"   ({d.note})"
    lines = [line]
    for child in d.children:
        lines.append(render_derivation(child, indent + 1))
    return "\n".join(lines)
