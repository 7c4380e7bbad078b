"""Concrete syntax: formula parser and model-file parser.

Formula grammar (whitespace-insensitive, '#' starts a comment):

    formula := cond
    cond    := disj (("given" | "pgiven") disj)?     -- non-associative
    disj    := conj (("|" | "||") conj)*             -- left-associative
    conj    := unary (("&" | "&&") unary)*           -- left-associative
    unary   := "~" unary | "(" formula ")" | atom
    atom    := OUTCOME "@" IDENT | LOWER_IDENT       -- bare lowercase name
    OUTCOME := IDENT | integer                       --   is a predicate

A bare lowercase identifier such as ``alien`` is sugar for ``true@alien``.
The connectives and their precedence are read from the printer's tables in
``formula``. One regex scan turns the text into ``(kind, text, offset)``
tokens, where ``kind`` is the operator or keyword itself, ``int``,
``ident`` or ``eof``; the 1-based line and column are computed from the
offset only when a ParseError is raised.

Model files are line-oriented ('#' comments):

    experiment <id> : <o1>[=<rat>], <o2>[=<rat>], ...
    experiment <id> : <o1>, <o2>, ... depends <p1>[, <p2> ...]
    cpt <outcome> | <p1>=<o>[, <p2>=<o> ...] = <rat>
    predicate <id> = <rat>

``given`` and ``pgiven`` are reserved: no experiment id, predicate id or
outcome may use them, as no formula could name it. Weights are
all-or-none; omitting them means uniform. A ``cpt`` line
attaches to the most recent ``depends`` declaration. Rationals are written
``<int>/<int>`` or ``<int>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelError, ParseError
from .formula import _BINARY, _COND, _LEVEL_AND, _LEVEL_OR, AtomNode, Formula, Not
from .model import ExperimentDecl, Model, validate_model

# The node each connective builds, and its precedence level, come from the
# printer's tables, so the parser and the printer cannot disagree on them.
_CONJ = {op: node for node, (op, level) in _BINARY.items() if level == _LEVEL_AND}
_DISJ = {op: node for node, (op, level) in _BINARY.items() if level == _LEVEL_OR}
_CONDITIONALS = {word: node for node, word in _COND.items()}

_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+ | \#[^\n]*
      | (?P<op>&&|\|\||[~&|()@])
      | (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<unknown>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _error(text: str, offset: int, message: str, expected: str | None = None) -> ParseError:
    """A ParseError at ``offset``, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, line, column, expected)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # whitespace or a comment
            continue
        lexeme = m.group()
        if kind == "unknown":
            raise _error(text, m.start(), f"unknown token {lexeme!r}")
        if kind == "op" or lexeme in _CONDITIONALS:
            kind = lexeme
        tokens.append((kind, lexeme, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def unexpected(self, expected: str) -> ParseError:
        kind, lexeme, offset = self.tokens[self.pos]
        what = "end of input" if kind == "eof" else f"'{lexeme}'"
        return _error(self.text, offset, f"unexpected {what}", expected)

    def expect(self, kind: str, expected: str) -> str:
        found, lexeme, _ = self.tokens[self.pos]
        if found != kind:
            raise self.unexpected(expected)
        self.pos += 1
        return lexeme

    def parse_cond(self) -> Formula:
        left = self.parse_disj()
        node = _CONDITIONALS.get(self.tokens[self.pos][0])
        if node is None:
            return left
        self.pos += 1
        return node(left, self.parse_disj())

    def parse_disj(self) -> Formula:
        left = self.parse_conj()
        while (node := _DISJ.get(self.tokens[self.pos][0])) is not None:
            self.pos += 1
            left = node(left, self.parse_conj())
        return left

    def parse_conj(self) -> Formula:
        left = self.parse_unary()
        while (node := _CONJ.get(self.tokens[self.pos][0])) is not None:
            self.pos += 1
            left = node(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        kind = self.tokens[self.pos][0]
        if kind == "~":
            self.pos += 1
            return Not(self.parse_unary())
        if kind == "(":
            self.pos += 1
            inner = self.parse_cond()
            self.expect(")", "')'")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind, name, offset = self.tokens[self.pos]
        if kind not in ("ident", "int"):
            raise self.unexpected("an atom, '~', or '('")
        self.pos += 1
        if self.tokens[self.pos][0] == "@":
            self.pos += 1
            return AtomNode(self.expect("ident", "an experiment name"), name)
        if kind == "ident" and name[0].islower():
            # Bare predicate: `alien` means `true@alien`.
            return AtomNode(name, "true")
        raise _error(
            self.text,
            offset,
            f"'{name}' is not a predicate name; outcomes must be tagged",
            "'@'",
        )


def parse_formula(text: str) -> Formula:
    """Parse ``text`` into a Formula, or raise ParseError with a position."""
    parser = _FormulaParser(text)
    f = parser.parse_cond()
    kind, lexeme, offset = parser.tokens[parser.pos]
    if kind in _CONDITIONALS:
        raise _error(
            text, offset, "conditionals are non-associative; parenthesize the inner one"
        )
    if kind != "eof":
        raise _error(text, offset, f"unexpected '{lexeme}' after complete formula")
    return f


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_OUTCOME_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*|[0-9]+)$")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)\s*(?:/\s*(-?[0-9]+))?$")


class _LineError(Exception):
    def __init__(self, message: str, fragment: str = ""):
        self.message = message
        self.fragment = fragment
        super().__init__(message)


@dataclass
class _Pending:
    name: str
    outcomes: tuple[str, ...]
    parents: tuple[str, ...]
    rows: dict
    is_predicate: bool
    line: int


def _parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise _LineError(f"malformed rational '{text.strip()}'", text.strip())
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise _LineError("rational with zero denominator", text.strip())
    return Fraction(num, den)


def _parse_name(text: str, what: str, pattern: re.Pattern = _NAME_RE) -> str:
    name = text.strip()
    if not pattern.match(name):
        raise _LineError(f"malformed {what} '{name}'", name)
    if name in _CONDITIONALS:
        # No formula could name it: the formula parser reads it as a keyword.
        raise _LineError(f"{what} '{name}' is a reserved word", name)
    return name


def _parse_outcome(text: str) -> str:
    return _parse_name(text, "outcome", _OUTCOME_RE)


def _parse_experiment_line(body: str, lineno: int) -> _Pending:
    head, sep, rest = body.partition(":")
    if not sep:
        raise _LineError("experiment declaration needs ':' before its outcomes")
    name = _parse_name(head, "experiment id")
    outcomes_part, dep_sep, parents_part = rest.partition(" depends ")
    if not dep_sep and rest.rstrip().endswith(" depends"):
        raise _LineError("'depends' needs at least one parent experiment")
    parents: tuple[str, ...] = ()
    if dep_sep:
        parents = tuple(
            _parse_name(p, "parent id") for p in parents_part.split(",")
        )
    entries = [e.strip() for e in outcomes_part.split(",")]
    if entries == [""]:
        raise _LineError("experiment declares no outcomes")
    weighted = ["=" in e for e in entries]
    if any(weighted) and not all(weighted):
        raise _LineError("either all outcomes carry weights or none do")
    if any(weighted) and parents:
        raise _LineError(
            "a dependent experiment takes its probabilities from cpt lines"
        )
    if parents:
        outcomes = tuple(_parse_outcome(e) for e in entries)
        return _Pending(name, outcomes, parents, {}, False, lineno)
    if all(weighted):
        dist: dict[str, Fraction] = {}
        for e in entries:
            o, _, w = e.partition("=")
            out = _parse_outcome(o)
            if out in dist:
                raise _LineError(f"duplicate outcome '{out}'", out)
            dist[out] = _parse_rational(w)
        return _Pending(name, tuple(dist), (), {(): dist}, False, lineno)
    outcomes = tuple(_parse_outcome(e) for e in entries)
    w = Fraction(1, len(outcomes))
    return _Pending(name, outcomes, (), {(): {o: w for o in outcomes}}, False, lineno)


def _parse_cpt_line(body: str, current: _Pending | None) -> None:
    if current is None or not current.parents:
        raise _LineError(
            "cpt line must follow the declaration of a dependent experiment"
        )
    left, sep, right = body.partition("|")
    if not sep:
        raise _LineError("cpt line needs '|' between outcome and parent assignment")
    outcome = _parse_outcome(left)
    cond_part, sep, weight_part = right.rpartition("=")
    if not sep:
        raise _LineError("cpt line needs '= <rational>' at the end")
    weight = _parse_rational(weight_part)
    assignment: dict[str, str] = {}
    for item in cond_part.split(","):
        p, sep, o = item.partition("=")
        if not sep:
            raise _LineError(f"malformed parent assignment '{item.strip()}'")
        assignment[_parse_name(p, "parent id")] = _parse_outcome(o)
    missing = [p for p in current.parents if p not in assignment]
    extra = [p for p in assignment if p not in current.parents]
    if missing:
        raise _LineError(
            f"cpt row does not assign parent(s): {', '.join(missing)}"
        )
    if extra:
        raise _LineError(
            f"cpt row assigns non-parent(s): {', '.join(extra)}"
        )
    key = tuple(assignment[p] for p in current.parents)
    row = current.rows.setdefault(key, {})
    if outcome in row:
        raise _LineError(
            f"duplicate cpt entry for outcome '{outcome}' under this assignment"
        )
    row[outcome] = weight


def _parse_predicate_line(body: str, lineno: int) -> _Pending:
    name_part, sep, weight_part = body.partition("=")
    if not sep:
        raise _LineError("predicate declaration needs '= <rational>'")
    name = _parse_name(name_part, "predicate id")
    p_true = _parse_rational(weight_part)
    dist = {"true": p_true, "false": Fraction(1) - p_true}
    return _Pending(name, ("true", "false"), (), {(): dist}, True, lineno)


def parse_model(text: str) -> Model:
    """Parse and fully validate a model file.

    Raises ParseError for syntax problems and ModelError (with line
    numbers) when the declarations violate a model invariant.
    """
    pending: dict[str, _Pending] = {}
    current: _Pending | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = " ".join(raw.split("#", 1)[0].split())
        if not line:
            continue
        word, _, body = line.partition(" ")
        try:
            if word == "experiment":
                decl = _parse_experiment_line(body, lineno)
                if decl.name in pending:
                    raise _LineError(f"duplicate experiment id '{decl.name}'")
                pending[decl.name] = decl
                current = decl
            elif word == "cpt":
                _parse_cpt_line(body, current)
            elif word == "predicate":
                decl = _parse_predicate_line(body, lineno)
                if decl.name in pending:
                    raise _LineError(f"duplicate experiment id '{decl.name}'")
                pending[decl.name] = decl
                current = None
            else:
                raise _LineError(
                    f"unknown declaration '{word}'; expected "
                    "'experiment', 'cpt', or 'predicate'"
                )
        except _LineError as err:
            col = (raw.find(err.fragment) + 1) if err.fragment else 1
            raise ParseError(err.message, lineno, max(col, 1)) from None
    decls = [
        ExperimentDecl(
            p.name,
            p.outcomes,
            p.parents,
            cpt={k: dict(v) for k, v in p.rows.items()},
            is_predicate=p.is_predicate,
        )
        for p in pending.values()
    ]
    model = Model({d.name: d for d in decls})
    issues = validate_model(model)
    if issues:
        raise ModelError([_locate_issue(issue, pending) for issue in issues])
    return model


def _locate_issue(issue: str, pending: dict[str, _Pending]) -> str:
    for name, p in pending.items():
        if issue.startswith(f"experiment {name}:") or f" {name}→" in f" {issue}":
            return f"line {p.line}: {issue}"
    return issue
