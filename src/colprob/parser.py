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
``formula``. One regex scan (``findall``, in C) turns the text into its
lexemes, then ``""`` for the end of input; an operator or keyword is its
own kind, and any other lexeme is a name or an integer. Only when a
ParseError is raised does a second scan with the same pattern find where
its token starts, and from that its 1-based line and column. One loop over
the lexemes with an explicit stack (precedence climbing) builds the
formula, so nesting costs no Python frames.

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
from fractions import Fraction
from itertools import islice

from .errors import ModelError, ParseError
from .formula import _BINARY, _COND, _LEVEL_COND, AtomNode, Formula, Not
from .model import ExperimentDecl, Model, validate_model

# The node each connective builds, and its precedence level, come from the
# printer's tables, so the parser and the printer cannot disagree on them.
_CONNECTIVES = {op: (node, level) for node, (op, level) in _BINARY.items()}
_CONNECTIVES.update((word, (node, _LEVEL_COND)) for node, word in _COND.items())
_KEYWORDS = frozenset(_COND.values())
# Every lexeme that is its own kind, the end of input ("") among them; any
# other is an outcome, an experiment name or a predicate.
_NOT_ATOMS = frozenset(_CONNECTIVES) | {"~", "(", ")", "@", ""}

# Whitespace and comments match outside the group, so ``findall`` gives
# them as empty strings; the group's last alternative is an unknown token.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+ | \#[^\n]*
      | (&&|\|\||[~&|()@]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|.)
    """,
    re.VERBOSE | re.DOTALL,
)
# A character that no token, whitespace or comment starts with: an unknown
# token, or a character inside a comment.
_UNKNOWN_RE = re.compile(r"[^ \t\r\n#&|~()@0-9A-Za-z_]")


def _error(text: str, index: int, message: str, expected: str | None = None) -> ParseError:
    """A ParseError at the token numbered ``index`` (at the end of input
    past the last one), with its 1-based line and column. Its offset comes
    from scanning ``text`` again with the tokenizer's pattern."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if m.group(1))
    offset = next(islice(starts, index, None), len(text))
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, line, column, expected)


def _tokenize(text: str) -> list[str]:
    """The lexemes of ``text``, then "" for the end of input; an unknown
    token is an error."""
    lexemes = list(filter(None, _TOKEN_RE.findall(text)))
    if _UNKNOWN_RE.search(text):  # an unknown token, or only a comment's character
        for i, lexeme in enumerate(lexemes):
            if _UNKNOWN_RE.match(lexeme):
                raise _error(text, i, f"unknown token {lexeme!r}")
    lexemes.append("")
    return lexemes


def _unexpected(text: str, tokens: list[str], index: int, expected: str) -> ParseError:
    lexeme = tokens[index]
    what = f"'{lexeme}'" if lexeme else "end of input"
    return _error(text, index, f"unexpected {what}", expected)


def parse_formula(text: str) -> Formula:
    """Parse ``text`` into a Formula, or raise ParseError with a position."""
    tokens = _tokenize(text)
    # The pending '~' and '(' tokens and, for each connective whose right
    # operand is still to come, its (node, level, left operand).
    stack: list = []
    pos = 0
    while True:
        # Operand position: any '~' and '(', then one atom.
        name = tokens[pos]
        while name == "~" or name == "(":
            stack.append(name)
            pos += 1
            name = tokens[pos]
        if name in _NOT_ATOMS:
            raise _unexpected(text, tokens, pos, "an atom, '~', or '('")
        pos += 1
        if tokens[pos] == "@":
            experiment = tokens[pos + 1]
            if experiment in _NOT_ATOMS or experiment[0].isdigit():
                raise _unexpected(text, tokens, pos + 1, "an experiment name")
            operand = AtomNode(experiment, name)
            pos += 2
        elif name[0].islower():
            operand = AtomNode(name, "true")  # bare predicate: `alien` is `true@alien`
        else:
            message = f"'{name}' is not a predicate name; outcomes must be tagged"
            raise _error(text, pos - 1, message, "'@'")
        # Operator position: apply the pending '~'s, then combine every
        # pending connective that binds at least as tightly as the next
        # token (all are left-associative); ')', end of input and any
        # other token bind loosest and so close the whole group.
        while True:
            while stack and stack[-1] == "~":
                stack.pop()
                operand = Not(operand)
            lexeme = tokens[pos]
            pos += 1
            node, level = _CONNECTIVES.get(lexeme, (None, _LEVEL_COND - 1))
            while stack and type(stack[-1]) is tuple and stack[-1][1] >= level:
                pending, pending_level, left = stack.pop()
                operand = pending(left, operand)
                if pending_level == level == _LEVEL_COND:
                    node = None  # conditionals do not chain: the group ends here
            if node is not None:
                stack.append((node, level, operand))
                break
            if stack and lexeme == ")":  # the group's '(' is on top
                stack.pop()
            elif stack:
                raise _unexpected(text, tokens, pos - 1, "')'")
            elif not lexeme:
                return operand
            elif lexeme in _KEYWORDS:
                message = "conditionals are non-associative; parenthesize the inner one"
                raise _error(text, pos - 1, message)
            else:
                raise _error(text, pos - 1, f"unexpected '{lexeme}' after complete formula")


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_OUTCOME_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*|[0-9]+)$")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)\s*(?:/\s*(-?[0-9]+))?$")


class _LineError(Exception):
    """``offset``: where the offending text starts in the normalized line."""

    def __init__(self, message: str, offset: int | None = None):
        self.message = message
        self.offset = offset
        super().__init__(message)


def _at(text: str, start: int) -> int | None:
    """Where ``text.strip()`` starts in the line, ``text`` being found at
    ``start`` (None when nothing is left)."""
    return start + len(text) - len(text.lstrip()) if text.strip() else None


def _split(text: str, sep: str, start: int) -> list[tuple[str, int]]:
    """``text.split(sep)``, each piece with its offset in the line."""
    pieces = []
    for piece in text.split(sep):
        pieces.append((piece, start))
        start += len(piece) + len(sep)
    return pieces


def _parse_rational(text: str, start: int) -> Fraction:
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise _LineError(f"malformed rational '{text.strip()}'", _at(text, start))
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # past sys.get_int_max_str_digits()
        raise _LineError("rational with too many digits", _at(text, start)) from None
    if den == 0:
        raise _LineError("rational with zero denominator", _at(text, start))
    return Fraction(num, den)


def _parse_name(text: str, start: int, what: str, pattern: re.Pattern = _NAME_RE) -> str:
    name = text.strip()
    if not pattern.match(name):
        raise _LineError(f"malformed {what} '{name}'", _at(text, start))
    if name in _KEYWORDS:
        # No formula could name it: the formula parser reads it as a keyword.
        raise _LineError(f"{what} '{name}' is a reserved word", _at(text, start))
    return name


def _parse_outcome(text: str, start: int) -> str:
    return _parse_name(text, start, "outcome", _OUTCOME_RE)


def _parse_experiment_line(body: str, start: int) -> ExperimentDecl:
    head, sep, rest = body.partition(":")
    if not sep:
        raise _LineError("experiment declaration needs ':' before its outcomes")
    name = _parse_name(head, start, "experiment id")
    rest_at = start + len(head) + len(sep)
    outcomes_part, dep_sep, parents_part = rest.partition(" depends ")
    if not dep_sep and rest.rstrip().endswith(" depends"):
        raise _LineError("'depends' needs at least one parent experiment")
    parents: tuple[str, ...] = ()
    if dep_sep:
        parents_at = rest_at + len(outcomes_part) + len(dep_sep)
        parents = tuple(
            _parse_name(p, at, "parent id") for p, at in _split(parents_part, ",", parents_at)
        )
    entries = _split(outcomes_part, ",", rest_at)
    if not outcomes_part.strip():
        raise _LineError("experiment declares no outcomes")
    weighted = ["=" in e for e, _ in entries]
    if any(weighted) and not all(weighted):
        raise _LineError("either all outcomes carry weights or none do")
    if any(weighted) and parents:
        raise _LineError(
            "a dependent experiment takes its probabilities from cpt lines"
        )
    if all(weighted):
        dist: dict[str, Fraction] = {}
        for e, at in entries:
            o, sep, w = e.partition("=")
            out = _parse_outcome(o, at)
            if out in dist:
                raise _LineError(f"duplicate outcome '{out}'", _at(o, at))
            dist[out] = _parse_rational(w, at + len(o) + len(sep))
        return ExperimentDecl.weighted(name, dist)
    outcomes = tuple(_parse_outcome(e, at) for e, at in entries)
    if parents:  # its cpt is filled by the cpt lines that follow
        return ExperimentDecl(name, outcomes, parents)
    return ExperimentDecl.uniform(name, outcomes)


def _parse_cpt_line(body: str, start: int, current: ExperimentDecl | None) -> None:
    if current is None or not current.parents:
        raise _LineError(
            "cpt line must follow the declaration of a dependent experiment"
        )
    left, sep, right = body.partition("|")
    if not sep:
        raise _LineError("cpt line needs '|' between outcome and parent assignment")
    outcome = _parse_outcome(left, start)
    right_at = start + len(left) + len(sep)
    cond_part, sep, weight_part = right.rpartition("=")
    # With no weight, the last '=' is the last assignment's: a bare name
    # before it and an outcome after it.
    if not sep or (_NAME_RE.match(cond_part.rpartition(",")[2].strip())
                   and _OUTCOME_RE.match(weight_part.strip())):
        raise _LineError("cpt line needs '= <rational>' at the end")
    weight = _parse_rational(weight_part, right_at + len(cond_part) + len(sep))
    assignment: dict[str, str] = {}
    at = right_at  # not _split: cpt lines are most of a large model file
    for item in cond_part.split(","):
        p, sep, o = item.partition("=")
        if not sep:
            raise _LineError(f"malformed parent assignment '{item.strip()}'")
        assignment[_parse_name(p, at, "parent id")] = _parse_outcome(o, at + len(p) + 1)
        at += len(item) + 1
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
    row = current.cpt.setdefault(key, {})
    if outcome in row:
        raise _LineError(
            f"duplicate cpt entry for outcome '{outcome}' under this assignment"
        )
    row[outcome] = weight


def _parse_predicate_line(body: str, start: int) -> ExperimentDecl:
    name_part, sep, weight_part = body.partition("=")
    if not sep:
        raise _LineError("predicate declaration needs '= <rational>'")
    name = _parse_name(name_part, start, "predicate id")
    p_true = _parse_rational(weight_part, start + len(name_part) + len(sep))
    return ExperimentDecl.predicate(name, p_true)


_DECLARATIONS = {"experiment": _parse_experiment_line, "predicate": _parse_predicate_line}


def parse_model(text: str) -> Model:
    """Parse and fully validate a model file.

    Raises ParseError for syntax problems and ModelError (with line
    numbers) when the declarations violate a model invariant.
    """
    decls: dict[str, ExperimentDecl] = {}
    lines: dict[str, int] = {}
    current: ExperimentDecl | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = " ".join(raw.split("#", 1)[0].split())
        if not line:
            continue
        word, sep, body = line.partition(" ")
        start = len(word) + len(sep)
        try:
            if word == "cpt":
                _parse_cpt_line(body, start, current)
            elif word in _DECLARATIONS:
                current = _DECLARATIONS[word](body, start)
                if current.name in decls:
                    raise _LineError(f"duplicate experiment id '{current.name}'")
                decls[current.name] = current
                lines[current.name] = lineno
            else:
                raise _LineError(
                    f"unknown declaration '{word}'; expected "
                    "'experiment', 'cpt', or 'predicate'"
                )
        except _LineError as err:
            col = 1 if err.offset is None else _raw_column(raw, err.offset)
            raise ParseError(err.message, lineno, col) from None
    model = Model(decls)
    issues = validate_model(model)
    if issues:
        raise ModelError([_locate_issue(issue, lines) for issue in issues])
    return model


def _raw_column(raw: str, offset: int) -> int:
    """The 1-based column in ``raw`` of the character at ``offset`` in its
    normalized form, the words before any ``#`` joined by single spaces."""
    for word in re.finditer(r"\S+", raw):
        if offset < len(word[0]):
            return word.start() + offset + 1
        offset -= len(word[0]) + 1
    return 1


def _locate_issue(issue: str, lines: dict[str, int]) -> str:
    for name, line in lines.items():
        if issue.startswith(f"experiment {name}:") or f" {name}→" in f" {issue}":
            return f"line {line}: {issue}"
    return issue
