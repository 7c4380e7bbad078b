"""Exception hierarchy shared across the package.

Undetermined results are *not* exceptions; they are ordinary return values
(see colprob.semantics.Undetermined). Exceptions are reserved for genuine
failures: bad input, invalid models, null conditioning events.
"""


class ColprobError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ColprobError):
    """Malformed formula or model text.

    Carries a 1-based (line, column) position pointing into the source and,
    when available, a hint about what token was expected.
    """

    def __init__(self, message, line, column, expected=None):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        loc = f"{line}:{column}: {message}"
        if expected:
            loc += f" (expected {expected})"
        super().__init__(loc)


class ModelError(ColprobError):
    """A model failed validation. ``issues`` lists every violation found."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class EvalError(ColprobError):
    """A query cannot be evaluated: unknown atom, misplaced conditional,
    or a structural precondition violation."""


class NullConditionError(EvalError):
    """Conditioning event has probability zero.

    Deliberately distinct from an undetermined result: callers must be able
    to tell "the calculus assigns no value" apart from "you divided by a
    null event".
    """


class EmptySpaceError(EvalError):
    """No choice-or / parallel-and formula denotes the empty event space,
    nor the one point over no experiments."""


class PartitionError(ColprobError):
    """A Bayes partition is unusable: undetermined cells, support mismatch,
    disjointness violations, or a zero denominator."""

    def __init__(self, message, violations=()):
        self.violations = list(violations)
        super().__init__(message)


class OracleError(ColprobError):
    """The brute-force or sampling oracle cannot run (state-space bound
    exceeded, or the formula is undetermined and cannot be sampled)."""
