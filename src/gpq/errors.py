"""Exception hierarchy shared across the package."""

from __future__ import annotations


class GpqError(Exception):
    """Base class for all library errors."""


class ParseError(GpqError):
    def __init__(self, message, line=None, column=None):
        self.reason = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class NegativeExponent(GpqError):
    """A positive word was required but an inverse letter appeared."""


class InvalidMove(GpqError):
    """A Tietze move whose preconditions fail."""


class DerivationDoesNotReduce(GpqError):
    """A T3/T4 certificate does not free-reduce to the claimed relator."""


class BadOrder(GpqError):
    """A finite group of an order it cannot have: dihedral groups need an even
    order >= 2, cyclic groups an order >= 1."""


class Unsupported(GpqError):
    """Requested a construction outside the implemented fragment."""


class OracleMismatch(GpqError):
    """A presentation relator is not trivial under the supplied oracle."""


class NotNullHomotopic(GpqError):
    """The oracle says the supplied word is not trivial."""


class NotInImage(GpqError):
    """A word is not in the image of the substitution's free monoid map."""


class BrittonStuck(GpqError):
    """A pinch candidate's middle word is not letter-identical decodable.

    The reduction is sound but not complete; carries the partial result.
    """

    def __init__(self, message, word=None, trace=None):
        super().__init__(message)
        self.word = word
        self.trace = trace


class NonPositiveRelator(GpqError):
    """Presentation induction only supports positive relators."""


class NotSplit(GpqError):
    """Split-extension invariants failed validation."""


class DoesNotCloseUp(GpqError):
    """A word whose quotient image is nontrivial cannot induce a relator."""


class ArityMismatch(GpqError):
    """Extension-composition data does not match the presentations."""


class LimitExceeded(GpqError):
    """A reduction did not terminate within the step limit, or a word would
    exceed its letter cap, or an enumeration its count cap.

    Carries the partial word and trace, if any, so callers can inspect progress.
    """

    def __init__(self, message, word=None, trace=None):
        super().__init__(message)
        self.word = word
        self.trace = trace


class Exhausted(GpqError):
    """A bounded search ran out of budget without an answer."""

    def __init__(self, message, states_explored=None):
        super().__init__(message)
        self.states_explored = states_explored


class DegenerateCase(GpqError):
    """The requested verification case is degenerate (e.g. no inducible letters)."""
