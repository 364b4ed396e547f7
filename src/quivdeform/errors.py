"""Typed errors.

Two families: InputError covers malformed files and bad command usage
(CLI exit code 2), ComputationError covers well-formed inputs on which a
computation cannot proceed (CLI exit code 1, reported by type name).
"""


class InputError(Exception):
    pass


class NotACocycle(InputError):
    """A cochain given where a 2-cocycle is needed has d f != 0; witness
    is the first basis tuple where d f is nonzero, when it is known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ComputationError(Exception):
    pass


class NotFiniteDimensional(ComputationError):
    pass


class NotFullIdempotent(ComputationError):
    pass


class CharTwoUnsupported(ComputationError):
    pass


class EpsilonUnresolvable(ComputationError):
    pass


class NormalizationFailed(ComputationError):
    pass


class SizeLimitExceeded(ComputationError):
    """The size of a construction is above a fixed limit: refused before
    any work starts where the size can be estimated, else as soon as the
    work passes its bound."""


class UntaggedSpan(ComputationError):
    """A combination of inserted vectors was asked of a SpanSolver that
    was given a vector without a tag, so it kept no combinations."""
