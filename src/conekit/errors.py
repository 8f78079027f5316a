"""Exception hierarchy shared across the toolkit.

The exit-code mapping used by the CLI lives here as well so that library
errors and process status stay in sync.
"""


class ConekitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ConekitError):
    """Malformed cone document or invalid matrix input.  CLI exit code 2."""

    exit_code = 2


class MembershipError(ConekitError):
    """A target vector lies outside the cone or lattice.  CLI exit code 3."""

    exit_code = 3


class PreconditionError(ConekitError):
    """Operation preconditions not met (rank, determinant, ...).  Exit code 4."""

    exit_code = 4


class CertificateError(ConekitError):
    """An exact internal certificate failed.

    This class of failure contradicts a proven statement and therefore always
    indicates an implementation bug, never bad input.  CLI exit code 5.
    """

    exit_code = 5


class UnresolvedError(ConekitError):
    """A bounded search exhausted its budget without a definite answer.

    Raised instead of guessing; carries the budget that was exceeded.  CLI
    exit code 6, so a budget that is too small is never mistaken for an
    internal certificate failure.
    """

    exit_code = 6

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes
