"""Error taxonomy shared across the toolkit.

The command line maps these to exit codes: ParseError to 2,
PreconditionError to 3, BoundError to 4.
"""


class ParseError(ValueError):
    """Malformed textual or JSON input."""


class PreconditionError(ValueError):
    """Structurally valid input outside an operation's domain."""


class BoundError(RuntimeError):
    """A size cap would be exceeded: an enumeration bound, the tie-line
    budget, or the digits Python prints of one number."""
