"""Exception types shared across the package."""


class ContactGeomError(Exception):
    """Base class for all errors raised by contactgeom.

    node names the offending grid node when there is one.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class OffSphere(ContactGeomError):
    """A point meant to lie on the unit 3-sphere deviates too far from unit norm."""


class DegenerateParametrization(ContactGeomError):
    """The parameter derivatives fail to span a 2-plane (Gram determinant ~ 0)."""


class DegenerateContact(ContactGeomError):
    """The surface tangent plane coincides with the contact plane (e1 undefined)."""


class RangeError(ContactGeomError, ValueError):
    """An argument outside what an operation supports (exit 2 in the CLI)."""


class ParseError(ContactGeomError):
    """Malformed sample file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
