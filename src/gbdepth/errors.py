"""Exception types shared across the package."""


class GBDepthError(Exception):
    """Base class for all package-specific errors."""


class RingMismatchError(GBDepthError):
    """Operands live in different polynomial rings."""


class OrderError(GBDepthError):
    """A monomial order specification violates an order axiom or does not
    fit the ring (wrong arity, non-positive weight, bad permutation)."""


class ParseError(GBDepthError):
    """Text input rejected, with 1-based source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class BudgetExceededError(GBDepthError):
    """A configured work budget (S-pair reductions, or the lcm-lattice
    size, which also bounds the Koszul faces of one Betti table) ran out."""

    def __init__(self, kind, limit, message=None):
        super().__init__(message or f"{kind} budget of {limit} exceeded")
        self.kind = kind
        self.limit = limit


class InternalInvariantError(GBDepthError):
    """Two routes that must agree disagreed, or a structural self-check failed.
    Indicates a bug, never bad user input."""


class NotCohenMacaulayError(GBDepthError):
    """The h-polynomial regularity shortcut was requested without a
    Cohen-Macaulay certificate."""


class LatticeError(GBDepthError):
    """Input poset is not a distributive lattice; message carries a witness."""
