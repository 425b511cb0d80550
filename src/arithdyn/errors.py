"""Shared exception types.

Domain errors are ValueError subclasses so callers that only care about
"bad input" can catch the base class; resource exhaustion is kept separate
because it signals a policy limit, not a mathematical problem.
"""


class InvalidInputError(ValueError):
    pass


class DegenerateMapError(InvalidInputError):
    """The two forms share a projective root (vanishing resultant)."""


class RepeatedRootError(InvalidInputError):
    """Polynomial is not squarefree; deflate by gcd(P, P') first."""


class IndeterminacyError(InvalidInputError):
    """All defining forms vanish at the given point."""

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or f"morphism undefined at {point}")


class UnsupportedScopeError(InvalidInputError):
    """Operation only implemented for a restricted class of inputs."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration/size cap would be exceeded.

    `bound` carries the offending count or budget so callers can report it.
    """

    def __init__(self, bound, message=None):
        self.bound = bound
        super().__init__(message or f"resource limit exceeded (bound: {bound})")


class InconsistentResultError(RuntimeError):
    """Two independent certified enclosures of one value are disjoint, which
    proves a defect in at least one of them."""
