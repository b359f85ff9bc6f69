"""Exception types shared across the toolkit."""


class MtkError(Exception):
    """Base class for all toolkit errors."""


class CapExceeded(MtkError):
    """An enumeration or search exceeded its configured size cap."""


class EmptyEdge(MtkError):
    """An operation met an empty hyperedge it cannot handle."""


class Uncolorable(MtkError):
    """Some ground element lies in no face, so no coloring exists."""


class Infeasible(MtkError):
    """A weighted covering problem has no feasible solution."""


class DomainError(MtkError):
    """An argument lies outside the operation's domain."""


class Unsupported(MtkError):
    """A parameter combination is outside the supported range."""


class ParseError(MtkError):
    """An instance file could not be parsed."""


class ValidationError(MtkError):
    """An instance file parsed but violates a structural invariant."""


class CertificateError(MtkError):
    """An exact certificate or cross-check of a computed value failed."""
