"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input value violates a documented precondition."""


class RangeError(ValidationError):
    """An argument falls outside the supported range (exact-arithmetic bound
    or a size cap on materialization/export)."""


class RegimeError(ValidationError):
    """An operation was asked about the degenerate regime n = m + 1, where the
    graph is complete and the fixed-core clique class is not maximal."""
