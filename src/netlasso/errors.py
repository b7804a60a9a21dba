"""Exception hierarchy shared across the package.

Every input-contract violation raises a subclass of NetlassoError, so callers
can catch one base type at the CLI boundary while tests assert on the precise
condition. The package's two number rules live here too: ``_integer`` takes a
``numbers.Integral`` and ``_real`` a ``numbers.Real`` within the float range,
neither takes a bool, and each raises the caller's error class.
"""

import numbers


class NetlassoError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(NetlassoError):
    """Invalid graph construction input.

    ``index`` is the position of the offending edge in the edge list, or
    None when the error is not about one edge.
    """

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class NonPositiveWeightError(GraphError):
    pass


class NodeOutOfRangeError(GraphError):
    pass


class DimensionMismatchError(NetlassoError):
    """Signal length does not match the host graph."""


class EdgeNotInGraphError(NetlassoError):
    pass


class InvalidPartitionError(NetlassoError):
    pass


class CoefficientCountMismatchError(NetlassoError):
    pass


class InvalidConfigError(NetlassoError):
    pass


class DisconnectedAfterRetriesError(NetlassoError):
    """Generator could not produce a connected instance within the retry budget."""


class EmptySamplingSetError(NetlassoError):
    pass


class BudgetExceedsNodesError(NetlassoError):
    pass


class InvalidDemandSpecError(NetlassoError):
    pass


class InvalidQueryError(NetlassoError):
    pass


class LNotGreaterThanOneError(NetlassoError):
    """The error bound diverges unless L > 1."""


class InstanceTooLargeError(NetlassoError):
    """Exhaustive oracle refused an instance beyond its size cap."""


class FileFormatError(NetlassoError):
    """Malformed data file; carries the offending path and line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)


def _integer(value, name: str, error=InvalidConfigError) -> int:
    """value as an int; a bool and a non-``numbers.Integral`` raise error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str, error=InvalidConfigError) -> float:
    """value as a float; a bool, a non-``numbers.Real`` and an overflow raise error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is not finite") from None


def _seed(value, name: str = "seed") -> int:
    if (seed := _integer(value, name)) < 0:
        raise InvalidConfigError(f"{name} must be >= 0, got {seed}")
    return seed
