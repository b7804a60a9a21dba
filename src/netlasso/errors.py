"""Exception hierarchy shared across the package.

Every input-contract violation raises a subclass of NetlassoError, so callers
can catch one base type at the CLI boundary while tests assert on the precise
condition.
"""


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
