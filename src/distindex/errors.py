"""Exception types shared across the package, each with the exit code
the command line returns for it (a subclass inherits its parent's)."""


class GraphError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same edge appears more than once."""


class VertexOutOfRangeError(GraphError):
    """A vertex index is not in 0..n-1."""


class EdgeListFormatError(GraphError):
    """The edge-list text input is malformed."""


class DisconnectedError(GraphError):
    """The operation requires a connected graph."""

    exit_code = 4


class NotATreeError(GraphError):
    """The operation requires a tree."""

    exit_code = 3


class NotBipartiteError(GraphError):
    """The operation requires a bipartite graph."""

    exit_code = 3


class NotPartialCubeError(GraphError):
    """The graph failed partial-cube verification."""

    exit_code = 3


class ClassRemovalError(NotPartialCubeError):
    """Two related edges cut the graph differently, so some edge class
    does not split the graph into two parts."""


class InfeasibleSpecError(GraphError):
    """Tree family parameters violate their feasibility constraints."""


class OrderTooLargeError(GraphError):
    """Requested vertex count, enumeration order or hypercube dimension
    exceeds the supported bound."""
