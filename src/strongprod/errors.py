"""Exception types shared across the package.

The CLI maps these onto its exit codes, so the hierarchy mirrors the
failure categories: input format, digraph validity, connectivity, and
resource limits.
"""


class StrongProdError(Exception):
    """Base class for every error raised by this package."""


class EdgeListFormatError(StrongProdError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedHeaderError(EdgeListFormatError):
    """The first data line is not two integers ``n m``."""


class ArcLineError(EdgeListFormatError):
    """An arc line is not exactly two integers."""


class ArcCountError(EdgeListFormatError):
    """The number of arc lines differs from the declared count."""


class NegativeValueError(EdgeListFormatError):
    """A vertex index or count in the file is negative."""


class DigraphValidationError(StrongProdError):
    """A parsed document does not describe a valid simple digraph."""


class SelfLoopError(DigraphValidationError):
    pass


class DuplicateArcError(DigraphValidationError):
    pass


class VertexRangeError(DigraphValidationError):
    pass


class EmptyGraphError(DigraphValidationError):
    pass


class NotStronglyConnectedError(StrongProdError):
    """A distance computation hit an unreachable ordered pair.

    ``factor`` is the 0-based index of the offending factor when the error
    comes from a product computation, else None.
    """

    def __init__(self, message: str = "digraph is not strongly connected",
                 factor: int | None = None):
        self.factor = factor
        super().__init__(message)


class OrderTooSmallError(StrongProdError):
    """Average distance needs at least two vertices."""


class ProductTooLargeError(StrongProdError):
    """A product passes the vertex limit, or it outgrows memory."""


class DistanceMatrixTooLargeError(StrongProdError):
    """A distance matrix, or the work arrays that compute it, do not fit in memory."""


class EmptyFactorListError(StrongProdError):
    """A product of zero factors was requested."""


class ArityMismatchError(StrongProdError):
    """Coordinate tuples and factor lists disagree in length."""


class CoordRangeError(StrongProdError):
    """A coordinate or flat index falls outside the factor dimensions."""
