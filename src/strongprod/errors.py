"""Exception types shared across the package.

The CLI maps these onto its exit codes, so there is one class per failure
category: input format and digraph validity (exit 2), connectivity
(exit 3), and size limits (exit 4), which ``_memory_guard`` raises for
every allocation too large for memory. Mistakes in a library call's
arguments raise ``ValueError``, ``IndexError`` or ``TypeError``.
"""

import sys
from collections.abc import Iterator
from contextlib import contextmanager


class StrongProdError(Exception):
    """Base class of the failure categories below."""


class EdgeListFormatError(StrongProdError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DigraphValidationError(StrongProdError):
    """Arcs or an order that do not describe a valid simple digraph."""


class NotStronglyConnectedError(StrongProdError):
    """A distance computation hit an unreachable ordered pair.

    ``factor`` is the 0-based index of the offending factor when the error
    comes from a product computation, else None.
    """

    def __init__(self, message: str, factor: int | None = None):
        self.factor = factor
        super().__init__(message)


class OrderTooSmallError(StrongProdError):
    """Average distance needs at least two vertices."""


class ProductTooLargeError(StrongProdError):
    """A product passes the vertex limit, outgrows memory, or has an arc past int64."""


class DistanceMatrixTooLargeError(StrongProdError):
    """A distance matrix, or the work arrays of a distance kernel, do not fit in memory."""


@contextmanager
def _memory_guard(error: StrongProdError, nbytes: int) -> Iterator[None]:
    """Raise ``error`` before the block runs when numpy cannot address
    ``nbytes`` (its intp is ``sys.maxsize``), and for a ``MemoryError`` in it."""
    if nbytes > sys.maxsize:
        raise error
    try:
        yield
    except MemoryError:
        raise error from None
