"""All-pairs shortest paths and single-digraph distance statistics.

``floyd_warshall`` is the production path; ``bfs_distances`` is a
deliberately separate plain-Python implementation kept as its oracle:
the two must agree exactly on every digraph, reachable or not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .digraph import Digraph
from .errors import NotStronglyConnectedError, OrderTooSmallError

# Marks an unreachable pair in ``DistanceMatrix.array``.
UNREACHABLE = -1

# Orders below this run the kernel in int16, larger ones in int32.
_INT16_ORDERS = 1 << 14


def _kernel_dtype(n: int) -> np.dtype:
    """Narrowest signed dtype whose sentinel exceeds every distance in order ``n``.

    int32 serves every order below 2**30, far past any n x n matrix that
    fits in memory.
    """
    return np.dtype(np.int16 if n < _INT16_ORDERS else np.int32)


def _sentinel(dtype: np.dtype) -> int:
    """The kernel's "no path" value; sentinel + sentinel still fits ``dtype``."""
    return int(np.iinfo(dtype).max) // 2


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Shortest directed-path lengths as one read-only square int array.

    ``array[i, j]`` is the distance from ``i`` to ``j``, or ``UNREACHABLE``
    (-1) when there is no directed path. The matrix takes ownership of the
    array it is given and makes it read-only; equal matrices compare and
    hash equal.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"distance array must be square, got shape {a.shape}")
        # Checked before the cast to the kernel dtype, which would wrap.
        if a.size and (a.min() < UNREACHABLE or a.max() >= a.shape[0]):
            raise ValueError("distances must lie in [0, n) or be UNREACHABLE")
        a = np.asarray(a, dtype=_kernel_dtype(a.shape[0]))
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return self.n == other.n and self.array.tobytes() == other.array.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self.array.tobytes()))

    def entry(self, i: int, j: int) -> int | None:
        e = int(self.array[i, j])
        return None if e == UNREACHABLE else e

    @cached_property
    def all_finite(self) -> bool:
        return not (self.array == UNREACHABLE).any()

    def finite_array(self) -> np.ndarray:
        """The read-only distance array, once every pair is known reachable.

        Raises :class:`NotStronglyConnectedError` naming the first
        unreachable pair in row-major order.
        """
        if not self.all_finite:
            i, j = divmod(int(np.argmax(self.array == UNREACHABLE)), self.n)
            raise NotStronglyConnectedError(f"no directed path from {i} to {j}")
        return self.array


def _initial_distances(g: Digraph) -> np.ndarray:
    """Arcs at 1, the diagonal at 0, every other pair at the kernel's sentinel."""
    dtype = _kernel_dtype(g.n)
    d = np.full((g.n, g.n), _sentinel(dtype), dtype=dtype)
    d[g.arc_array[:, 0], g.arc_array[:, 1]] = 1
    np.fill_diagonal(d, 0)
    return d


def _relax(d: np.ndarray) -> None:
    """One full relaxation sweep in place: k outermost, whole (m, n) plane per k.

    Row k and column k cannot improve during pass k, so the vectorized form
    is entry-for-entry identical to the sequential in-place triple loop.
    """
    through = np.empty_like(d)
    for k in range(d.shape[0]):
        np.add(d[:, k, None], d[None, k, :], out=through)
        np.minimum(d, through, out=d)


def floyd_warshall(g: Digraph) -> DistanceMatrix:
    """All-pairs shortest directed path lengths of ``g``.

    Unreachable pairs come back as ``UNREACHABLE`` rather than raising;
    downstream metrics decide whether that is an error.
    """
    d = _initial_distances(g)
    _relax(d)
    d[d == _sentinel(d.dtype)] = UNREACHABLE
    return DistanceMatrix(d)


def bfs_distances(g: Digraph, source: int) -> tuple[int | None, ...]:
    """Breadth-first distances from ``source``; one row of the matrix."""
    if not 0 <= source < g.n:
        raise IndexError(f"source {source} outside [0, {g.n})")
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.successors[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1  # type: ignore[operator]
                queue.append(w)
    return tuple(dist)


def diameter(d: DistanceMatrix) -> int:
    """Maximum distance over ordered vertex pairs; 0 for a single vertex."""
    return int(d.finite_array().max())


def average_distance(d: DistanceMatrix) -> Fraction:
    """Exact mean distance over ordered pairs of distinct vertices."""
    if d.n < 2:
        raise OrderTooSmallError("average distance needs at least 2 vertices")
    return Fraction(int(d.finite_array().sum(dtype=np.int64)), d.n * (d.n - 1))
