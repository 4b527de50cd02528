"""All-pairs shortest paths and the diameter of one digraph.

``all_pairs_distances`` is the production path: a breadth-first search
from every source at once on packed bits, or Floyd-Warshall once the
search has done as much work as Floyd-Warshall is estimated to need.
``distance_counts`` walks the same search but keeps only how many pairs
each level reaches, so it needs no n x n matrix. ``bfs_distances`` is
their oracle, deliberately separate from both: the plain-Python
breadth-first walk of ``digraph`` that also decides strong connectivity.
All must agree exactly on every digraph, reachable or not.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .digraph import Digraph, _bfs, _integer
from .errors import DistanceMatrixTooLargeError, NotStronglyConnectedError, _memory_guard

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
        if a.dtype.kind not in "iu":
            raise TypeError(f"distances must have an integer dtype, got {a.dtype}")
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
        """Distance from ``i`` to ``j``, or None when there is no path."""
        i, j = _integer(i), _integer(j)
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"vertex pair ({i}, {j}) outside [0, {self.n})")
        e = int(self.array[i, j])
        return None if e == UNREACHABLE else e

    @cached_property
    def all_finite(self) -> bool:
        return bool(self.array.min(initial=0) != UNREACHABLE)

    def finite_array(self) -> np.ndarray:
        """The read-only distance array, once every pair is known reachable.

        Raises :class:`NotStronglyConnectedError` naming the first unreachable
        pair in row-major order. Like ``all_finite``, it makes no n x n
        temporary: no mask, and no ``argmin``, which copies an int16 matrix.
        """
        if not self.all_finite:
            i = int(np.argmax(self.array.min(axis=1) == UNREACHABLE))
            j = int(np.argmax(self.array[i] == UNREACHABLE))
            raise NotStronglyConnectedError(f"no directed path from {i} to {j}")
        return self.array


def _initial_distances(g: Digraph) -> np.ndarray:
    """Arcs at 1, the diagonal at 0, every other pair at the kernel's sentinel."""
    dtype = _kernel_dtype(g.n)
    d = np.full((g.n, g.n), _sentinel(dtype), dtype=dtype)
    offsets, heads = g._out_csr
    d[np.repeat(np.arange(g.n), np.diff(offsets)), heads] = 1
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


def _too_large(what: str, n: int, nbytes: int) -> DistanceMatrixTooLargeError:
    return DistanceMatrixTooLargeError(
        f"the {n} x {n} {what} ({nbytes} bytes) does not fit in memory"
    )


def _matrix_guard(n: int) -> AbstractContextManager[None]:
    """The memory guard of an n x n distance matrix in the kernel's dtype."""
    nbytes = n * n * _kernel_dtype(n).itemsize
    return _memory_guard(_too_large("distance matrix", n, nbytes), nbytes)


def _floyd(g: Digraph) -> np.ndarray:
    """Floyd-Warshall's distances of ``g``, ``UNREACHABLE`` where there is no
    path; its two matrices are the most either entry point ever holds."""
    with _matrix_guard(g.n):
        d = _initial_distances(g)
        _relax(d)
        d[d == _sentinel(d.dtype)] = UNREACHABLE
    return d


def all_pairs_distances(g: Digraph) -> DistanceMatrix:
    """All-pairs shortest directed path lengths of ``g``.

    Unreachable pairs come back as ``UNREACHABLE`` rather than raising;
    downstream metrics decide whether that is an error. Raises
    :class:`DistanceMatrixTooLargeError` when the matrix, or the work
    arrays of either kernel, do not fit in memory.
    """
    with _matrix_guard(g.n):
        # The matrix comes first: an order too large for it fails here,
        # before any other array of n entries is made.
        d = np.empty((g.n, g.n), dtype=_kernel_dtype(g.n))
        searched = _bfs_fill(d, g, _bfs_level_budget(g.n, g.m))
    if searched:
        return DistanceMatrix(d)
    del d  # Floyd-Warshall allocates two matrices of its own
    return DistanceMatrix(_floyd(g))


def distance_counts(g: Digraph) -> np.ndarray:
    """How many ordered pairs of ``g`` lie at each distance, unreachable ones left out.

    Entry v counts the pairs at distance v, up to the largest distance,
    so entry 0 is ``g.n`` and the diameter is the length minus one; ``g``
    is strongly connected iff the counts sum to ``g.n ** 2``. The packed
    search counts each level's new pairs and makes no n x n matrix. Past
    the work bound, Floyd-Warshall's matrix is counted instead. Raises
    :class:`DistanceMatrixTooLargeError` when the search's bit sets, or
    that matrix, do not fit in memory.
    """
    words = -(-g.n // 64)
    # The search's three bit sets: frontier, new and unreached targets.
    nbytes = 3 * g.n * words * _WORD.itemsize
    # Each level's popcounts fill one row of a block, and a full block is
    # summed at once: a sum per level would cost more than its popcounts.
    counts = [np.array([g.n], dtype=np.int64)]
    levels = 0

    def count_level(level: int, new: np.ndarray, unreached: np.ndarray) -> None:
        nonlocal levels
        levels = level
        row = (level - 1) % len(block)
        np.bitwise_count(new, out=block[row])
        if row == len(block) - 1:
            counts.append(block.sum(axis=(1, 2), dtype=np.int64))

    with _memory_guard(_too_large("distance search", g.n, nbytes), nbytes):
        block = np.empty((max(1, _COUNT_BLOCK // (g.n * words)), g.n, words), np.uint8)
        searched = _bfs_levels(g, _bfs_level_budget(g.n, g.m), count_level) is not None
    if not searched:
        return _distance_counts(_floyd(g))
    counts.append(block[:levels % len(block)].sum(axis=(1, 2), dtype=np.int64))
    return np.concatenate(counts)


def _distance_counts(a: np.ndarray) -> np.ndarray:
    """How many entries of the distance array ``a`` hold each distance up to
    its largest, ``UNREACHABLE`` left out, counted a block of rows at a time."""
    # Shifted by one, UNREACHABLE (-1) counts at 0, which is dropped.
    counts = np.zeros(int(a.max()) + 2, dtype=np.int64)
    step = max(1, _COUNT_BLOCK // a.shape[1])
    for r in range(0, len(a), step):
        counts += np.bincount(a[r:r + step].ravel() + 1, minlength=len(counts))
    return counts[1:]


# The work bound, in word operations: a BFS level costs (m + n) * words
# plus _STEP_WORDS, Floyd-Warshall n**3 / _FLOYD_DIVISOR plus _STEP_WORDS
# per pivot. Set from crossovers measured on a 2-vCPU x86-64 host; the
# reasoning and the numbers are in CHANGES.md.
_STEP_WORDS = 2048
_FLOYD_DIVISOR = 16

# Byte budget of the gather buffer, and of each block of assembled rows.
_BUFFER_BYTES = 1 << 18

# Most entries one count reads: a bincount copies matrix entries to intp,
# eight bytes each, so the copy stays small next to an int16 or int32
# matrix; the search's levels' popcounts, a byte per word, are summed by
# blocks of this many.
_COUNT_BLOCK = 1 << 16

# Bit s % 64 of word s // 64 stands for vertex s, little-endian, so the
# words' bytes unpack in vertex order.
_WORD = np.dtype("<u8")


def _bfs_level_budget(n: int, m: int) -> int:
    """Largest distance the packed BFS may find before Floyd-Warshall takes over.

    The search gives up once its levels' work passes the estimate for
    Floyd-Warshall, so an input that needs many levels over many arcs
    costs less than twice Floyd-Warshall alone.
    """
    words = -(-n // 64)
    floyd = n**3 // _FLOYD_DIVISOR + n * _STEP_WORDS
    return floyd // ((m + n) * words + _STEP_WORDS)


def _vertex_bits(v: np.ndarray) -> np.ndarray:
    """Each vertex's own bit within its word."""
    return np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))


def _all_but_self(v: np.ndarray, n: int) -> np.ndarray:
    """Rows of packed sets of the ``n`` vertices: every vertex except ``v[i]``.

    Bits past vertex ``n - 1`` in the last word are clear, so a set that
    every level has emptied holds no bit at all.
    """
    rows = np.full((len(v), -(-n // 64)), np.iinfo(np.uint64).max, dtype=_WORD)
    rows[:, -1] >>= np.uint64(-n % 64)
    rows[np.arange(len(v)), v >> 6] ^= _vertex_bits(v)
    return rows


def _gather_chunks(
    offsets: np.ndarray, heads: np.ndarray, words: int
) -> list[tuple[slice, np.ndarray, np.ndarray | None]]:
    """Runs of tails whose arcs' head rows fit the gather buffer.

    Each run is ``(tails, heads of their arcs, segment starts)`` and holds
    one tail with arcs at least. Tails without arcs at the end of a run are
    left out, so every segment start is in range. One inside a run gets
    the next segment's first row; its rows of the unreached set are zero
    while the search runs, which masks that out. The starts are None when
    every tail of the run has one arc, as on a cycle: the gathered rows
    are then the result, and ``reduceat``, which costs about as much per
    segment as per row, is skipped.
    """
    n = len(offsets) - 1
    per_chunk = max(1, _BUFFER_BYTES // (8 * words))
    chunks = []
    a = 0
    while a < n:
        fits = int(np.searchsorted(offsets, offsets[a] + per_chunk, side="right")) - 1
        b = max(a + 1, fits)
        lo, hi = int(offsets[a]), int(offsets[b])
        if hi > lo:
            last = int(np.searchsorted(offsets, hi))  # one past the last tail with arcs
            starts = offsets[a:last] - lo
            if (np.diff(offsets[a:last + 1]) == 1).all():
                starts = None
            chunks.append((slice(a, last), heads[lo:hi], starts))
        a = b
    return chunks


def _bfs_fill(d: np.ndarray, g: Digraph, max_levels: int) -> bool:
    """Fill ``d`` with the distances of ``g`` by one BFS from all sources at once.

    Plane p collects the targets first reached at a level whose bit p is
    set, so the planes spell every distance in binary. Returns False,
    leaving ``d`` unwritten, when :func:`_bfs_levels` gives up.
    """
    planes: list[np.ndarray] = []

    def add_level(level: int, new: np.ndarray, unreached: np.ndarray) -> None:
        # Over a run of levels with bit p set, the targets first reached
        # are the unreached set at its start XOR the one at its end: XOR
        # the unreached set into plane p wherever bit p flips. A run still
        # open at the end leaves the pairs never reached in plane p too;
        # the assembly writes those as UNREACHABLE whatever the planes hold.
        flips = level ^ (level - 1)
        if flips >> len(planes):
            planes.append(np.zeros_like(new))
        for p in range(flips.bit_length()):
            np.bitwise_xor(planes[p], unreached, out=planes[p])

    unreached = _bfs_levels(g, max_levels, add_level)
    if unreached is None:
        return False
    _assemble(d, unreached, planes)
    return True


def _bfs_levels(
    g: Digraph,
    max_levels: int,
    consume: Callable[[int, np.ndarray, np.ndarray], None],
) -> np.ndarray | None:
    """Walk the levels of one BFS of ``g`` from all sources at once.

    Row v of each bit array is a packed set of targets. A level gathers
    the frontier rows of v's out-neighbours, ORs each tail's segment with
    one ``reduceat`` and keeps the targets v has not reached yet. Each
    level that reaches new targets is handed to ``consume(level, new,
    unreached)``: the targets first reached at that level, and those not
    reached before it. The walk ends right after a level that leaves no
    target unreached, or else at the first level that reaches nothing;
    where ``m <= n`` only the latter is checked, since the former reads as
    many rows as a level gathers. Returns the targets never reached, or
    None when a level past ``max_levels`` still reaches new targets, that
    is when a distance exceeds ``max_levels``; a level that reaches
    nothing and ends the search does not count against it. ``g.n - 1``
    levels always suffice.
    """
    n = g.n
    words = -(-n // 64)
    offsets, heads = g._out_csr
    sinks = np.flatnonzero(offsets[1:] == offsets[:-1])
    v = np.arange(n)
    frontier = np.zeros((n, words), dtype=_WORD)
    frontier[v, v >> 6] = _vertex_bits(v)
    unreached = _all_but_self(v, n)
    unreached[sinks] = 0
    new = np.empty_like(frontier)
    chunks = _gather_chunks(offsets, heads, words)
    longest = max((len(h) for _, h, starts in chunks if starts is not None), default=0)
    gathered = np.empty((longest, words), dtype=_WORD)
    # The test that every target is reached reads n rows: worth it only
    # where a level gathers more.
    check = g.m > n
    level = 1
    while True:
        for tails, heads, starts in chunks:
            if starts is None:
                frontier.take(heads, axis=0, out=new[tails], mode="clip")
                continue
            rows = frontier.take(heads, axis=0, out=gathered[:len(heads)], mode="clip")
            np.bitwise_or.reduceat(rows, starts, axis=0, out=new[tails])
        np.bitwise_and(new, unreached, out=new)
        if not np.count_nonzero(new):
            break
        if level > max_levels:
            return None
        consume(level, new, unreached)
        np.bitwise_xor(unreached, new, out=unreached)
        if check and not np.count_nonzero(unreached):
            break
        frontier, new = new, frontier
        level += 1
    if len(sinks):
        unreached[sinks] = _all_but_self(sinks, n)
    return unreached


def _assemble(d: np.ndarray, unreached: np.ndarray, planes: list[np.ndarray]) -> None:
    """Write ``UNREACHABLE`` and the planes' distances into ``d``, by blocks of rows."""
    n = d.shape[0]
    block = max(1, _BUFFER_BYTES // (n * d.itemsize))
    shifted = np.empty((min(block, n), n), dtype=d.dtype)
    for r in range(0, n, block):
        out = d[r:r + block]
        bits = np.unpackbits(unreached[r:r + block].view(np.uint8), axis=1,
                             count=n, bitorder="little")
        np.negative(bits, out=out, dtype=d.dtype)
        for p, plane in enumerate(planes):
            bits = np.unpackbits(plane[r:r + block].view(np.uint8), axis=1,
                                 count=n, bitorder="little")
            np.left_shift(bits, p, out=shifted[:len(out)], dtype=d.dtype)
            np.bitwise_or(out, shifted[:len(out)], out=out)


def bfs_distances(g: Digraph, source: int) -> tuple[int | None, ...]:
    """Breadth-first distances from ``source``; one row of the matrix.

    The walk that ``is_strongly_connected`` runs, behind a range check.
    """
    source = _integer(source)
    if not 0 <= source < g.n:
        raise IndexError(f"source {source} outside [0, {g.n})")
    return tuple(_bfs(g, source))


def diameter(d: DistanceMatrix) -> int:
    """Maximum distance over ordered vertex pairs; 0 for a single vertex."""
    return int(d.finite_array().max())

