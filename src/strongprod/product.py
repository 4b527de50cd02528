"""Explicit strong product construction and the flat-index vertex codec.

A product vertex is a tuple of factor coordinates; its flat index is the
row-major mixed-radix encoding with the leftmost factor most significant.
The product carries each arc ``(t, h)`` as one integer key ``t * N + h``
from construction to the arc array, for any number of factors. The keys
of the all-stay moves, which are not arcs, are never formed, so no mask
drops them; and since the factors were validated, the codec is a
bijection and only all-stay moves have ``t == h``, the arcs are valid by
construction and skip the ``Digraph`` checks. Only past 2**63 vertices
can an arc reach a vertex the int64 arc array cannot hold; the product
is refused then.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

import numpy as np

from .digraph import _VERTEX_LIMIT, Digraph, _integer, _key_dtype
from .errors import ProductTooLargeError

# Explicit products exist to cross-check the factor-based metrics, which
# have no such limit; keep the oracle path from accidentally exploding.
DEFAULT_MAX_PRODUCT_VERTICES = 20_000


def encode_label(coords: Sequence[int], dims: Sequence[int]) -> int:
    """Flat index of a coordinate tuple under the row-major codec."""
    if len(coords) != len(dims):
        raise ValueError(f"{len(coords)} coordinates for {len(dims)} factors")
    flat = 0
    for x, dim in zip(map(_integer, coords), map(_integer, dims)):
        if not 0 <= x < dim:
            raise IndexError(f"coordinate {x} outside [0, {dim})")
        flat = flat * dim + x
    return flat


def decode_label(flat: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Coordinate tuple of a flat index; inverse of :func:`encode_label`."""
    flat, dims = _integer(flat), [_integer(dim) for dim in dims]
    if not 0 <= flat < prod(dims):
        raise IndexError(f"flat index {flat} outside [0, {prod(dims)})")
    coords = []
    for dim in reversed(dims):
        coords.append(flat % dim)
        flat //= dim
    return tuple(reversed(coords))


def strong_product_n(
    gs: Sequence[Digraph],
    max_vertices: int = DEFAULT_MAX_PRODUCT_VERTICES,
) -> Digraph:
    """Strong product of one or more digraphs, built in one pass.

    Each factor either stays on its vertex or steps along one of its arcs,
    and every combination of those moves but the all-stay ones is an arc:
    ``prod(n_i + m_i) - prod(n_i)`` arcs in all. The arc ``(t, h)`` has
    the key ``t * N + h`` on N product vertices; the codec is linear, so a
    move's key is the sum of its factors' move keys, each weighted as its
    factor is in the codec. From the rightmost factor leftwards, a
    suffix's arcs are the factor's arcs combined with every move of the
    rest, and its stays with the rest's arcs; the all-stay moves are never
    formed. One sort and a division by N give the arc array.

    The arcs are valid by construction, so the ``Digraph`` checks are
    skipped: the factors were checked, the codec is a bijection, so no
    arc repeats, and only all-stay moves have ``t == h``. Only the range
    of the int64 arc array is not guaranteed: past 2**63 vertices an arc
    may reach a vertex it cannot hold. Raises :class:`ProductTooLargeError`
    then, past ``max_vertices``, or when the arcs do not fit in memory.
    """
    if not gs:
        raise ValueError("need at least one factor")
    n = prod(g.n for g in gs)
    if n > max_vertices:
        raise ProductTooLargeError(
            f"product has {n} vertices, limit is {max_vertices}"
        )
    m = prod(g.n + g.m for g in gs) - n
    dtype = _key_dtype(n)
    too_large = ProductTooLargeError(
        f"product has {n} vertices and {m} arcs, too many for memory"
    )
    # Numpy addresses no more bytes than intp holds; the rows take 16 an arc.
    if 16 * m > np.iinfo(np.intp).max:
        raise too_large
    try:
        # The largest array first: a product too large for memory fails at once.
        rows = np.empty((m, 2), dtype=np.int64)
        # Keys of the arcs of the factors done so far (a suffix), and its order.
        # Every value formed below, partial products included, is below
        # N * N, so the key dtype holds it.
        keys, order = np.zeros(0, dtype=dtype), 1
        for g in reversed(gs):
            tails, heads = g.arc_array.astype(dtype, copy=False).T
            steps = (tails * n + heads) * order
            # The factor's steps with every move of the suffix, its stays with
            # the suffix's arcs. The suffix's stays x -> x have keys x * (N + 1);
            # each all-stay array is formed only when it pairs with something.
            parts = [(steps, keys)]
            if g.m:
                parts.append((steps, np.arange(order, dtype=dtype) * (n + 1)))
            if len(keys):
                parts.append((np.arange(g.n, dtype=dtype) * (n + 1) * order, keys))
            keys = np.empty(sum(len(a) * len(b) for a, b in parts), dtype=dtype)
            start = 0
            for a, b in parts:
                block = keys[start:start + len(a) * len(b)]
                np.add.outer(a, b, out=block.reshape(len(a), len(b)))
                start += len(block)
            order *= g.n
        keys.sort()
        # Past 2**63 vertices an arc's label may not fit the int64 rows.
        return Digraph._from_sorted_keys(n, keys, rows)
    except MemoryError:
        raise too_large from None
    except OverflowError:
        raise ProductTooLargeError(
            f"product has {n} vertices, and an arc has a vertex outside "
            f"[0, {_VERTEX_LIMIT}), the vertices an arc can hold"
        ) from None
