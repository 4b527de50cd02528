"""Explicit strong product construction and the flat-index vertex codec.

A product vertex is a tuple of factor coordinates; its flat index is the
row-major mixed-radix encoding with the leftmost factor most significant.
The product carries each arc ``(t, h)`` as one integer key ``t * N + h``
for any number of factors, formed from the factors' own keys, and a
``Digraph`` keeps its sorted keys as they are. The all-stay moves, which
are not arcs, are never formed; since the factors were validated, the
codec is a bijection and only all-stay moves have ``t == h``, the arcs
are valid by construction and skip the ``Digraph`` checks. Only past
2**63 vertices can an arc reach a vertex that int64 cannot hold; the
product is refused then.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

import numpy as np

from .digraph import _VERTEX_LIMIT, Digraph, _integer, _key_dtype
from .errors import ProductTooLargeError, _memory_guard

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


def _check_vertex_limit(n: int, limit: int) -> None:
    """Refuse, as :class:`ProductTooLargeError`, a product of more than ``limit`` vertices."""
    if n > limit:
        raise ProductTooLargeError(f"product has {n} vertices, limit is {limit}")


def _too_large(n: int, m: int) -> ProductTooLargeError:
    """The error for a product of ``n`` vertices and ``m`` arcs that memory cannot hold."""
    return ProductTooLargeError(f"product has {n} vertices and {m} arcs, too many for memory")


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
    factor is in the codec, and a factor's arc key ``t * n_g + h`` becomes
    the step ``t * N + h``. From the rightmost factor leftwards, a suffix's
    arcs are the factor's arcs combined with every move of the rest, and
    its stays with the rest's arcs; the all-stay moves are never formed.
    The keys are sorted once and become the keys of the digraph returned
    (``Digraph._from_sorted_keys``); no rows are decoded.

    The arcs are valid by construction, so the ``Digraph`` checks are
    skipped: the factors were checked, the codec is a bijection, so no
    arc repeats, and only all-stay moves have ``t == h``. Only the int64
    range is not guaranteed: past 2**63 vertices an arc may reach a vertex
    it cannot hold. Raises :class:`ProductTooLargeError` then, past
    ``max_vertices``, or when the keys do not fit in memory.
    """
    if not gs:
        raise ValueError("need at least one factor")
    n = prod(g.n for g in gs)
    _check_vertex_limit(n, max_vertices)
    m = prod(g.n + g.m for g in gs) - n
    dtype = _key_dtype(n)
    with _memory_guard(_too_large(n, m), dtype.itemsize * m):
        # Keys of the arcs of the factors done so far (a suffix), and its order.
        # Every value formed below, partial products included, is below
        # N * N, so the key dtype holds it.
        keys, order = np.zeros(0, dtype=dtype), 1
        for g in reversed(gs):
            k = g._keys.astype(dtype, copy=False)
            steps = (k + k // g.n * (n - g.n)) * order
            # The factor's steps with every move of the suffix, its stays with
            # the suffix's arcs. The suffix's stays x -> x have keys x * (N + 1);
            # each all-stay array is formed only when it pairs with something.
            parts = [(steps, keys)]
            if g.m:
                parts.append((steps, np.arange(order, dtype=dtype) * (n + 1)))
            if len(keys):
                parts.append((np.arange(g.n, dtype=dtype) * (n + 1) * order, keys))
            # The last of these arrays is the largest: a product too large for
            # memory fails there, before the sort.
            keys = np.empty(sum(len(a) * len(b) for a, b in parts), dtype=dtype)
            start = 0
            for a, b in parts:
                block = keys[start:start + len(a) * len(b)]
                np.add.outer(a, b, out=block.reshape(len(a), len(b)))
                start += len(block)
            order *= g.n
        keys.sort()
    # Past 2**63 vertices (object keys) an arc's label may not fit int64.
    if n > _VERTEX_LIMIT and m and max(keys[-1] // n, (keys % n).max()) >= _VERTEX_LIMIT:
        raise ProductTooLargeError(
            f"product has {n} vertices, and an arc has a vertex outside "
            f"[0, {_VERTEX_LIMIT}), the vertices an arc can hold"
        )
    return Digraph._from_sorted_keys(n, keys)
