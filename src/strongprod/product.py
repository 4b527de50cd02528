"""Explicit strong product construction and the flat-index vertex codec.

A product vertex is a tuple of factor coordinates; its flat index is the
row-major mixed-radix encoding with the leftmost factor most significant.
The product builds every arc under that codec in one array pass, for
any number of factors.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

import numpy as np

from .digraph import Digraph, _integer
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
    and every combination of those moves but the all-stay ones is an arc.
    Combining the factors' move lists under the row-major codec lists each
    arc once: ``prod(n_i + m_i) - prod(n_i)`` arcs in all. Raises
    :class:`ProductTooLargeError` past ``max_vertices``, or when the moves
    do not fit in memory.
    """
    if not gs:
        raise ValueError("need at least one factor")
    n = prod(g.n for g in gs)
    if n > max_vertices:
        raise ProductTooLargeError(
            f"product has {n} vertices, limit is {max_vertices}"
        )
    moves = prod(g.n + g.m for g in gs)
    too_large = ProductTooLargeError(
        f"product has {n} vertices and {moves - n} arcs, too many for memory"
    )
    if moves * np.dtype(np.int64).itemsize > np.iinfo(np.intp).max:
        raise too_large
    try:
        tails = heads = np.zeros(1, dtype=np.int64)
        for g in gs:
            stay = np.arange(g.n, dtype=np.int64)
            tails = np.add.outer(tails * g.n, np.concatenate([g.arc_array[:, 0], stay]))
            heads = np.add.outer(heads * g.n, np.concatenate([g.arc_array[:, 1], stay]))
            tails, heads = tails.ravel(), heads.ravel()
        # Factors have no self-loops, so only the all-stay moves keep tail = head.
        keep = tails != heads
        return Digraph(n, np.stack([tails[keep], heads[keep]], axis=1))
    except MemoryError:
        raise too_large from None
