"""Digraph families and seeded random generators for the tests."""

from __future__ import annotations

import random

from strongprod.digraph import Digraph, is_strongly_connected


def directed_cycle(n: int) -> Digraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0 (n >= 2)."""
    if n < 2:
        raise ValueError("a directed cycle needs at least 2 vertices")
    return Digraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_digraph(n: int) -> Digraph:
    """All ordered pairs of distinct vertices; n = 1 is the single vertex."""
    return Digraph(n, frozenset((i, j) for i in range(n) for j in range(n) if i != j))


def directed_path(n: int) -> Digraph:
    """0 -> 1 -> ... -> n-1; not strongly connected for n >= 2."""
    return Digraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def half_clique_and_path(n: int) -> Digraph:
    """A complete digraph on half the vertices, a path through the rest back
    to vertex 0: many arcs and a diameter of about n / 2."""
    h = n // 2
    arcs = [(u, v) for u in range(h) for v in range(h) if u != v]
    arcs += [(v, v + 1) for v in range(h - 1, n - 1)] + [(n - 1, 0)]
    return Digraph(n, arcs)


def random_digraph(rng: random.Random, n: int, density: float) -> Digraph:
    """Each of the n(n-1) possible arcs included independently with ``density``."""
    arcs = frozenset(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    )
    return Digraph(n, arcs)


def random_strongly_connected(
    rng: random.Random, n: int, density: float | None = None
) -> Digraph:
    """Rejection-sample :func:`random_digraph` until strongly connected.

    With ``density=None`` a fresh density is drawn per attempt so accepted
    graphs span sparse to dense.
    """
    while True:
        p = rng.uniform(0.2, 0.95) if density is None else density
        g = random_digraph(rng, n, p)
        if is_strongly_connected(g):
            return g
