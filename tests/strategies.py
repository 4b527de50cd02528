"""Hypothesis strategies for random digraphs."""

import hypothesis.strategies as st

from strongprod.digraph import Digraph


def arc_set(g: Digraph) -> frozenset[tuple[int, int]]:
    """The arcs of ``g`` as a set of ``(tail, head)`` pairs."""
    return frozenset(map(tuple, g.arc_array.tolist()))


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 8):
    """Arbitrary simple digraphs, connected or not."""
    n = draw(st.integers(min_n, max_n))
    pairs = _ordered_pairs(n)
    arcs = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return Digraph(n, arcs)


@st.composite
def strongly_connected_digraphs(draw, min_n: int = 2, max_n: int = 8):
    """Strongly connected digraphs: a spanning directed cycle plus extras."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    cycle = {(order[i], order[(i + 1) % n]) for i in range(n)}
    extra = draw(st.frozensets(st.sampled_from(_ordered_pairs(n))))
    return Digraph(n, frozenset(cycle | set(extra)))
