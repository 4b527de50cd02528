"""Floyd-Warshall and the strong product against networkx, an oracle
outside this package."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongprod.apsp import floyd_warshall
from strongprod.product import encode_label, strong_product_n

from .strategies import digraphs

nx = pytest.importorskip("networkx")


def _networkx_digraph(g):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.arcs)
    return graph


@given(digraphs(max_n=12))
@settings(max_examples=150)
def test_floyd_matches_networkx_shortest_path_lengths(g):
    lengths = dict(nx.all_pairs_shortest_path_length(_networkx_digraph(g)))
    expected = tuple(
        tuple(lengths[i].get(j) for j in range(g.n)) for i in range(g.n)
    )
    assert floyd_warshall(g).entries == expected


def _coords(node):
    """Factor coordinates of a nested networkx product node, ((a, b), c) -> a, b, c."""
    head, last = node
    return (*_coords(head), last) if isinstance(head, tuple) else (head, last)


@given(st.lists(digraphs(max_n=4), min_size=2, max_size=3))
@settings(max_examples=150, deadline=None)
def test_strong_product_matches_networkx(gs):
    expected = _networkx_digraph(gs[0])
    for g in gs[1:]:
        expected = nx.strong_product(expected, _networkx_digraph(g))
    dims = [g.n for g in gs]
    product = strong_product_n(gs)
    assert product.n == expected.number_of_nodes()
    assert product.arcs == frozenset(
        (encode_label(_coords(u), dims), encode_label(_coords(v), dims))
        for u, v in expected.edges
    )
