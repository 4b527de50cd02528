"""Floyd-Warshall, the strong product and its distances against networkx,
an oracle outside this package."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongprod.apsp import UNREACHABLE, all_pairs_distances
from strongprod.digraph import Digraph, is_strongly_connected
from strongprod.product import encode_label, strong_product_n

from .strategies import arc_set, digraphs

nx = pytest.importorskip("networkx")


def _networkx_digraph(g):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(arc_set(g))
    return graph


@given(digraphs(max_n=12))
@settings(max_examples=150)
def test_floyd_matches_networkx_shortest_path_lengths(g):
    lengths = dict(nx.all_pairs_shortest_path_length(_networkx_digraph(g)))
    assert all_pairs_distances(g).array.tolist() == _rows(lengths, range(g.n))


@given(digraphs(max_n=12))
@settings(max_examples=150)
# An arc per vertex, and yet a source (vertex 0) or a sink (vertex 2).
@example(Digraph(3, [(0, 1), (1, 2), (2, 1)]))
@example(Digraph(3, [(0, 1), (1, 0), (1, 2)]))
def test_strong_connectivity_matches_networkx(g):
    assert is_strongly_connected(g) == nx.is_strongly_connected(_networkx_digraph(g))


def _rows(lengths, nodes):
    """Distance rows over ``nodes`` in order, UNREACHABLE where there is no path."""
    return [[lengths[u].get(v, UNREACHABLE) for v in nodes] for u in nodes]


def _networkx_product(gs):
    product = _networkx_digraph(gs[0])
    for g in gs[1:]:
        product = nx.strong_product(product, _networkx_digraph(g))
    return product


def _coords(node):
    """Factor coordinates of a nested networkx product node, ((a, b), c) -> a, b, c."""
    if not isinstance(node, tuple):
        return (node,)
    head, last = node
    return (*_coords(head), last)


@given(st.lists(digraphs(max_n=4), min_size=2, max_size=3))
@settings(max_examples=150, deadline=None)
def test_strong_product_matches_networkx(gs):
    expected = _networkx_product(gs)
    dims = [g.n for g in gs]
    product = strong_product_n(gs)
    assert product.n == expected.number_of_nodes()
    assert arc_set(product) == frozenset(
        (encode_label(_coords(u), dims), encode_label(_coords(v), dims))
        for u, v in expected.edges
    )


@given(st.lists(digraphs(max_n=4), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_product_distances_match_networkx(gs):
    expected = _networkx_product(gs)
    lengths = dict(nx.all_pairs_shortest_path_length(expected))
    dims = [g.n for g in gs]
    # networkx nodes in product-vertex order: the row-major codec's order.
    nodes = sorted(expected, key=lambda u: encode_label(_coords(u), dims))
    assert all_pairs_distances(strong_product_n(gs)).array.tolist() == _rows(lengths, nodes)
