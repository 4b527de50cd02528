"""Floyd-Warshall against networkx, an oracle outside this package."""

import pytest
from hypothesis import given, settings

from strongprod.apsp import floyd_warshall

from .strategies import digraphs

nx = pytest.importorskip("networkx")


@given(digraphs(max_n=12))
@settings(max_examples=150)
def test_floyd_matches_networkx_shortest_path_lengths(g):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.arcs)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    expected = tuple(
        tuple(lengths[i].get(j) for j in range(g.n)) for i in range(g.n)
    )
    assert floyd_warshall(g).entries == expected
