"""Strong product construction and the vertex codec.

Arc counts on the fixture products were frozen only after explicit
enumeration: C2 x C3 has 18 arcs, K2 x K3 is the complete digraph on 6
vertices, and the triple C2 x C2 x C2 is the complete digraph on 8
vertices with 56 arcs.
"""

from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongprod.digraph import _MAX_KEYED_ORDER, Digraph, is_strongly_connected
from strongprod.errors import ProductTooLargeError
from strongprod.product import (
    decode_label,
    encode_label,
    strong_product_n,
)

from .generate import complete_digraph, directed_cycle, directed_path
from .strategies import arc_set, digraphs, strongly_connected_digraphs


class TestLabelCodec:
    def test_binary_example(self):
        assert encode_label((1, 2), (2, 3)) == 5

    def test_zero_decodes_to_origin(self):
        assert decode_label(0, (2, 3, 4)) == (0, 0, 0)

    def test_ternary_example(self):
        assert encode_label((1, 0, 1), (2, 2, 2)) == 5

    def test_out_of_range(self):
        with pytest.raises(IndexError, match=r"^coordinate 2 outside \[0, 2\)$"):
            encode_label((2, 0), (2, 3))
        with pytest.raises(IndexError, match=r"^flat index 6 outside \[0, 6\)$"):
            decode_label(6, (2, 3))
        with pytest.raises(IndexError, match=r"^flat index -1 outside \[0, 6\)$"):
            decode_label(-1, (2, 3))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="^3 coordinates for 2 factors$"):
            encode_label((1, 2, 3), (2, 3))

    @pytest.mark.parametrize("call", [
        lambda: encode_label((0.5, 1), (2, 3)),
        lambda: encode_label((True, 1), (2, 3)),
        lambda: encode_label((1, 1), (2.5, 3)),
        lambda: decode_label(2.5, (2, 3)),
        lambda: decode_label(True, (2, 3)),
        lambda: decode_label(1, (2.5, 3)),
    ], ids=["float-coordinate", "bool-coordinate", "float-dim", "float-flat",
            "bool-flat", "float-dim-decoded"])
    def test_values_that_are_not_integers_are_rejected(self, call):
        with pytest.raises(TypeError):
            call()


@given(digraphs(min_n=1, max_n=5), digraphs(min_n=1, max_n=5))
def test_codec_round_trip_over_product_vertices(g1, g2):
    dims = (g1.n, g2.n)
    for flat in range(g1.n * g2.n):
        assert encode_label(decode_label(flat, dims), dims) == flat


class TestStrongProduct:
    def test_c2_c3_arc_count(self):
        p = strong_product_n([directed_cycle(2), directed_cycle(3)])
        assert p.n == 6
        assert p.m == 18

    def test_k2_k3_is_complete_on_six(self):
        p = strong_product_n([complete_digraph(2), complete_digraph(3)])
        assert p == complete_digraph(6)
        assert p.m == 30

    def test_single_vertex_factor_is_identity(self):
        g = directed_cycle(4)
        assert strong_product_n([g, complete_digraph(1)]) == g
        assert strong_product_n([complete_digraph(1), g]) == g

    def test_size_limit(self):
        with pytest.raises(ProductTooLargeError):
            strong_product_n([directed_cycle(3), directed_cycle(3)], max_vertices=8)

    def test_definition_on_a_small_case(self):
        g1, g2 = directed_path(2), directed_cycle(2)
        p = strong_product_n([g1, g2])
        # vertices: 00->0, 01->1, 10->2, 11->3
        assert arc_set(p) == frozenset(
            {(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3), (0, 3), (1, 2)}
        )


class TestStrongProductN:
    def test_single_factor(self):
        g = directed_cycle(3)
        assert strong_product_n([g]) == g

    def test_triple_c2_is_complete_on_eight(self):
        t = strong_product_n([directed_cycle(2)] * 3)
        assert t.n == 8
        assert t.m == 56
        assert t == complete_digraph(8)

    def test_empty_list(self):
        with pytest.raises(ValueError, match="^need at least one factor$"):
            strong_product_n([])

    def test_limit_applies_to_intermediates(self):
        gs = [directed_cycle(4), directed_cycle(4), directed_cycle(4)]
        with pytest.raises(ProductTooLargeError):
            strong_product_n(gs, max_vertices=20)


@given(digraphs(max_n=3), digraphs(max_n=3), digraphs(max_n=3))
@settings(max_examples=60, deadline=None)
def test_associativity_under_the_codec(a, b, c):
    left = strong_product_n([strong_product_n([a, b]), c])
    right = strong_product_n([a, strong_product_n([b, c])])
    assert left == right


@given(digraphs(max_n=8), digraphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_arc_count_identity(g1, g2):
    p = strong_product_n([g1, g2])
    assert p.m == g1.n * g2.m + g2.n * g1.m + g1.m * g2.m


@given(strongly_connected_digraphs(max_n=6), strongly_connected_digraphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_product_of_connected_factors_is_connected(g1, g2):
    assert is_strongly_connected(strong_product_n([g1, g2]))


@given(st.lists(digraphs(max_n=5), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_product_is_strongly_connected_iff_every_factor_is(gs):
    # What `product --check-connected` decides from the factors alone.
    assert is_strongly_connected(strong_product_n(gs)) == all(
        map(is_strongly_connected, gs))


@given(digraphs(max_n=5), digraphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_commutative_up_to_coordinate_swap(g1, g2):
    ab = strong_product_n([g1, g2])
    ba = strong_product_n([g2, g1])

    def swap(flat):
        x1, x2 = divmod(flat, g2.n)
        return x2 * g1.n + x1

    assert frozenset((swap(u), swap(v)) for u, v in arc_set(ab)) == arc_set(ba)


@given(digraphs(max_n=5), digraphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_product_contains_factor_aligned_copies(g1, g2):
    p = arc_set(strong_product_n([g1, g2]))
    for x1 in range(g1.n):
        induced = frozenset(
            (x2, y2)
            for x2 in range(g2.n)
            for y2 in range(g2.n)
            if (x1 * g2.n + x2, x1 * g2.n + y2) in p
        )
        assert induced == arc_set(g2)
    for x2 in range(g2.n):
        induced = frozenset(
            (x1, y1)
            for x1 in range(g1.n)
            for y1 in range(g1.n)
            if (x1 * g2.n + x2, y1 * g2.n + x2) in p
        )
        assert induced == arc_set(g1)


def _product_by_definition(gs):
    """The strong product from its definition, through the validating constructor.

    Each factor stays or steps along an arc; the coordinate pairs of every
    combination but the all-stay ones, encoded, are the arcs.
    """
    dims = [g.n for g in gs]
    moves = [[(v, v) for v in range(g.n)] + sorted(arc_set(g)) for g in gs]
    arcs = []
    for combination in product(*moves):
        tail = encode_label([t for t, _ in combination], dims)
        head = encode_label([h for _, h in combination], dims)
        if tail != head:
            arcs.append((tail, head))
    return Digraph(prod(dims), arcs)


def _assert_built_as_validated(p):
    """What the constructor's checks guarantee, which the product skips."""
    assert type(p.n) is int
    a = p.arc_array
    assert a.dtype == np.int64
    assert a.shape == (p.m, 2)
    assert not a.flags.writeable
    keys = [u * p.n + v for u, v in a.tolist()]
    assert all(k < next_k for k, next_k in zip(keys, keys[1:]))


@given(st.lists(digraphs(max_n=4), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_product_matches_its_definition(gs):
    p = strong_product_n(gs)
    _assert_built_as_validated(p)
    assert p == _product_by_definition(gs)


@pytest.mark.parametrize("gs", [
    # 46340 vertices, int32 keys, with arcs at the top of the key range.
    [Digraph(2, [(1, 0)]), Digraph(23170, [(23169, 23168), (0, 23169)])],
    # 46341 vertices, int64 keys.
    [Digraph(3, [(2, 0)]), Digraph(15447, [(15446, 15445), (0, 15446)])],
], ids=["46340", "46341"])
def test_key_dtype_boundary_products(gs):
    p = strong_product_n(gs, max_vertices=10**5)
    _assert_built_as_validated(p)
    assert p == _product_by_definition(gs)


_LAST = _MAX_KEYED_ORDER


@pytest.mark.parametrize("gs, arcs", [
    # The last order with int64 keys, and the first past it: the last arc's
    # key is near n * n, which int64 would wrap past the keyed order.
    ([Digraph(1, []), Digraph(_LAST, [(_LAST - 1, 0)])], [(_LAST - 1, 0)]),
    ([Digraph(2, []), Digraph(_LAST // 2 + 1, [(_LAST // 2, _LAST // 2 - 1)])],
     [(_LAST // 2, _LAST // 2 - 1), (_LAST, _LAST - 1)]),
], ids=["last-int64", "first-object"])
def test_products_at_the_keyed_order(gs, arcs):
    p = strong_product_n(gs, max_vertices=10**10)
    _assert_built_as_validated(p)
    assert p == Digraph(prod(g.n for g in gs), arcs)


def test_huge_product_forms_no_all_stay_moves():
    # 3.6 * 10**9 vertices, past the int64 keys, but only 60,000 arcs: the
    # all-stay moves, nearly every move, are never formed.
    gs = [Digraph(60000, []), Digraph(60000, [(0, 1)])]
    p = strong_product_n(gs, max_vertices=10**10)
    _assert_built_as_validated(p)
    assert p.n == 3_600_000_000
    tails = np.arange(60000) * 60000
    assert np.array_equal(p.arc_array, np.stack([tails, tails + 1], axis=1))


def test_products_past_int64_vertices():
    # 2**64 vertices, but with the arc's factor first every arc ends below 8.
    p = strong_product_n([Digraph(2**62, [(0, 1)]), Digraph(4, [])], max_vertices=2**64)
    _assert_built_as_validated(p)
    assert p.arc_array.tolist() == [[0, 4], [1, 5], [2, 6], [3, 7]]
    # With it last, the arcs reach vertex 99 * (10**18 - 1) + 1 > 2**63.
    gs = [Digraph(100, []), Digraph(10**18 - 1, [(0, 1)])]
    with pytest.raises(ProductTooLargeError, match=r"outside \[0, 9223372036854775808\)"):
        strong_product_n(gs, max_vertices=10**21)
