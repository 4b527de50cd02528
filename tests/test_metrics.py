"""Factor-formula metrics against the explicit-product route.

Fixture values were computed with the explicit product (build it, run the
all-pairs computation, sum the matrix) before being frozen here:
sigma(C3 x C3) = 117, sigma(C2 x C3) = 42, sigma(K2 x K2) = 12.
"""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strongprod.metrics as metrics
from strongprod.apsp import (
    DistanceMatrix,
    _distance_counts,
    all_pairs_distances,
    diameter,
    distance_counts,
)
from strongprod.digraph import Digraph
from strongprod.errors import NotStronglyConnectedError, OrderTooSmallError
from strongprod.metrics import (
    _decimal_12sig,
    average_distance_product_n,
    product_distance_n,
    sigma_from_counts,
    sigma_naive_n,
)
from strongprod.product import strong_product_n

from .generate import complete_digraph, directed_cycle, directed_path
from .strategies import arc_set, strongly_connected_digraphs

D_C2 = all_pairs_distances(directed_cycle(2))
D_C3 = all_pairs_distances(directed_cycle(3))
D_K1 = all_pairs_distances(complete_digraph(1))
D_PATH = all_pairs_distances(directed_path(3))


def matrix_sigma(ds):
    """``sigma_from_counts`` over the bincounts of the matrices, every pair reachable."""
    return sigma_from_counts([np.bincount(d.finite_array().ravel()) for d in ds])


def counted_sigma(gs):
    """``sigma_from_counts`` over the factors' distance counts."""
    return sigma_from_counts([distance_counts(g) for g in gs])


class TestProductDistance:
    def test_first_factor_dominates(self):
        # d1 = d(0,2) = 2 in C3, d2 = d(0,1) = 1
        assert product_distance_n([D_C3, D_C3], (0, 0), (2, 1)) == 2

    def test_second_factor_dominates(self):
        assert product_distance_n([D_C3, D_C3], (0, 0), (1, 2)) == 2

    def test_equal_distances(self):
        assert product_distance_n([D_C3, D_C3], (0, 2), (1, 0)) == 1

    def test_same_vertex_is_zero(self):
        assert product_distance_n([D_C3, D_C2], (1, 0), (1, 0)) == 0

    def test_unreachable_raises(self):
        with pytest.raises(NotStronglyConnectedError):
            product_distance_n([D_PATH, D_C3], (2, 0), (0, 1))

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            product_distance_n([D_C3, D_C3], (0, 0), (3, 1))
        with pytest.raises(IndexError):
            product_distance_n([D_C3, D_C3], (-1, 0), (0, 1))


class TestProductDistanceN:
    def test_single_factor(self):
        assert product_distance_n([D_C3], (0,), (2,)) == 2

    def test_identical_tuples_are_zero(self):
        assert product_distance_n([D_C3, D_C2], (1, 0), (1, 0)) == 0

    def test_triple_against_explicit_product(self):
        # factor distances (2, 1, 1) in C3, C3, C2 must give 2
        ds = [D_C3, D_C3, D_C2]
        assert product_distance_n(ds, (0, 0, 0), (2, 1, 1)) == 2
        explicit = all_pairs_distances(
            strong_product_n(
                [directed_cycle(3), directed_cycle(3), directed_cycle(2)]
            )
        )
        assert explicit.entry(0, (2 * 3 + 1) * 2 + 1) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ValueError,
                           match="^2 factors, 3 source and 2 target coordinates$"):
            product_distance_n([D_C3, D_C2], (0, 0, 0), (1, 1))
        with pytest.raises(ValueError, match="^need at least one factor$"):
            product_distance_n([], (), ())


class TestSigma:
    def test_frozen_fixtures(self):
        c2, c3 = directed_cycle(2), directed_cycle(3)
        assert sigma_naive_n([D_C3, D_C3]) == 117
        assert counted_sigma([c3, c3]) == 117
        assert sigma_naive_n([D_C2, D_C3]) == 42
        assert counted_sigma([c2, c3]) == 42
        assert sigma_naive_n([D_C2, D_C2]) == 12
        assert counted_sigma([c2, c2]) == 12

    def test_unreachable_raises(self):
        with pytest.raises(NotStronglyConnectedError):
            sigma_naive_n([D_PATH, D_C3])

    def test_single_factor_sum(self):
        # one factor: sigma is just the entry sum of that matrix
        assert sigma_naive_n([D_C3]) == 9
        assert counted_sigma([directed_cycle(3)]) == 9

    @pytest.mark.parametrize("route", [
        diameter,
        lambda d: sigma_naive_n([D_C3, d]),
    ], ids=["diameter", "sigma_naive_n"])
    def test_every_route_names_the_first_unreachable_pair(self, route):
        with pytest.raises(NotStronglyConnectedError,
                           match="^no directed path from 1 to 0$"):
            route(D_PATH)

    def test_naive_sum_holds_about_one_block_per_factor(self):
        # C60's 3600 x 3600 maxima at once would be 26 MB of int16; a block of
        # 2**22 is 8 MB, and one is held per factor after the first.
        ds = [all_pairs_distances(directed_cycle(60))] * 2 + [D_C2]
        tracemalloc.start()
        try:
            naive = sigma_naive_n(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert naive == matrix_sigma(ds)
        assert peak < 24 << 20

    def test_counting_copies_no_factor_matrix(self):
        # bincount reads intp: the whole 2000 x 2000 int16 matrix (8 MB) at
        # once would be a 32 MB copy. Counted by blocks of rows, the copies
        # stay far below the matrix itself.
        a = np.add.outer(np.arange(2000), np.arange(2000)) % 50
        d = DistanceMatrix(a.astype(np.int16))
        tracemalloc.start()
        try:
            counts = _distance_counts(d.array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == np.bincount(a.ravel()).tolist()
        assert peak < d.array.nbytes

    def test_empty_factor_list(self):
        with pytest.raises(ValueError, match="^need at least one factor$"):
            sigma_naive_n([])
        with pytest.raises(ValueError, match="^need at least one factor$"):
            sigma_from_counts([])


@given(strongly_connected_digraphs(max_n=6), strongly_connected_digraphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_sigma_methods_agree_and_are_symmetric(g1, g2):
    d1, d2 = all_pairs_distances(g1), all_pairs_distances(g2)
    naive = sigma_naive_n([d1, d2])
    assert counted_sigma([g1, g2]) == naive
    assert counted_sigma([g2, g1]) == naive
    assert sigma_naive_n([d2, d1]) == naive


@given(st.lists(strongly_connected_digraphs(max_n=4), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_nary_sigma_matches_explicit_product(gs):
    ds = [all_pairs_distances(g) for g in gs]
    explicit = all_pairs_distances(strong_product_n(gs))
    expected = int(explicit.finite_array().sum())
    assert counted_sigma(gs) == expected
    assert sigma_naive_n(ds) == expected


@given(strongly_connected_digraphs(max_n=5), strongly_connected_digraphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_binary_formula_matches_explicit_product(g1, g2):
    d1, d2 = all_pairs_distances(g1), all_pairs_distances(g2)
    explicit = all_pairs_distances(strong_product_n([g1, g2]))
    for x1 in range(g1.n):
        for x2 in range(g2.n):
            for y1 in range(g1.n):
                for y2 in range(g2.n):
                    assert product_distance_n([d1, d2], (x1, x2), (y1, y2)) == (
                        explicit.entry(x1 * g2.n + x2, y1 * g2.n + y2)
                    )


class TestAverageDistanceProduct:
    def test_complete_times_complete_is_one(self):
        report = average_distance_product_n([complete_digraph(2), complete_digraph(3)])
        assert report.mu == Fraction(1)
        assert report.mu_decimal == "1.00000000000"
        assert report.diameter == 1

    def test_c2_c3(self):
        report = average_distance_product_n([directed_cycle(2), directed_cycle(3)])
        assert report.sigma == 42
        assert report.mu == Fraction(7, 5)
        assert report.diameter == 2
        assert report.product_order == 6

    def test_c3_c3_all_methods(self):
        for method in ("naive", "counting", "oracle"):
            report = average_distance_product_n(
                [directed_cycle(3), directed_cycle(3)], method=method
            )
            assert report.sigma == 117
            assert report.mu == Fraction(13, 8)
            assert report.mu_decimal == "1.62500000000"
            assert report.diameter == 2
            assert report.method == method

    def test_factor_index_in_error(self):
        with pytest.raises(NotStronglyConnectedError) as info:
            average_distance_product_n([directed_cycle(3), directed_path(3)])
        assert info.value.factor == 1
        assert "factor 1" in str(info.value)

    @pytest.mark.parametrize("method", ["counting", "naive"])
    @pytest.mark.parametrize("factors, index", [
        ([directed_cycle(3), Digraph(3, [(0, 1), (1, 2), (2, 1)])], 1),
        ([Digraph(3, [(0, 1), (1, 0), (1, 2)]), directed_cycle(3)], 0),
    ], ids=["source-second", "sink-first"])
    def test_degree_screen_comes_before_any_matrix(
            self, monkeypatch, factors, index, method):
        # A source or a sink with an arc per vertex is named before any
        # factor's distance matrix is computed.
        def no_matrix(g):
            raise AssertionError("distance matrix computed")

        monkeypatch.setattr(metrics, "all_pairs_distances", no_matrix)
        monkeypatch.setattr(metrics, "distance_counts", no_matrix)
        with pytest.raises(NotStronglyConnectedError) as info:
            average_distance_product_n(factors, method=method)
        assert info.value.factor == index

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            average_distance_product_n([complete_digraph(1), complete_digraph(1)])

    def test_sigma_past_int64_is_exact(self):
        # K2^32 is complete on 2^32 vertices: every ordered pair at distance 1.
        report = average_distance_product_n([complete_digraph(2)] * 32)
        assert report.sigma == 2**32 * (2**32 - 1)
        assert report.sigma > 2**63
        assert report.mu == 1

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            average_distance_product_n(
                [directed_cycle(2), directed_cycle(2)], method="fast"
            )

    def test_empty_factor_list(self):
        with pytest.raises(ValueError, match="^need at least one factor$"):
            average_distance_product_n([])

    def test_single_vertex_factor_reduces_to_other(self):
        report = average_distance_product_n([complete_digraph(1), directed_cycle(3)])
        assert report.sigma == 9
        assert report.mu == Fraction(3, 2)
        assert report.product_order == 3

    @pytest.mark.parametrize("method, measure", [
        ("counting", "distance_counts"),
        ("naive", "all_pairs_distances"),
    ])
    def test_each_distinct_factor_is_measured_once(self, monkeypatch, method, measure):
        # Equal factors are found by order and arc keys, whichever object
        # holds them; a factor of the same order with other arcs is its own.
        calls = []
        original = getattr(metrics, measure)
        monkeypatch.setattr(metrics, measure, lambda g: calls.append(g) or original(g))
        g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        same = Digraph(4, [(0, 2), (3, 0), (2, 3), (1, 2), (0, 1)])
        gs = [g, same, complete_digraph(4), g]
        report = average_distance_product_n(gs, method=method)
        assert calls == [g, complete_digraph(4)]
        expected = average_distance_product_n(gs, method="oracle")
        assert report == replace(expected, method=method)

    def test_counting_makes_no_factor_matrix(self):
        # A sparse 2000-vertex factor: its int16 matrix would be 8 MB.
        rng = np.random.default_rng(3)
        n = 2000
        v = np.arange(n)
        arcs = {(int(a), int(b)) for a, b in zip(v, (v + 1) % n)}
        arcs |= {(int(a), int(b)) for a, b in rng.integers(0, n, (2 * n, 2)) if a != b}
        gs = [Digraph(n, arcs), directed_cycle(3)]
        tracemalloc.start()
        try:
            report = average_distance_product_n(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n
        d = all_pairs_distances(gs[0])
        assert report.sigma == matrix_sigma([d, D_C3])
        assert report.diameter == max(diameter(d), 2)


def test_four_factor_report_matches_oracle():
    factors = [
        directed_cycle(2),
        directed_cycle(3),
        complete_digraph(2),
        directed_cycle(2),
    ]
    counting = average_distance_product_n(factors, method="counting")
    naive = average_distance_product_n(factors, method="naive")
    oracle = average_distance_product_n(factors, method="oracle")
    assert counting.product_order == 24
    assert (counting.sigma, counting.mu, counting.diameter) == (
        (naive.sigma, naive.mu, naive.diameter)
    )
    assert (counting.sigma, counting.mu, counting.diameter) == (
        (oracle.sigma, oracle.mu, oracle.diameter)
    )


class TestAverageDistanceOracle:
    def test_c3_c3(self):
        report = average_distance_product_n(
            [directed_cycle(3), directed_cycle(3)], method="oracle"
        )
        assert report.sigma == 117
        assert report.mu == Fraction(13, 8)
        assert report.diameter == 2
        assert report.method == "oracle"

    def test_complete_factors(self):
        assert average_distance_product_n(
            [complete_digraph(2), complete_digraph(2)], method="oracle"
        ).mu == 1

    def test_disconnected_factor(self):
        with pytest.raises(NotStronglyConnectedError):
            average_distance_product_n(
                [directed_path(2), directed_cycle(2)], method="oracle"
            )


@given(st.lists(strongly_connected_digraphs(max_n=5), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_report_invariants_and_route_agreement(gs):
    """The three routes of the one entry point agree in every field but ``method``."""
    reports = {method: average_distance_product_n(gs, method=method)
               for method in ("naive", "counting", "oracle")}
    counting = reports["counting"]
    for method, report in reports.items():
        assert report.method == method
        assert replace(report, method="counting") == counting
    n = counting.product_order
    assert counting.mu == Fraction(counting.sigma, n * (n - 1))
    assert 1 <= counting.mu <= counting.diameter
    if len(gs) == 1:
        total = int(all_pairs_distances(gs[0]).array.sum())
        assert counting.mu == Fraction(total, n * (n - 1))


@given(strongly_connected_digraphs(max_n=5), strongly_connected_digraphs(max_n=5))
@settings(max_examples=50, deadline=None)
def test_diameter_is_max_of_factor_diameters(g1, g2):
    report = average_distance_product_n([g1, g2], method="oracle")
    d1 = diameter(all_pairs_distances(g1))
    d2 = diameter(all_pairs_distances(g2))
    assert report.diameter == max(d1, d2)


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3), (1, 2), (4, 2)])
def test_mu_is_one_for_complete_factors(n1, n2):
    report = average_distance_product_n([complete_digraph(n1), complete_digraph(n2)])
    assert report.mu == 1


@given(strongly_connected_digraphs(min_n=3, max_n=6), strongly_connected_digraphs(max_n=6))
@settings(max_examples=50, deadline=None)
def test_mu_above_one_when_a_factor_is_incomplete(g1, g2):
    if g1.m == g1.n * (g1.n - 1):
        # drop one arc: with n >= 3 the detour through a third vertex
        # keeps the digraph strongly connected but no longer complete
        g1 = Digraph(g1.n, frozenset(sorted(arc_set(g1))[1:]))
    report = average_distance_product_n([g1, g2])
    assert report.mu > 1


class TestDecimalRendering:
    # expectations computed independently with exhaustive-precision division
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (13, 8, "1.62500000000"),
            (7, 5, "1.40000000000"),
            (1, 1, "1.00000000000"),
            (5, 3, "1.66666666667"),
            (10**12 + 5, 10**12, "1.00000000000"),  # tie rounds to even
            (10**12 + 15, 10**12, "1.00000000002"),
            (21, 2, "10.5000000000"),
        ],
    )
    def test_half_even_at_12_digits(self, num, den, expected):
        assert _decimal_12sig(Fraction(num, den)) == expected
