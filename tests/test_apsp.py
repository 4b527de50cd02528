"""The APSP kernels against their BFS oracle, plus diameter and mean distance.

Fixture matrices were first computed by exhaustive path enumeration on the
small graphs before being frozen here.
"""

import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

import strongprod.apsp as apsp
from strongprod.apsp import (
    UNREACHABLE,
    DistanceMatrix,
    _bfs_fill,
    _initial_distances,
    _kernel_dtype,
    _relax,
    _sentinel,
    all_pairs_distances,
    bfs_distances,
    diameter,
    distance_counts,
)
from strongprod.digraph import Digraph, is_strongly_connected
from strongprod.errors import (
    DistanceMatrixTooLargeError,
    NotStronglyConnectedError,
    OrderTooSmallError,
)
from strongprod.metrics import average_distance_product_n

from .generate import (
    complete_digraph,
    directed_cycle,
    directed_path,
    half_clique_and_path,
    random_digraph,
)
from .strategies import arc_set, digraphs, strongly_connected_digraphs


def bfs_row(g, source):
    """``bfs_distances`` as a row of ``DistanceMatrix.array``."""
    return [UNREACHABLE if e is None else e for e in bfs_distances(g, source)]


def packed_bfs(g):
    """The packed BFS kernel with no level bound (``g.n`` levels always suffice)."""
    d = np.empty((g.n, g.n), dtype=_kernel_dtype(g.n))
    assert _bfs_fill(d, g, g.n)
    return d


class TestFloydWarshall:
    def test_three_cycle(self):
        d = all_pairs_distances(directed_cycle(3))
        assert d.array.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]

    def test_path_has_unreachable(self):
        d = all_pairs_distances(directed_path(3))
        assert d.entry(0, 2) == 2
        assert d.entry(2, 0) is None

    def test_complete_three(self):
        d = all_pairs_distances(complete_digraph(3))
        assert all(
            d.entry(i, j) == (0 if i == j else 1)
            for i in range(3)
            for j in range(3)
        )

    def test_single_vertex(self):
        assert all_pairs_distances(complete_digraph(1)).array.tolist() == [[0]]


class TestDistanceMatrixValue:
    def test_equal_matrices_compare_and_hash_equal(self):
        a, b = all_pairs_distances(directed_cycle(4)), all_pairs_distances(directed_cycle(4))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_matrices_differ(self):
        assert all_pairs_distances(directed_cycle(4)) != all_pairs_distances(directed_path(4))
        assert all_pairs_distances(directed_cycle(3)) != all_pairs_distances(directed_cycle(4))

    def test_array_is_read_only(self):
        d = all_pairs_distances(directed_path(3))
        assert d.array[2, 0] == UNREACHABLE
        with pytest.raises(ValueError):
            d.array[2, 0] = 1
        assert d.array[2].tolist() == [UNREACHABLE, UNREACHABLE, 0]

    def test_from_nested_lists(self):
        d = DistanceMatrix([[0, 1], [UNREACHABLE, 0]])
        assert d == all_pairs_distances(directed_path(2))
        assert d.entry(1, 0) is None

    @pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (3, 0)])
    def test_entry_outside_the_order_raises(self, i, j):
        # numpy would wrap a negative index to another pair's distance.
        d = all_pairs_distances(directed_path(3))
        with pytest.raises(IndexError, match=rf"^vertex pair \({i}, {j}\) outside \[0, 3\)$"):
            d.entry(i, j)

    def test_finite_array_is_the_array_itself(self):
        d = all_pairs_distances(directed_cycle(3))
        assert d.finite_array() is d.array
        assert not d.finite_array().flags.writeable

    def test_finite_array_names_the_first_unreachable_pair(self):
        # Row-major order: (1, 0) comes before (2, 0) and (2, 1).
        d = all_pairs_distances(directed_path(3))
        with pytest.raises(NotStronglyConnectedError, match="from 1 to 0$"):
            d.finite_array()

    def test_unreachable_pair_is_found_without_an_n_by_n_temporary(self):
        # ``== UNREACHABLE`` over the whole matrix would make a 4 MB bool
        # temporary here, and ``argmin`` an 8 MB copy; reductions make none.
        n = 2000
        a = np.ones((n, n), dtype=np.int16)
        np.fill_diagonal(a, 0)
        a[1500, 3] = a[1234, 1900] = a[1234, 567] = UNREACHABLE
        d = DistanceMatrix(a)
        tracemalloc.start()
        try:
            finite = d.all_finite
            with pytest.raises(NotStronglyConnectedError,
                               match="^no directed path from 1234 to 567$"):
                d.finite_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not finite
        assert peak < n * n // 64

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((2, 3), dtype=np.int16))

    @pytest.mark.parametrize("bad", [-2, 2, 40000])
    def test_out_of_range_distance_rejected(self, bad):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0, bad], [1, 0]], dtype=np.int64))

    def test_non_integer_distances_rejected(self):
        # A cast to the kernel dtype would truncate 1.5 to 1.
        with pytest.raises(TypeError, match="integer dtype, got float64$"):
            DistanceMatrix([[0, 1.5], [1, 0]])


class TestKernelDtype:
    @pytest.mark.parametrize("n, dtype", [
        (1, np.int16), (2**14 - 1, np.int16), (2**14, np.int32),
    ])
    def test_narrowest_dtype(self, n, dtype):
        assert _kernel_dtype(n) == dtype

    @pytest.mark.parametrize("n", [1, 2**14 - 1, 2**14])
    def test_sentinel_above_distances_and_sum_does_not_wrap(self, n):
        dtype = _kernel_dtype(n)
        s = _sentinel(dtype)
        assert s > n - 1
        doubled = np.array([s], dtype=dtype) + np.array([s], dtype=dtype)
        assert doubled.dtype == dtype
        assert int(doubled[0]) == 2 * s

    @pytest.mark.parametrize("family", [directed_path, directed_cycle])
    def test_maximal_distances_match_bfs(self, family):
        g = family(300)
        d = all_pairs_distances(g)
        assert d.array.dtype == np.int16
        assert int(d.array.max()) == g.n - 1
        for source in range(g.n):
            assert d.array[source].tolist() == bfs_row(g, source)


class TestBfsDistances:
    def test_three_cycle(self):
        assert bfs_distances(directed_cycle(3), 0) == (0, 1, 2)

    def test_path_from_sink(self):
        assert bfs_distances(directed_path(3), 2) == (None, None, 0)

    def test_complete_two(self):
        assert bfs_distances(complete_digraph(2), 0) == (0, 1)

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            bfs_distances(directed_cycle(3), 3)


class TestDiameter:
    def test_three_cycle(self):
        assert diameter(all_pairs_distances(directed_cycle(3))) == 2

    def test_complete_three(self):
        assert diameter(all_pairs_distances(complete_digraph(3))) == 1

    def test_path_raises(self):
        with pytest.raises(NotStronglyConnectedError):
            diameter(all_pairs_distances(directed_path(3)))

    def test_single_vertex(self):
        assert diameter(all_pairs_distances(complete_digraph(1))) == 0


class TestAverageDistance:
    def test_three_cycle(self):
        assert average_distance_product_n([directed_cycle(3)]).mu == Fraction(3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_digraphs_average_one(self, n):
        assert average_distance_product_n([complete_digraph(n)]).mu == 1

    def test_path_raises(self):
        with pytest.raises(NotStronglyConnectedError):
            average_distance_product_n([directed_path(3)]).mu

    def test_single_vertex_raises(self):
        with pytest.raises(OrderTooSmallError):
            average_distance_product_n([complete_digraph(1)]).mu


@given(digraphs(max_n=10))
def test_floyd_matches_bfs_everywhere(g):
    d = all_pairs_distances(g)
    for source in range(g.n):
        assert d.array[source].tolist() == bfs_row(g, source)


@given(digraphs(max_n=8))
def test_entry_bounds_and_arc_distances(g):
    d = all_pairs_distances(g)
    arcs = arc_set(g)
    for i in range(g.n):
        assert d.entry(i, i) == 0
        for j in range(g.n):
            e = d.entry(i, j)
            if e is not None:
                assert 0 <= e <= g.n - 1
            if i != j:
                assert (e == 1) == ((i, j) in arcs)


@given(digraphs(max_n=7))
def test_triangle_inequality(g):
    d = all_pairs_distances(g)
    for i in range(g.n):
        for j in range(g.n):
            for k in range(g.n):
                a, b, c = d.entry(i, j), d.entry(i, k), d.entry(k, j)
                if b is not None and c is not None:
                    assert a is not None and a <= b + c


@given(digraphs(max_n=8))
def test_relaxation_is_idempotent(g):
    d = _initial_distances(g)
    _relax(d)
    again = d.copy()
    _relax(again)
    assert np.array_equal(d, again)


@given(strongly_connected_digraphs(max_n=8))
@settings(max_examples=60)
def test_average_distance_at_least_one(g):
    mu = average_distance_product_n([g]).mu
    assert mu >= 1
    if g.m == g.n * (g.n - 1):
        assert mu == 1
    else:
        assert mu > 1


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_average_one_exactly_for_complete(n):
    assert average_distance_product_n([complete_digraph(n)]).mu == 1


def _with_source(g):
    """``g`` without the arcs into vertex 0, which then reaches but is never reached."""
    return Digraph(g.n, g.arc_array[g.arc_array[:, 1] != 0])


def _two_cycles(n):
    """Two disjoint directed cycles; unconnected from n = 4 on."""
    h = n // 2
    arcs = [(i, (i + 1) % h) for i in range(h)] if h > 1 else []
    arcs += [(h + i, h + (i + 1) % (n - h)) for i in range(n - h)] if n - h > 1 else []
    return Digraph(n, arcs)


def _with_sink(n):
    """A cycle on vertices 0..n-2, each with an arc into the sink n - 1."""
    cycle = [(i, (i + 1) % (n - 1)) for i in range(n - 1)] if n > 2 else []
    return Digraph(n, cycle + [(i, n - 1) for i in range(n - 1)])


def _family(name, n):
    rng = random.Random(n)
    return {
        "complete": lambda: complete_digraph(n),
        "sink": lambda: _with_sink(n),
        "cycle": lambda: directed_cycle(n) if n > 1 else complete_digraph(1),
        "path": lambda: directed_path(n),
        "sparse": lambda: random_digraph(rng, n, min(1.0, 2 / n)),
        "dense": lambda: random_digraph(rng, n, 0.3),
        "edgeless": lambda: Digraph(n, ()),
        "source": lambda: _with_source(random_digraph(rng, n, min(1.0, 3 / n))),
        "two_cycles": lambda: _two_cycles(n),
    }[name]()


WORD_BOUNDARY_FAMILIES = [
    "complete", "sink", "cycle", "path", "sparse", "dense", "edgeless", "source", "two_cycles",
]


@pytest.mark.parametrize("name", WORD_BOUNDARY_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 300])
def test_packed_bfs_matches_bfs_across_word_boundaries(name, n):
    g = _family(name, n)
    d = packed_bfs(g)
    assert d.dtype == _kernel_dtype(n) and d.flags.c_contiguous
    for source in range(n):
        assert d[source].tolist() == bfs_row(g, source)


@pytest.mark.parametrize("name", WORD_BOUNDARY_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
def test_distance_counts_match_bfs_across_word_boundaries(name, n):
    g = _family(name, n)
    rows = np.array([bfs_row(g, source) for source in range(n)])
    assert distance_counts(g).tolist() == np.bincount(rows[rows != UNREACHABLE]).tolist()


def _walk(g):
    """Walk ``g``'s levels with no bound: the targets never reached, the
    gathers made, and the ``count_nonzero`` calls, one a gather for its
    new targets and one for each check that every target is reached."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(getattr(arg, "__qualname__", None))

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        unreached = apsp._bfs_levels(g, g.n, lambda *level: None)
    finally:
        sys.setprofile(outer)
    # Each gather takes the frontier rows of each run of tails once.
    runs = len(apsp._gather_chunks(*g._out_csr, -(-g.n // 64)))
    gathers, rest = divmod(calls.count("ndarray.take"), runs)
    assert not rest
    return unreached, gathers, calls.count("count_nonzero")


def _largest_distance(g):
    return max(max((e for e in bfs_distances(g, s) if e is not None)) for s in range(g.n))


@pytest.mark.parametrize("n", [3, 63, 64, 65, 127, 128, 129])
def test_a_walk_on_a_complete_digraph_gathers_once(n):
    # Level 1 reaches every target, and bits past vertex n - 1 are not
    # targets to wait for.
    unreached, gathers, counts = _walk(complete_digraph(n))
    assert not unreached.any()
    assert (gathers, counts) == (1, 2)


@pytest.mark.parametrize("n", [4, 64, 65, 129])
def test_a_walk_stops_when_all_but_the_sink_reach_everything(n):
    # The sink reaches nothing, yet the walk ends on the level at which
    # every other vertex has reached every target, and no later.
    g = _with_sink(n)
    assert g.m > n
    unreached, gathers, counts = _walk(g)
    assert gathers == _largest_distance(g) == n - 2
    assert counts == 2 * gathers
    d = all_pairs_distances(g).array
    assert d[-1, :-1].tolist() == [UNREACHABLE] * (n - 1) and d[-1, -1] == 0
    assert np.array_equal(d, packed_bfs(g))


@pytest.mark.parametrize("name", ["source", "two_cycles"])
@pytest.mark.parametrize("n", [6, 65])
def test_a_walk_that_leaves_pairs_unreached_ends_on_an_empty_level(name, n):
    g = _family(name, n)
    unreached, gathers, counts = _walk(g)
    assert unreached.any()
    assert gathers == _largest_distance(g) + 1
    # A check that every target is reached follows each level that
    # reaches some, where m > n.
    assert counts == (2 * gathers - 1 if g.m > n else gathers)


@pytest.mark.parametrize("g", [
    directed_cycle(150), directed_path(65), _two_cycles(64),
], ids=["c150", "p65", "two-cycles-64"])
def test_a_walk_with_no_more_arcs_than_vertices_makes_no_reach_check(g):
    # Its levels gather no more rows than the check would read: the walk
    # ends on the level that reaches nothing, with one count a level.
    assert g.m <= g.n
    _, gathers, counts = _walk(g)
    assert gathers == _largest_distance(g) + 1
    assert counts == gathers


@pytest.mark.parametrize("buffer_bytes", [1, 200, 1000])
@pytest.mark.parametrize("name", ["sparse", "dense", "source", "two_cycles"])
def test_packed_bfs_in_small_buffers(name, buffer_bytes, monkeypatch):
    # One tail per gather chunk, or a few, chunks that end in tails without
    # arcs, and blocks of one or a few assembled rows.
    g = _family(name, 129)
    expected = packed_bfs(g)
    monkeypatch.setattr(apsp, "_BUFFER_BYTES", buffer_bytes)
    assert np.array_equal(packed_bfs(g), expected)


@given(digraphs(max_n=12))
def test_packed_bfs_matches_bfs_everywhere(g):
    d = packed_bfs(g)
    for source in range(g.n):
        assert d[source].tolist() == bfs_row(g, source)


@pytest.mark.parametrize("g, floyd_runs", [
    (half_clique_and_path(200), 1),
    (directed_cycle(200), 0),
    (_family("dense", 129), 0),
    # Diameter equal to the level budget: the last level, which reaches
    # nothing, does not count against it.
    (directed_cycle(30), 0),
    (directed_path(31), 0),
])
def test_floyd_warshall_runs_only_past_the_work_bound(g, floyd_runs, monkeypatch):
    calls = []

    def counting_relax(d):
        calls.append(d.shape)
        _relax(d)

    monkeypatch.setattr(apsp, "_relax", counting_relax)
    d = all_pairs_distances(g)
    assert len(calls) == floyd_runs
    assert d.array.dtype == _kernel_dtype(g.n) and d.array.flags.c_contiguous
    assert np.array_equal(d.array, packed_bfs(g))


@pytest.mark.parametrize("call", [
    lambda g: bfs_distances(g, True),
    lambda g: all_pairs_distances(g).entry(True, 2),
], ids=["bfs_distances", "entry"])
def test_bool_vertices_are_rejected(call):
    # A bool is an int to Python, but not a vertex.
    with pytest.raises(TypeError, match="^'bool' object cannot be interpreted as an integer$"):
        call(directed_cycle(3))


def test_an_order_past_numpy_sizes_is_named():
    g = Digraph(5_000_000_000, [(0, 4_999_999_999)])
    with pytest.raises(DistanceMatrixTooLargeError, match="5000000000 x 5000000000"):
        all_pairs_distances(g)


def _finite_counts(g):
    """The bincount of the finite entries of ``g``'s distance matrix."""
    a = all_pairs_distances(g).array
    return np.bincount(a[a != UNREACHABLE].astype(np.intp))


@given(digraphs(max_n=12))
@example(complete_digraph(1))
@example(Digraph(3, [(0, 1), (1, 0), (1, 2)]))  # a sink
@example(Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 2)]))  # an arc in and out of each vertex
@example(Digraph(5, ()))
@example(half_clique_and_path(200))  # past the work bound: Floyd-Warshall
def test_distance_counts_are_the_matrix_counts(g):
    counts = distance_counts(g)
    assert counts.dtype == np.int64
    assert counts.tolist() == _finite_counts(g).tolist()
    assert (counts.sum() == g.n * g.n) == is_strongly_connected(g)


@pytest.mark.parametrize("g, floyd_runs", [
    (half_clique_and_path(200), 1),
    (_with_source(half_clique_and_path(200)), 1),
    (_family("two_cycles", 129), 0),
    (directed_path(31), 0),
])
def test_distance_counts_past_the_work_bound(g, floyd_runs, monkeypatch):
    # Floyd-Warshall's matrix is counted only where the search gives up,
    # and the pairs it leaves unreachable are not counted.
    calls = []
    relax = apsp._relax
    monkeypatch.setattr(apsp, "_relax", lambda d: calls.append(relax(d)))
    assert distance_counts(g).tolist() == _finite_counts(g).tolist()
    assert len(calls) == 2 * floyd_runs


@pytest.mark.parametrize("count_block", [1, 1000, 2000])
@pytest.mark.parametrize("name", ["cycle", "sparse", "source", "two_cycles"])
def test_distance_counts_in_small_blocks(name, count_block, monkeypatch):
    # Blocks of 1, 2 and 5 levels' popcounts, the last block full or not.
    g = _family(name, 129)
    monkeypatch.setattr(apsp, "_COUNT_BLOCK", count_block)
    assert distance_counts(g).tolist() == _finite_counts(g).tolist()


def test_distance_counts_make_no_matrix():
    # A sparse 2000-vertex digraph: its int16 matrix would be 8 MB, the
    # search's three bit sets are 1.5 MB.
    rng = np.random.default_rng(2)
    n = 2000
    v = np.arange(n)
    arcs = {(int(a), int(b)) for a, b in zip(v, (v + 1) % n)}
    arcs |= {(int(a), int(b)) for a, b in rng.integers(0, n, (3 * n, 2)) if a != b}
    g = Digraph(n, arcs)
    tracemalloc.start()
    try:
        counts = distance_counts(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == n * n
    assert peak < n * n


def test_distance_counts_name_a_search_past_numpy_sizes():
    g = Digraph(5_000_000_000, [(0, 4_999_999_999)])
    with pytest.raises(DistanceMatrixTooLargeError,
                       match=r"^the 5000000000 x 5000000000 distance search \(\d+ bytes\) "
                             r"does not fit in memory$"):
        distance_counts(g)


@pytest.mark.parametrize("call", [all_pairs_distances, distance_counts])
def test_floyd_warshall_out_of_memory_is_named(call, monkeypatch):
    # Past the work bound, a failed allocation in Floyd-Warshall names the
    # int16 matrix, whichever entry point ran it.
    def fail(d):
        raise MemoryError()

    monkeypatch.setattr(apsp, "_relax", fail)
    with pytest.raises(DistanceMatrixTooLargeError,
                       match=r"^the 200 x 200 distance matrix \(80000 bytes\) "
                             r"does not fit in memory$"):
        call(half_clique_and_path(200))


def test_distance_counts_name_a_search_out_of_memory(monkeypatch):
    def fail(*args):
        raise MemoryError()

    monkeypatch.setattr(apsp, "_bfs_levels", fail)
    with pytest.raises(DistanceMatrixTooLargeError,
                       match=r"^the 65 x 65 distance search \(3120 bytes\) "):
        distance_counts(directed_cycle(65))
