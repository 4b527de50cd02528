"""Edge-list parsing, digraph validation, adjacency, and connectivity."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strongprod.apsp as apsp
import strongprod.digraph as digraph
from strongprod.apsp import UNREACHABLE, all_pairs_distances, bfs_distances
from strongprod.digraph import (
    _MAX_KEYED_ORDER,
    Digraph,
    EdgeListDocument,
    _edge_list_blocks,
    _parse_arrays,
    _parse_lines,
    _reverse,
    build_digraph,
    is_strongly_connected,
    parse_edge_list,
    write_edge_list,
)
from strongprod.errors import DigraphValidationError, EdgeListFormatError
from strongprod.metrics import METHODS, average_distance_product_n
from strongprod.product import strong_product_n

from .generate import complete_digraph, directed_cycle, directed_path, half_clique_and_path
from .strategies import arc_set, digraphs


def _fields(doc):
    """(n, m, arcs as lists of Python ints) of a parsed document."""
    return doc.n, doc.m, [list(arc) for arc in doc.arcs]


# Plain but for a break other than ``\n`` before or at the header: the
# array route reads only ``\n`` lines, and the scanner reads the same document.
_OTHER_BREAKS_UP_TO_THE_HEADER = (
    "# c\r\n2 1\r\n0 1\n",
    "# c\r\n\r\n" * 40 + "2 1\r\n0 1\n",
    "2 1\r0 1\n",
    "# c\x0c2 1\n0 1\n",
    "# c\u20282 1\n0 1\n",
)


class TestParseEdgeList:
    def test_three_cycle(self):
        doc = parse_edge_list("3 3\n0 1\n1 2\n2 0")
        assert _fields(doc) == (3, 3, [[0, 1], [1, 2], [2, 0]])

    def test_comments_and_blank_lines_skipped(self):
        doc = parse_edge_list("# cycle\n2 2\n0 1\n1 0")
        assert doc.n == 2
        assert doc.arcs.tolist() == [[0, 1], [1, 0]]
        doc = parse_edge_list("\n# a\n\n2 1\n\n0 1\n\n# b\n")
        assert _fields(doc) == (2, 1, [[0, 1]])

    def test_tabs_and_extra_spaces(self):
        doc = parse_edge_list("2\t 2\n0\t1\n1   0\n")
        assert doc.arcs.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("text", [
        "3 3\n0 1\n1 2\n2 0\n",  # plain: the array route
        "3 3\r\n0 1\r\n1 2\r\n2 0\r\n",  # the line scanner
    ])
    def test_arcs_are_a_read_only_int64_array(self, text):
        arcs = parse_edge_list(text).arcs
        assert arcs.dtype == np.int64 and arcs.shape == (3, 2)
        assert not arcs.flags.writeable

    def test_empty_arc_list(self):
        for text in ("4 0", "4 0\n", "# c\n4 0\n\n  \n"):
            arcs = parse_edge_list(text).arcs
            assert arcs.shape == (0, 2) and arcs.dtype == np.int64

    def test_vertex_beyond_int64_is_kept_exactly(self):
        doc = parse_edge_list(f"3 1\n0 {2**63}\n")
        assert _fields(doc) == (3, 1, [[0, 2**63]])
        with pytest.raises(DigraphValidationError,
                           match=f"^arc \\(0, {2**63}\\) outside \\[0, 3\\)$"):
            build_digraph(doc)

    @pytest.mark.parametrize("text", [
        "2 1\n0 1\n",
        "# c\n\n2 1\n\n \t\n0\t 1",
        "# caf\u00e9\n2 1\n0 1\n",
        "2 1\n999999999999999999 0\n",
        "#" * 5000 + "\n2 1\n0 1\n",
    ])
    def test_plain_bodies_take_the_array_route(self, text):
        doc = _parse_arrays(text.encode())
        assert doc is not None
        assert _fields(doc) == _fields(_parse_lines(text))

    @pytest.mark.parametrize("text", [
        "2 1\n# c\n0 1\n",
        "2 1\n0 1\r\n",
        "2 1\n+0 1\n",
        "2 1\n0 1_0\n",
        "2 1\n0 \u0661\n",
        "2 1\n0\u00a01\n",
        "2\u00a01\n0 1\n",
        "1" * 19 + " 0\n",
        "# c\r\n" * 40,
        "# c\r\n" * 40 + "1" * 19 + " 0\n",
        "# c\r\n" * 40 + "2\u00a01\n0 1\n",
        "2 1\n0 1000000000000000000\n",
        "+2 1\n0 1\n",
        "2 1\n0 1 2\n",
        "2 1\n0\n1\n",
        "2 2\n0 1\n",
        "2 1\n0 1\n1 0\n",
        "2 1\n0 -1\n",
        "2 1\n0 x\n",
        "",
        *_OTHER_BREAKS_UP_TO_THE_HEADER,
    ])
    def test_other_text_goes_to_the_line_scanner(self, text):
        assert _parse_arrays(text.encode()) is None
        if text in _OTHER_BREAKS_UP_TO_THE_HEADER:
            assert _fields(parse_edge_list(text)) == (2, 1, [[0, 1]])

    def test_too_few_arcs(self):
        with pytest.raises(EdgeListFormatError, match="^declared 2 arcs, found 1$"):
            parse_edge_list("3 2\n0 1")

    def test_too_many_arcs(self):
        with pytest.raises(EdgeListFormatError,
                           match="^line 3: more than the declared 1 arc lines$") as info:
            parse_edge_list("2 1\n0 1\n1 0")
        assert info.value.line == 3

    def test_malformed_header(self):
        for text, message in [
            ("", "missing 'n m' header line"),
            ("# only comments\n", "missing 'n m' header line"),
            ("3\n", "line 1: expected 'n m', got '3'"),
            ("a b\n", "line 1: expected two integers, got 'a b'"),
            ("1 2 3\n", "line 1: expected 'n m', got '1 2 3'"),
            ("# c\r\n" * 40, "missing 'n m' header line"),
        ]:
            with pytest.raises(EdgeListFormatError, match=f"^{re.escape(message)}$"):
                parse_edge_list(text)

    def test_header_of_many_digits_is_a_format_error(self):
        # Past 4300 digits ``int`` refuses the text on interpreters that cap it.
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("2" * 5000 + " 0\n0 1\n")

    def test_bad_arc_line(self):
        with pytest.raises(EdgeListFormatError,
                           match="^line 3: expected 'u v', got '1 2 0'$") as info:
            parse_edge_list("3 2\n0 1\n1 2 0\n")
        assert info.value.line == 3
        with pytest.raises(EdgeListFormatError,
                           match="^line 2: expected two integers, got 'x y'$"):
            parse_edge_list("2 1\nx y\n")

    def test_negative_values(self):
        # The scanner checks form only; Digraph reports the values.
        doc = parse_edge_list("-1 0\n")
        assert _fields(doc) == (-1, 0, [])
        with pytest.raises(DigraphValidationError,
                           match="^digraph must have at least one vertex$"):
            build_digraph(doc)
        doc = parse_edge_list("2 1\n0 -1\n")
        assert _fields(doc) == (2, 1, [[0, -1]])
        with pytest.raises(DigraphValidationError, match="^arc \\(0, -1\\) outside \\[0, 2\\)$"):
            build_digraph(doc)
        with pytest.raises(EdgeListFormatError, match="^declared -1 arcs, found 1$"):
            parse_edge_list("2 -1\n0 1\n")

    def test_error_names_line(self):
        with pytest.raises(EdgeListFormatError, match="^line 4: expected 'u v'"):
            parse_edge_list("# header comment\n\n2 1\n0 1 2\n")

    @pytest.mark.parametrize("content, header_message, arc_message", [
        ("3", "expected 'n m', got '3'", "expected 'u v', got '3'"),
        ("3 3 3", "expected 'n m', got '3 3 3'", "expected 'u v', got '3 3 3'"),
        ("0", "expected 'n m', got '0'", "expected 'u v', got '0'"),
        ("0 1 2", "expected 'n m', got '0 1 2'", "expected 'u v', got '0 1 2'"),
        ("3 x", "expected two integers, got '3 x'", "expected two integers, got '3 x'"),
        ("x y", "expected two integers, got 'x y'", "expected two integers, got 'x y'"),
    ])
    @pytest.mark.parametrize("where", ["header", "arc"])
    def test_header_and_arc_lines_share_one_rule(self, where, content, header_message,
                                                 arc_message):
        # Blank, '#' and CRLF lines come first; the fault is on line 4 or 8.
        lead = "\r\n# comment\r\n \t\r\n"
        if where == "header":
            text, line, message = f"{lead}{content}\r\n0 1\r\n", 4, header_message
        else:
            text = f"{lead}3 3\r\n# arcs\r\n\r\n0 1\r\n{content}\r\n1 2\r\n"
            line, message = 8, arc_message
        with pytest.raises(EdgeListFormatError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line == line


class TestBuildDigraph:
    def test_three_cycle(self):
        g = build_digraph(parse_edge_list("3 3\n0 1\n1 2\n2 0"))
        assert g == directed_cycle(3)

    def test_self_loop_rejected(self):
        with pytest.raises(DigraphValidationError, match="^self-loop at vertex 0$"):
            build_digraph(EdgeListDocument(2, 1, ((0, 0),)))

    def test_duplicate_arc_rejected(self):
        with pytest.raises(DigraphValidationError,
                           match="^arc \\(0, 1\\) listed more than once$"):
            build_digraph(EdgeListDocument(2, 2, ((0, 1), (0, 1))))

    def test_vertex_out_of_range(self):
        with pytest.raises(DigraphValidationError, match="^arc \\(0, 2\\) outside \\[0, 2\\)$"):
            build_digraph(EdgeListDocument(2, 1, ((0, 2),)))

    def test_empty_graph_rejected(self):
        with pytest.raises(DigraphValidationError,
                           match="^digraph must have at least one vertex$"):
            build_digraph(EdgeListDocument(0, 0, ()))

    # ``fault`` names the kind of fault in each case's test id.
    @pytest.mark.parametrize("n, arcs, fault, message", [
        (3, ((0, 1), (0, 1), (2, 2)), "DuplicateArc",
         "arc (0, 1) listed more than once"),
        (3, ((1, 1), (0, 7)), "SelfLoop", "self-loop at vertex 1"),
        (3, ((0, 7), (1, 1)), "VertexRange", "arc (0, 7) outside [0, 3)"),
        (3, ((0, 1), (0, 9), (0, 1)), "VertexRange", "arc (0, 9) outside [0, 3)"),
        (3, ((0, 9), (0, 9)), "VertexRange", "arc (0, 9) outside [0, 3)"),
        # (1, 0) and (0, 2) share the key 1 * 2 + 0 = 0 * 2 + 2
        (2, ((1, 0), (0, 2)), "VertexRange", "arc (0, 2) outside [0, 2)"),
        (0, ((0, 1), (0, 1)), "EmptyGraph", "digraph must have at least one vertex"),
        (3, ((0, 10**30),), "VertexRange", f"arc (0, {10**30}) outside [0, 3)"),
        (3, ((10**30, 10**30), (0, 10**30)), "SelfLoop",
         f"self-loop at vertex {10**30}"),
        (3, ((0, -1),), "VertexRange", "arc (0, -1) outside [0, 3)"),
        (2**64, ((-1, 2**63),), "VertexRange", f"arc (-1, {2**63}) outside [0, {2**64})"),
        (2**64, ((0, 2**63),), "VertexRange",
         f"arc (0, {2**63}) outside [0, {2**63}), the vertices an arc can hold"),
        # The first repeat in the order given, not the least repeated key.
        (3, ((0, 1), (1, 2), (1, 2), (0, 1)), "DuplicateArc",
         "arc (1, 2) listed more than once"),
        # Past _MAX_KEYED_ORDER the keys are Python ints in an object array.
        (2**64, ((5, 2**62), (0, 1), (5, 2**62), (0, 1)), "DuplicateArc",
         f"arc (5, {2**62}) listed more than once"),
    ])
    def test_first_faulty_arc_in_file_order_is_reported(self, n, arcs, fault, message):
        with pytest.raises(DigraphValidationError) as info:
            build_digraph(EdgeListDocument(n, len(arcs), arcs))
        assert str(info.value) == message

    @given(st.data())
    @settings(max_examples=400)
    def test_first_fault_matches_a_scan_by_definition(self, data):
        """Self-loops, rows out of range (some with colliding keys), huge
        vertices and repeats, against a plain scan in input order."""
        n = data.draw(st.integers(0, 4))
        vertex = st.sampled_from([-1, *range(n + 2), 10**30])
        arcs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=8))
        expected = _first_fault_by_definition(n, arcs)
        inputs = [arcs]
        if all(max(map(abs, arc)) < 2**63 for arc in arcs):
            inputs.append(np.array(arcs, dtype=np.int64).reshape(-1, 2))
        for given_arcs in inputs:
            try:
                g = Digraph(n, given_arcs)
            except DigraphValidationError as exc:
                assert (type(exc), str(exc)) == expected
            else:
                assert expected is None
                assert arc_set(g) == set(arcs) and g.m == len(arcs)

    def test_digraph_constructor_validates(self):
        with pytest.raises(DigraphValidationError,
                           match="^digraph must have at least one vertex$"):
            Digraph(0, frozenset())
        with pytest.raises(DigraphValidationError, match="^self-loop at vertex 1$"):
            Digraph(2, frozenset({(1, 1)}))
        with pytest.raises(DigraphValidationError, match="^arc \\(0, 5\\) outside \\[0, 2\\)$"):
            Digraph(2, frozenset({(0, 5)}))


def _first_fault_by_definition(n, arcs):
    """(error type, message) for the first faulty arc in order, or None."""
    if n < 1:
        return DigraphValidationError, "digraph must have at least one vertex"
    seen = set()
    for u, v in arcs:
        if u == v:
            return DigraphValidationError, f"self-loop at vertex {u}"
        if min(u, v) < 0 or max(u, v) >= n:
            return DigraphValidationError, f"arc ({u}, {v}) outside [0, {n})"
        if max(u, v) >= 2**63:
            return (DigraphValidationError,
                    f"arc ({u}, {v}) outside [0, {2**63}), the vertices an arc can hold")
        if (u, v) in seen:
            return DigraphValidationError, f"arc ({u}, {v}) listed more than once"
        seen.add((u, v))
    return None


def _dense(g):
    """The (0,1) matrix with entry ``[i, j] = 1`` iff ``arc_array`` has the row (i, j)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[g.arc_array[:, 0], g.arc_array[:, 1]] = 1
    return a


def _successors_by_definition(g):
    return tuple(tuple(sorted(v for u, v in arc_set(g) if u == x)) for x in range(g.n))


def _predecessors_by_definition(g):
    return tuple(tuple(sorted(u for u, v in arc_set(g) if v == x)) for x in range(g.n))


def _csr_rows(offsets, heads):
    """The rows of a CSR adjacency as tuples of Python ints."""
    bounds = offsets.tolist()
    return tuple(tuple(heads[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))


class TestDigraphValue:
    @given(digraphs(max_n=8))
    def test_frozenset_and_array_build_equal_graphs(self, g):
        pairs = sorted(arc_set(g))
        from_array = Digraph(g.n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        from_set = Digraph(g.n, frozenset(pairs))
        assert from_array == from_set
        assert hash(from_array) == hash(from_set)

    @given(digraphs(max_n=8))
    def test_arc_array_is_read_only_and_sorted(self, g):
        a = g.arc_array
        assert a.dtype == np.int64 and a.shape == (g.m, 2)
        assert not a.flags.writeable
        keys = a[:, 0] * g.n + a[:, 1]
        assert np.all(keys[1:] > keys[:-1])
        if g.m:
            with pytest.raises(ValueError):
                a[0, 0] = a[0, 1]

    @given(digraphs(max_n=8))
    def test_rows_are_built_on_first_read(self, g):
        # The digraph keeps its arc keys: reading m or writing the edge list
        # builds no row array, and the first read of arc_array builds it.
        pairs = sorted(arc_set(g), reverse=True)
        counted, written = Digraph(g.n, pairs), Digraph(g.n, pairs)
        assert counted.m == g.m
        assert write_edge_list(written) == write_edge_list(g)
        for h in (counted, written):
            assert "arc_array" not in vars(h)
            a = h.arc_array
            assert a.dtype == np.int64 and not a.flags.writeable
            assert a.tolist() == sorted(map(list, pairs))
            assert vars(h)["arc_array"] is a and h.arc_array is a

    @pytest.mark.parametrize("g", [
        directed_cycle(3),
        strong_product_n([directed_cycle(2), directed_path(3)]),
    ], ids=["validated", "product"])
    @pytest.mark.parametrize("name", ["n", "arc_array"])
    def test_attributes_cannot_be_assigned_or_deleted(self, g, name):
        before = (g.n, g.arc_array.tolist())
        with pytest.raises(AttributeError):
            setattr(g, name, getattr(g, name))
        with pytest.raises(AttributeError):
            delattr(g, name)
        assert (g.n, g.arc_array.tolist()) == before

    @pytest.mark.parametrize("n", [5, _MAX_KEYED_ORDER + 1], ids=["int32-keys", "object-keys"])
    def test_equality_and_hash_read_the_keys(self, n):
        # Past _MAX_KEYED_ORDER the keys are Python ints, whose bytes in an
        # object array are pointers: equal digraphs still hash equal.
        arcs = [(0, 1), (1, n - 1), (n - 1, 0)]
        g, h = Digraph(n, arcs), Digraph(n, arcs[::-1])
        moved = Digraph(n, [(0, 2), *arcs[1:]])
        assert g._keys.dtype == (np.int32 if n == 5 else object)
        assert g == h and hash(g) == hash(h)
        assert g != moved and len({g, h, moved}) == 2
        for d in (g, h, moved):
            assert "arc_array" not in vars(d)

    def test_out_csr_copies_no_keys(self):
        # K300 has 89,700 int32 keys; an int64 copy of them takes 717,600 bytes.
        g = complete_digraph(300)
        assert g._keys.dtype == np.int32
        tracemalloc.start()
        try:
            g._out_csr
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.m

    def test_repeat_is_found_from_the_keys(self):
        # Naming the repeat at row 2 turns no row into a Python object: the
        # keys, a stable sort of them and their masks take about 25 bytes a row.
        rows = np.tile(np.array([[0, 1]]), (1_000_000, 1))
        tracemalloc.start()
        try:
            with pytest.raises(DigraphValidationError,
                               match="^arc \\(0, 1\\) listed more than once$"):
                Digraph(3, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * len(rows)

    @given(digraphs(max_n=8))
    def test_derived_views_match_their_definitions(self, g):
        offsets, heads = g._out_csr
        assert heads.dtype == g._keys.dtype
        assert _csr_rows(offsets, heads) == _successors_by_definition(g)
        bounds, head_list = g._out_lists
        assert (bounds, head_list) == (offsets.tolist(), heads.tolist())
        # The connectivity walk reads the reverse digraph's out-rows as in-rows.
        assert _csr_rows(*_reverse(g)._out_csr) == _predecessors_by_definition(g)
        a = _dense(g)
        arcs = arc_set(g)
        for u in range(g.n):
            for v in range(g.n):
                assert (a[u, v] == 1) == ((u, v) in arcs)

    @given(digraphs(max_n=8), st.randoms(use_true_random=False))
    def test_order_and_repeats_do_not_matter(self, g, rng):
        """Any order gives the same digraph; a repeated pair is an error."""
        pairs = sorted(arc_set(g))
        rng.shuffle(pairs)
        assert Digraph(g.n, pairs) == g
        assert Digraph(g.n, iter(pairs)) == g
        assert Digraph(g.n, np.array(pairs, dtype=np.int32).reshape(-1, 2)) == g
        if pairs:
            u, v = pairs[-1]
            with pytest.raises(DigraphValidationError,
                               match=f"^arc \\({u}, {v}\\) listed more than once$"):
                Digraph(g.n, pairs + [pairs[-1]])

    @pytest.mark.parametrize("n, arcs", [
        (2, np.array([[0.5, 1.9]])),
        (3, [(0.7, 2.2)]),
        (3, np.array([[0, 1.5]], dtype=object)),
        (2, np.array([[True, False]])),
        (2.5, [(0, 1)]),
        (2, [(True, False)]),
        (True, []),
    ], ids=["float-array", "float-pairs", "float-object-array", "bool-array",
            "float-order", "bool-pairs", "bool-order"])
    def test_values_that_are_not_integers_are_rejected(self, n, arcs):
        # Casts to int64 would truncate them to other arcs and orders.
        with pytest.raises(TypeError):
            Digraph(n, arcs)

    def test_numpy_integers_are_integers(self):
        g = Digraph(np.int64(3), [(np.int32(0), np.uint8(1))])
        assert g == Digraph(3, [(0, 1)])
        assert type(g.n) is int

    def test_int32_rows_are_keyed_without_wrapping(self):
        # 49999 * 50000 + 1 does not fit in int32.
        arcs = np.array([[49999, 1], [1, 49999]], dtype=np.int32)
        assert Digraph(50000, arcs).arc_array.tolist() == [[1, 49999], [49999, 1]]

    def test_uint64_rows_are_keyed_exactly(self):
        # Keys near 10**18 are past float64's exact integers: two heads one
        # apart, and a repeat, must not be rounded together or apart.
        n = 10**9
        arcs = np.array([[n - 1, n - 2], [n - 1, 1], [n - 1, 0]], dtype=np.uint64)
        assert Digraph(n, arcs).arc_array.tolist() == [[n - 1, 0], [n - 1, 1],
                                                       [n - 1, n - 2]]
        with pytest.raises(DigraphValidationError, match="listed more than once"):
            Digraph(n, np.array([[n - 1, 1], [n - 1, 1]], dtype=np.uint64))

    def test_rejects_rows_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            Digraph(3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            Digraph(3, np.array([[0, 1, 2]]))

    def test_inequality(self):
        assert directed_cycle(3) != directed_path(3)
        assert Digraph(3, ()) != Digraph(4, ())
        assert directed_cycle(3) != "not a digraph"


class TestAdjacencyMatrix:
    def test_three_cycle(self):
        a = _dense(directed_cycle(3))
        assert a.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_complete_two(self):
        assert _dense(complete_digraph(2)).tolist() == [[0, 1], [1, 0]]

    def test_single_vertex(self):
        assert _dense(complete_digraph(1)).tolist() == [[0]]


class TestStrongConnectivity:
    def test_cycle_is_connected(self):
        assert is_strongly_connected(directed_cycle(3))

    def test_path_is_not(self):
        assert not is_strongly_connected(directed_path(3))

    def test_single_vertex_is_connected(self):
        assert is_strongly_connected(complete_digraph(1))

    def test_forward_but_not_backward(self):
        # vertex 0 reaches everything, nothing reaches it
        g = Digraph(3, frozenset({(0, 1), (0, 2), (1, 2), (2, 1)}))
        assert not is_strongly_connected(g)


def _reference_edge_list(g, comments=()):
    """The edge-list text built the plain way, one line per arc."""
    return ("".join(f"# {c}\n" for c in comments) + f"{g.n} {g.m}\n"
            + "".join(f"{u} {v}\n" for u, v in g.arc_array.tolist()))


def test_writer_format_is_exact():
    assert write_edge_list(directed_cycle(3)) == "3 3\n0 1\n1 2\n2 0\n"
    text = write_edge_list(complete_digraph(2), comments=("c",))
    assert text == "# c\n2 2\n0 1\n1 0\n"
    # No arc lines: the head alone, also with object keys.
    for n in (3, 10**20):
        assert write_edge_list(Digraph(n, [])) == f"{n} 0\n"
    # Few labels in a large range: the table holds only the labels in use.
    sparse = Digraph(10**6, [(5, 999_999), (999_999, 5), (12, 100_000)])
    assert write_edge_list(sparse) == "1000000 3\n5 999999\n12 100000\n999999 5\n"
    # Labels that cross from one to two, two to three and three to four digits.
    for g in (directed_cycle(1001), directed_path(101), sparse):
        assert write_edge_list(g, comments=("c",)) == _reference_edge_list(g, ("c",))


def test_writer_takes_labels_up_to_int64_max():
    # The largest label an arc holds, 19 digits: its range of labels has
    # more members than a C ssize_t counts.
    g = Digraph(2**63, [(2**63 - 1, 0)])
    assert write_edge_list(g) == "9223372036854775808 1\n9223372036854775807 0\n"
    assert build_digraph(parse_edge_list(write_edge_list(g))) == g


@given(digraphs(max_n=8), st.integers(1, 10**5))
def test_write_parse_round_trip(g, spread):
    # Spread apart, the labels are few of their range, so the writer's
    # table holds only the labels in use.
    g = Digraph(g.n * spread, g.arc_array * spread)
    assert write_edge_list(g) == _reference_edge_list(g)
    assert build_digraph(parse_edge_list(write_edge_list(g))) == g
    commented = write_edge_list(g, comments=("alpha", "beta"))
    assert build_digraph(parse_edge_list(commented)) == g


# The three first cases, then the other breaks that ``str.splitlines``
# splits at, and CRLF.
@pytest.mark.parametrize("comment", [
    "a\nb", "x\ry", "x\u2028y",
    *(f"a{c}b" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2029"), "a\r\nb",
])
def test_a_comment_with_a_line_break_is_refused(comment):
    # Written, its second line would be read as the header.
    with pytest.raises(ValueError, match="line break"):
        write_edge_list(directed_cycle(3), comments=[comment])


_NO_BREAK = st.text().filter(lambda c: "".join(c.splitlines()) == c)


@given(digraphs(max_n=5), st.lists(_NO_BREAK, max_size=3))
@example(directed_cycle(3), ["\ud800"])  # a lone surrogate, which UTF-8 cannot encode
def test_comments_without_a_line_break_round_trip(g, comments):
    assert build_digraph(parse_edge_list(write_edge_list(g, comments))) == g


@given(digraphs(max_n=8))
def test_adjacency_row_and_column_sums_are_degrees(g):
    a = _dense(g)
    predecessors = _predecessors_by_definition(g)
    out_degrees = np.diff(g._out_csr[0])
    for u in range(g.n):
        assert a[u].sum() == out_degrees[u]
        assert a[:, u].sum() == len(predecessors[u])
    assert np.all(np.diag(a) == 0)


# An arc per vertex, and yet a source (vertex 0) or a sink (vertex 2).
SOURCE = Digraph(3, [(0, 1), (1, 2), (2, 1)])
SINK = Digraph(3, [(0, 1), (1, 0), (1, 2)])
# An out-arc and an in-arc at every vertex. Vertex 0 reaches everything in
# FORWARD, so only the walk on its reverse rejects it; in BACKWARD the
# forward walk does.
FORWARD = Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 2)])
BACKWARD = Digraph(4, FORWARD.arc_array[:, ::-1])


@given(digraphs(max_n=8))
@example(SOURCE)
@example(SINK)
@example(FORWARD)
@example(BACKWARD)
def test_strong_connectivity_matches_distance_matrix(g):
    d = all_pairs_distances(g)
    reachable = all(
        d.array[i, j] != UNREACHABLE
        for i in range(g.n)
        for j in range(g.n)
        if i != j
    )
    assert is_strongly_connected(g) == reachable


@st.composite
def _sparse_digraphs(draw):
    """A few arcs on an order up to 2**63, most past the int64 arc keys."""
    n = draw(st.integers(2, 1 << 63))
    ends = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=5))
    return Digraph(n, pairs)


_FIRST_OBJECT = _MAX_KEYED_ORDER + 1


@given(digraphs(max_n=8) | _sparse_digraphs())
@example(Digraph(_FIRST_OBJECT, [(0, _FIRST_OBJECT - 1), (_FIRST_OBJECT - 1, 1), (2, 0)]))
def test_reverse_from_the_keys_is_the_validated_reverse(g):
    r = _reverse(g)
    assert r._keys.dtype == g._keys.dtype
    assert r == Digraph(g.n, g.arc_array[:, ::-1])


def _no_rows(g):
    raise AssertionError("arc rows built")


@pytest.mark.parametrize("make", [
    lambda: Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]),
    lambda: strong_product_n([directed_cycle(2), complete_digraph(3)]),
], ids=["validated", "product"])
@pytest.mark.parametrize("call", [
    is_strongly_connected,
    all_pairs_distances,
    lambda g: strong_product_n([g, g]),
    *(lambda g, method=method: average_distance_product_n([g, g], method)
      for method in METHODS),
    lambda g: b"".join(_edge_list_blocks(g)),
    lambda g: {g, _reverse(_reverse(g))},
], ids=["connected", "apsp", "product", *METHODS, "edge-list", "compare"])
def test_no_internal_path_builds_rows(make, call, monkeypatch):
    # Every internal reader takes the out-adjacency built from the keys, and
    # comparisons take the keys; only repr reads the arc rows. While the rows
    # cannot be read, nor can a digraph made inside the call (a product, a
    # reverse) read them.
    g = make()
    monkeypatch.setattr(Digraph, "arc_array", property(_no_rows))
    call(g)
    monkeypatch.undo()
    assert "arc_array" not in vars(g)


def test_floyd_warshall_builds_no_rows(monkeypatch):
    # Past the work bound the packed search gives way to Floyd-Warshall,
    # whose initial distances come from the out-adjacency too.
    g = half_clique_and_path(200)
    relaxed = []
    relax = apsp._relax
    monkeypatch.setattr(apsp, "_relax", lambda d: relaxed.append(relax(d)))
    monkeypatch.setattr(Digraph, "arc_array", property(_no_rows))
    d = all_pairs_distances(g)
    monkeypatch.undo()
    assert relaxed and "arc_array" not in vars(g)
    assert d.array[0].tolist() == list(bfs_distances(g, 0))


# Pieces of edge-list text: plain lines, and every form the array parser
# leaves to the line scanner.
_NUMBERS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 10**19).map(str),
    st.sampled_from(["007", "-1", "-0", "+3", "1_0", "\u0663", "x", "1.5",
                     str(2**63), str(2**63 - 1), str(10**18), "9" * 18]),
)
_BLANKS = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", "\u3000"])
_BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\u2028"])


@st.composite
def _lines(draw):
    """One line: 0 to 4 numbers, or a comment; with blanks around it."""
    if draw(st.integers(0, 9)) == 0:
        body = "# " + draw(st.text(max_size=8))
    else:
        count = draw(st.sampled_from([0, 1, 2, 2, 2, 2, 2, 3, 4]))
        numbers = [draw(_NUMBERS) for _ in range(count)]
        body = "".join(draw(_BLANKS) + x for x in numbers)[1:] if numbers else ""
    lead = draw(st.sampled_from(["", "", " ", "\t"]))
    trail = draw(st.sampled_from(["", "", " ", "\t"]))
    return lead + body + trail


@st.composite
def edge_list_texts(draw):
    """A header, arc lines and breaks, some plain and some not."""
    plain = draw(st.booleans())
    numbers = st.integers(0, 12).map(str) if plain else _NUMBERS
    arc_lines = draw(st.lists(
        st.tuples(numbers, numbers).map(" ".join) if plain else _lines(),
        max_size=8,
    ))
    m = len(arc_lines) + draw(st.sampled_from([0, 0, 0, -1, 1]) if not plain else st.just(0))
    header = f"{draw(numbers)} {max(m, 0)}" if draw(st.integers(0, 9)) else draw(_lines())
    lead = draw(st.lists(st.sampled_from(["", "# c", "  ", "# caf\u00e9"]), max_size=2))
    lines = [*lead, header, *arc_lines]
    breaks = st.just("\n") if plain else _BREAKS
    text = "".join(line + draw(breaks) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(parse, text):
    try:
        return "ok", _fields(parse(text))
    except EdgeListFormatError as exc:
        return type(exc), str(exc)


@given(edge_list_texts())
@settings(max_examples=400)
def test_array_route_agrees_with_the_line_scanner(text):
    """Same counts and arcs, or the same error type and message."""
    outcome = _outcome(parse_edge_list, text)
    assert outcome == _outcome(_parse_lines, text)
    assert outcome == _outcome(parse_edge_list, text.encode())
    doc = _parse_arrays(text.encode("utf-8", "surrogatepass"))
    if doc is not None:
        assert ("ok", _fields(doc)) == outcome
        assert doc.arcs.dtype == np.int64
    if outcome[0] == "ok":
        # Negative counts and vertices, and vertices past int64, reach Digraph.
        n, _, arcs = outcome[1]
        expected = _first_fault_by_definition(n, arcs)
        try:
            g = build_digraph(parse_edge_list(text))
        except DigraphValidationError as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert expected is None
            assert g.arc_array.tolist() == sorted(arcs)


@given(digraphs(max_n=12))
def test_written_files_take_the_array_route(g):
    doc = _parse_arrays(write_edge_list(g, comments=("c",)).encode())
    assert doc is not None
    assert doc.arcs.tolist() == g.arc_array.tolist()


# Plain lines: numbers of up to 18 digits, leading zeros too, with blanks
# and tabs around and between them.
_PLAIN_NUMBER = st.one_of(
    st.integers(0, 400).map(str),
    st.tuples(st.integers(1, 4), st.integers(0, 999)).map(lambda t: "0" * t[0] + str(t[1])),
    st.integers(10**9, 10**18 - 1).map(str),
)
_PLAIN_BLANKS = st.text(alphabet=" \t", min_size=1, max_size=3)


@st.composite
def _plain_texts(draw):
    """Plain edge-list text: no line break but ``\\n``, no comment after the header."""
    arcs = draw(st.lists(st.tuples(_PLAIN_NUMBER, _PLAIN_NUMBER), max_size=8))
    lines = []
    for u, v in arcs:
        lines += [""] * draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else []
        lead, gap, trail = (draw(st.sampled_from(["", "", "", " ", "\t ", "  "])),
                            draw(_PLAIN_BLANKS), draw(st.sampled_from(["", "", " ", "\t\t"])))
        lines.append(f"{lead}{u}{gap}{v}{trail}")
    m = len(arcs) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    head = draw(st.sampled_from(["", "# c\n", "\n \t\n# caf\u00e9\n"]))
    text = head + f"{draw(_PLAIN_NUMBER)} {max(m, 0)}\n" + "".join(line + "\n" for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@given(_plain_texts())
@settings(max_examples=300)
@example("2 2\n0 1\n1 0")  # no final newline
@example("2 1\n0000000000000000001 0\n")  # 19 digits: the line scanner's
def test_bytes_parse_as_their_text(text):
    """The text, its UTF-8 bytes and the line scanner give one outcome, and
    the array route reads every plain text of the declared length."""
    data = text.encode()
    outcome = _outcome(parse_edge_list, text)
    assert _outcome(parse_edge_list, data) == outcome == _outcome(_parse_lines, text)
    doc = _parse_arrays(data)
    if outcome[0] == "ok" and max(map(len, text.split())) <= 18:
        assert doc is not None
        assert doc.arcs.dtype == np.int64 and not doc.arcs.flags.writeable
    if doc is not None:
        assert ("ok", _fields(doc)) == outcome


# Lines of 1 to 41 bytes, blank ones, tabs, and a last line without a newline.
_BLOCK_TEXT = ("# a comment\n7 6\n0 1\n\n  12 3 \t\n" + "0" * 17 + "4 " + "9" * 18
               + "\n \n5\t\t6\n000 0\n  \t\n1 2")


@pytest.mark.parametrize("parse_bytes", [1, 2, 3, 5, 8, 13, 64])
def test_lines_across_block_boundaries(parse_bytes, monkeypatch):
    # Each block ends at a newline, so a line never straddles two blocks,
    # even one longer than the block.
    monkeypatch.setattr(digraph, "_PARSE_BYTES", parse_bytes)
    expected = _fields(_parse_lines(_BLOCK_TEXT))
    doc = _parse_arrays(_BLOCK_TEXT.encode())
    assert doc is not None and _fields(doc) == expected
    # A fault in a late block, and one more arc than declared, send the
    # text to the scanner.
    for text in (_BLOCK_TEXT + " 3", _BLOCK_TEXT + "\n3 4", _BLOCK_TEXT + "\n3 x\n"):
        assert _parse_arrays(text.encode()) is None
        assert _outcome(parse_edge_list, text.encode()) == _outcome(_parse_lines, text)


def test_a_count_past_the_body_allocates_no_rows():
    # A trillion declared arcs would be 16 TB of rows; the body has room
    # for one line, so the count is a mismatch before any allocation.
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListFormatError, match="^declared 1000000000000 arcs, found 1$"):
            parse_edge_list(b"3 1000000000000\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("data, m", [
    # 3,000,000 arc lines, 12 MB: the int64 rows take 4 bytes a file byte,
    # and each block of lines adds its own index arrays only.
    (b"3 3000000\n" + b"0 1\n" * 3000000, 3000000),
    # One line longer than any block, 4 MB of blanks: indexed by its two
    # numbers and its newline, not by each blank.
    (b"3 1\n0" + b" " * 4000000 + b"1\n", 1),
], ids=["12MB-of-arcs", "4MB-line"])
def test_a_plain_file_parses_in_bounded_memory(data, m):
    tracemalloc.start()
    try:
        doc = parse_edge_list(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.m == m and doc.arcs[::999999].tolist() == [[0, 1]] * len(range(0, m, 999999))
    assert peak <= 8 * len(data)


@pytest.mark.parametrize("content, message", [
    ("1 2 " + "3" * 36, "expected 'u v', got '1 2 " + "3" * 36 + "'"),
    ("1 2 " + "3" * 37, "expected 'u v', got '1 2 " + "3" * 36 + "'..."),
    ("1 " + "y" * 39, "expected two integers, got '1 " + "y" * 38 + "'..."),
], ids=["40-chars", "41-chars", "41-chars-not-integers"])
def test_a_faulty_line_is_quoted_up_to_40_characters(content, message):
    with pytest.raises(EdgeListFormatError) as info:
        parse_edge_list(f"1 1\n{content}\n")
    assert str(info.value) == f"line 2: {message}"


def test_a_long_faulty_line_is_split_at_most_twice():
    # 600,000 numbers on one arc line: the scanner needs only the first
    # three fields to refuse it, so it makes no list of 600,000 tokens.
    text = "1 1\n" + " ".join(["1"] * 600000) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListFormatError, match="^line 2: expected 'u v', got '1 1 1 "):
            parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)
