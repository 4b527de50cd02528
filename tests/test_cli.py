"""Command-line contract: outputs are byte-exact and exit codes are stable."""

import codecs
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strongprod
import strongprod.cli as cli
import strongprod.digraph as digraph
import strongprod.metrics as metrics
from strongprod.apsp import UNREACHABLE, all_pairs_distances
from strongprod.cli import main
from strongprod.digraph import (
    Digraph,
    _copy_rows,
    _edge_list_blocks,
    _render_rows,
    build_digraph,
    parse_edge_list,
    write_edge_list,
)
from strongprod.errors import NotStronglyConnectedError
from strongprod.product import strong_product_n

from .generate import complete_digraph, directed_cycle, directed_path
from .strategies import digraphs

# A huge declared order with one arc: too few arcs to be strongly connected.
HUGE_ORDER_TEXT = "5000000000 1\n0 4999999999\n"

# An order of 2**63 or more, and an arc on a vertex of 2**63.
BEYOND_INT64_TEXT = f"{10**19} 1\n0 {2**63}\n"

C3_TEXT = "3 3\n0 1\n1 2\n2 0\n"
C4_TEXT = "4 4\n0 1\n1 2\n2 3\n3 0\n"

# As many arcs as vertices, but vertex 0 is a source: nothing reaches it.
SOURCE_TEXT = "3 3\n0 1\n1 2\n2 1\n"

# As many arcs as vertices, but vertex 2 is a sink: it reaches nothing.
SINK_TEXT = "3 3\n0 1\n1 0\n1 2\n"

# Two disjoint 2-cycles: every vertex has an out-arc and an in-arc.
TWO_CYCLES_TEXT = "4 4\n0 1\n1 0\n2 3\n3 2\n"

# A 3-cycle whose last line ends in a byte that is not UTF-8.
NON_UTF8_BYTES = b"3 3\n0 1\n1 2\n2 0\xff\n"

C3_AVGDIST_LINE = (
    '{"factor_orders":[3,3],"product_order":9,"sigma":"117",'
    '"mu":{"num":13,"den":8},"mu_decimal":"1.62500000000",'
    '"diameter":2,"method":"counting"}\n'
)


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g, text=None):
        path = tmp_path / name
        path.write_text(text if text is not None else write_edge_list(g),
                        encoding="utf-8")
        return str(path)

    return write


class TestCheck:
    def test_connected(self, graph_file, capsys):
        # A leading byte-order mark is skipped.
        for name, text in (("c3.el", None), ("bom.el", "\ufeff" + C3_TEXT)):
            path = graph_file(name, directed_cycle(3), text=text)
            assert main(["check", path]) == 0
            assert capsys.readouterr().out == '{"n":3,"m":3,"strongly_connected":true}\n'

    def test_not_connected_exits_three(self, graph_file, capsys):
        path = graph_file("p3.el", directed_path(3))
        assert main(["check", path]) == 3
        assert '"strongly_connected":false' in capsys.readouterr().out

    def test_malformed_file_exits_two_and_names_line(self, graph_file, capsys):
        path = graph_file("bad.el", None, text="# c\n3 2\n0 1\n0 1 2\n")
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: {path}: line 4: expected 'u v', got '0 1 2'\n"
        )

    @pytest.mark.parametrize("line, fault", [
        (" ".join(["1"] * 500000), "expected 'u v'"),
        ("1 " + "x" * 1000000, "expected two integers"),
    ], ids=["many-numbers", "long-token"])
    def test_a_1mb_faulty_line_is_quoted_short(self, graph_file, capsys, line, fault):
        path = graph_file("line.el", None, text=f"1 1\n{line}\n")
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: {path}: line 2: {fault}, got {line[:40]!r}...\n"
        )

    def test_invalid_digraph_names_file(self, graph_file, capsys):
        path = graph_file("dup.el", None, text="2 2\n0 1\n0 1\n")
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == (
            f"strongprod: error: {path}: arc (0, 1) listed more than once\n"
        )

    def test_vertex_beyond_int64_exits_two(self, graph_file, capsys):
        path = graph_file("big.el", None, text=f"3 1\n0 {2**63}\n")
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: {path}: arc (0, {2**63}) outside [0, 3)\n"
        )

    def test_negative_vertex_is_a_range_fault(self, graph_file, capsys):
        # The scanner checks form only; Digraph names the value.
        path = graph_file("neg.el", None, text="2 1\n0 -1\n")
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"strongprod: error: {path}: arc (0, -1) outside [0, 2)\n"

    @pytest.mark.parametrize("command", ["check", "apsp"])
    def test_vertex_beyond_int64_under_a_larger_order_exits_two(
            self, graph_file, capsys, command):
        path = graph_file("big.el", None, text=BEYOND_INT64_TEXT)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: {path}: arc (0, 9223372036854775808) outside "
            "[0, 9223372036854775808), the vertices an arc can hold\n"
        )

    def test_missing_file_exits_two(self, capsys):
        # The OSError message names the path itself; no prefix is added.
        assert main(["check", "/nonexistent/graph.el"]) == 2
        assert capsys.readouterr().err == (
            "strongprod: error: [Errno 2] No such file or directory: "
            "'/nonexistent/graph.el'\n"
        )

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.el"
        path.write_bytes(NON_UTF8_BYTES)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 15: invalid start byte\n"
        )

    @pytest.mark.parametrize("lead", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    @pytest.mark.parametrize("body, err", [
        (b"3 3\n0 1\n1 2\n2 0\n", ""),
        (b"3 3\r\n0 1\r\n1 2\r\n2 0\r\n", ""),
        (NON_UTF8_BYTES,
         "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
        (b"# \xff\n3 3\n0 1\n1 2\n2 0\n",
         "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
        (b"3 3\r\n0 1\r\n1 2\r\n2 0\xe2\x82\r\n",
         "'utf-8' codec can't decode bytes in position 18-19: invalid continuation byte"),
    ], ids=["lf", "crlf", "bad-body", "bad-comment", "bad-crlf"])
    def test_a_bom_is_skipped(self, tmp_path, capsys, lead, body, err):
        # Positions count from after the BOM, as a text-mode read counts them.
        path = tmp_path / "g.el"
        path.write_bytes(lead + body)
        assert main(["check", str(path)]) == (2 if err else 0)
        captured = capsys.readouterr()
        assert captured.out == ("" if err else '{"n":3,"m":3,"strongly_connected":true}\n')
        assert captured.err == (f"strongprod: error: {path}: {err}\n" if err else "")

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb", codecs.BOM_UTF8])
    def test_the_start_of_a_bom_reads_as_empty(self, tmp_path, capsys, data):
        path = tmp_path / "g.el"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"strongprod: error: {path}: missing 'n m' header line\n")

    def test_zero_vertex_file_exits_two(self, graph_file, capsys):
        path = graph_file("empty.el", None, text="0 0\n")
        assert main(["check", path]) == 2
        assert capsys.readouterr().out == ""

    def test_huge_order_with_few_arcs_exits_three(self, graph_file, capsys):
        path = graph_file("huge.el", None, text=HUGE_ORDER_TEXT)
        assert main(["check", path]) == 3
        assert capsys.readouterr().out == (
            '{"n":5000000000,"m":1,"strongly_connected":false}\n'
        )

    def test_single_vertex_is_connected(self, graph_file, capsys):
        path = graph_file("k1.el", complete_digraph(1))
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == '{"n":1,"m":0,"strongly_connected":true}\n'


class TestApsp:
    def test_tsv_matrix(self, graph_file, capsys):
        path = graph_file("c3.el", directed_cycle(3))
        assert main(["apsp", path]) == 0
        assert capsys.readouterr().out == "0\t1\t2\n2\t0\t1\n1\t2\t0\n"

    def test_tsv_unreachable_is_inf(self, graph_file, capsys):
        path = graph_file("p3.el", directed_path(3))
        assert main(["apsp", path]) == 0
        assert capsys.readouterr().out == "0\t1\t2\nINF\t0\t1\nINF\tINF\t0\n"

    def test_json_matrix(self, graph_file, capsys):
        path = graph_file("k2.el", complete_digraph(2))
        assert main(["apsp", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == "[[0,1],[1,0]]\n"

    def test_json_single_vertex(self, graph_file, capsys):
        path = graph_file("k1.el", complete_digraph(1))
        assert main(["apsp", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == "[[0]]\n"

    def test_json_null_for_unreachable(self, graph_file, capsys):
        path = graph_file("p2.el", directed_path(2))
        assert main(["apsp", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == "[[0,1],[null,0]]\n"

    @pytest.mark.parametrize("text, order, nbytes", [
        (HUGE_ORDER_TEXT, 5000000000, 100000000000000000000),
        ("30000 0\n", 30000, 3600000000),
    ])
    def test_matrix_too_large_for_memory_exits_four(
            self, graph_file, text, order, nbytes):
        # The child caps its own address space at 2 GiB, below the 3.6 GB
        # that the second matrix needs.
        path = graph_file("big.el", None, text=text)
        done = _run_cli_limited(["apsp", path], 2 << 30)
        assert done.returncode == 4, done.stderr
        assert done.stdout == ""
        assert done.stderr == (
            f"strongprod: error: the {order} x {order} distance matrix "
            f"({nbytes} bytes) does not fit in memory\n"
        )


def _reference_apsp(array, fmt):
    """``apsp`` output built the plain way, one Python value per pair."""
    rows = [[None if v == UNREACHABLE else v for v in row] for row in array.tolist()]
    if fmt == "json":
        return json.dumps(rows, separators=(",", ":")) + "\n"
    return "".join("\t".join("INF" if v is None else str(v) for v in row) + "\n"
                   for row in rows)


# Six edge rows as indices into labels that cross from one to two and
# from two to three digits.
EDGE_ROWS = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
EDGE_LABELS = [0, 9, 10, 99, 100, 7]


def _edge_chunks(rows, labels):
    """Rows of label indices through the shared renderer, laid out as edge lines."""
    blocks = _render_rows(rows.shape, _copy_rows(rows), np.array(labels), None, " ", "\n",
                          "", "\n")
    return map(bytes.decode, blocks)


def _reference_edges(rows, labels):
    return "".join(f"{labels[u]} {labels[v]}\n" for u, v in rows.tolist())


def _edge_tables(max_m):
    """(m, 2) rows of indices into a list of distinct labels of up to five digits."""
    def rows(labels):
        index = st.integers(0, len(labels) - 1)
        pairs = st.lists(st.tuples(index, index), min_size=1, max_size=max_m)
        return st.tuples(pairs.map(np.array), st.just(labels))

    labels = st.lists(st.integers(0, 10**4), min_size=1, max_size=12, unique=True)
    return labels.flatmap(rows)


def _square_arrays(max_n):
    """Square arrays of distances in [0, n) or UNREACHABLE, unrelated to any digraph."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.integers(UNREACHABLE, n - 1), min_size=n * n, max_size=n * n,
    ).map(lambda values: np.array(values, dtype=np.int16).reshape(n, n)))


def _nul_scans(render):
    """``render()``, and how many ``bytes.translate`` calls, the renderer's
    scan that deletes NUL padding, it made."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__qualname__", None) == "bytes.translate":
            calls.append(arg)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = render()
    finally:
        sys.setprofile(outer)
    return result, len(calls)


class TestApspRendering:
    """The shared byte-cell renderer, on apsp matrices and on edge rows,
    against plain references."""

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("g", [
        complete_digraph(1),
        complete_digraph(5),
        directed_path(5),
        directed_path(12),
        Digraph(6, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 0)]),
        # Distances up to 1000 and 1001: tokens cross from three to four digits.
        directed_path(1001),
        directed_cycle(1002),
    ], ids=["k1", "k5", "p5", "p12", "two-parts", "p1001", "c1002"])
    def test_cli_matches_reference(self, graph_file, capsys, g, fmt):
        path = graph_file("g.el", g)
        assert main(["apsp", path, "--format", fmt]) == 0
        expected = _reference_apsp(all_pairs_distances(g).array, fmt)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("g", [
        complete_digraph(1),
        Digraph(4, []),
        directed_cycle(6),
        directed_cycle(12),
        directed_path(6),
        directed_path(12),
    ], ids=["k1", "edgeless", "c6", "c12", "p6", "p12"])
    def test_cells_of_the_distances_held(self, g, fmt):
        # The cells run to the largest distance, with the unreachable token
        # only where some pair is unreachable: the bytes of a table of every
        # label up to n - 1 and the token, whether a distance reaches 10 or not.
        d = all_pairs_distances(g).array
        token, *layout = cli._LAYOUTS[fmt]
        every_label = _render_rows(d.shape, _copy_rows(d), np.arange(len(d)), token, *layout)
        assert "".join(cli._render(d, fmt)).encode() == b"".join(every_label)

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("d, padded", [
        # n = 1: the unreachable token's cell, or a label's, is the only one.
        (np.array([[UNREACHABLE]]), False),
        (np.array([[0]]), False),
        # Labels of one width; in json the row end "],[" is wider than the
        # separator ",", which its spare bytes make up for.
        (np.arange(144).reshape(12, 12) % 10, False),
        # Labels of one and two digits among unreachable pairs.
        (np.arange(144).reshape(12, 12) % 13 - 1, True),
        # One width, but the unreachable token is wider.
        (np.arange(144).reshape(12, 12) % 10 - 1, True),
    ], ids=["unreachable-1", "zero-1", "one-width-12", "mixed-12", "one-width-unreachable"])
    def test_layouts_match_reference(self, monkeypatch, d, padded, fmt):
        # Text with NUL-padded cells is scanned to delete them; text of
        # cells of one width, whatever the layout, is not.
        for block_bytes in (0, 40, 1 << 17):
            monkeypatch.setattr(digraph, "_RENDER_BYTES", block_bytes)
            text, scans = _nul_scans(lambda: "".join(cli._render(d, fmt)))
            assert text == _reference_apsp(d, fmt)
            assert bool(scans) == padded

    def test_edge_lines_of_one_label_width_take_no_nul_scan(self):
        for labels, padded in ((EDGE_LABELS, True), ([3, 4, 5, 6, 7, 8], False)):
            text, scans = _nul_scans(lambda: "".join(_edge_chunks(EDGE_ROWS, labels)))
            assert text == _reference_edges(EDGE_ROWS, labels)
            assert bool(scans) == padded

    def test_edge_labels_of_mixed_digit_counts(self, monkeypatch):
        labels = [7, 10**18, 0, 12345, 99, 2**63 - 1]
        rows = np.array([[0, 1], [2, 3], [4, 5], [5, 0], [3, 3]])
        for block_bytes in (0, 50, 1 << 17):
            monkeypatch.setattr(digraph, "_RENDER_BYTES", block_bytes)
            assert "".join(_edge_chunks(rows, labels)) == _reference_edges(rows, labels)

    @pytest.mark.parametrize("fmt", ["tsv", "json", "edges"])
    def test_every_block_size(self, monkeypatch, fmt):
        # Budgets from one row per block to all six at once, so the last row
        # ends a block of every size.
        if fmt == "edges":
            render = partial(_edge_chunks, EDGE_ROWS, EDGE_LABELS)
            expected = _reference_edges(EDGE_ROWS, EDGE_LABELS)
        else:
            d = np.array([[0, 1, -1, 2, 5, 3]] * 6, dtype=np.int16)
            render = partial(cli._render, d, fmt)
            expected = _reference_apsp(d, fmt)
        sizes = set()
        for block_bytes in range(0, 2000, 5):
            monkeypatch.setattr(digraph, "_RENDER_BYTES", block_bytes)
            chunks = list(render())
            sizes.add(len(chunks))
            assert "".join(chunks) == expected, block_bytes
        # Head and tail, plus 6, 3, 2 or 1 blocks of rows.
        assert sizes == {8, 5, 4, 3}

    def test_wide_tokens_over_many_blocks(self, monkeypatch):
        n = 1200
        d = (np.arange(n)[None, :] - np.arange(n)[:, None]).astype(np.int16)
        d[d < 0] = UNREACHABLE
        monkeypatch.setattr(digraph, "_RENDER_BYTES", n * 100)
        for fmt in ("tsv", "json"):
            chunks = list(cli._render(d, fmt))
            assert len(chunks) > 100
            assert "".join(chunks) == _reference_apsp(d, fmt)

    @settings(max_examples=60, deadline=None)
    @given(d=_square_arrays(9), fmt=st.sampled_from(["tsv", "json"]),
           edges=_edge_tables(40), block_bytes=st.integers(0, 2000))
    def test_arbitrary_arrays(self, d, fmt, edges, block_bytes):
        rows, labels = edges
        with mock.patch.object(digraph, "_RENDER_BYTES", block_bytes):
            assert "".join(cli._render(d, fmt)) == _reference_apsp(d, fmt)
            assert "".join(_edge_chunks(rows, labels)) == _reference_edges(rows, labels)


class TestProduct:
    def test_c2_c3_header_and_arcs(self, graph_file, capsys):
        a = graph_file("c2.el", directed_cycle(2))
        b = graph_file("c3.el", directed_cycle(3))
        assert main(["product", a, b]) == 0
        out = capsys.readouterr().out
        parsed = build_digraph(parse_edge_list(out))
        assert parsed == strong_product_n([directed_cycle(2), directed_cycle(3)])
        data_lines = [
            line for line in out.splitlines() if line and not line.startswith("#")
        ]
        assert data_lines[0] == "6 18"
        assert out.startswith("#")  # codec comment header present

    def test_single_vertex_factor(self, graph_file, capsys):
        g = directed_cycle(4)
        a = graph_file("c4.el", g)
        b = graph_file("k1.el", complete_digraph(1))
        assert main(["product", a, b]) == 0
        assert build_digraph(parse_edge_list(capsys.readouterr().out)) == g

    def test_three_factors(self, graph_file, capsys):
        paths = [graph_file(f"f{i}.el", directed_cycle(2)) for i in range(3)]
        assert main(["product", *paths]) == 0
        parsed = build_digraph(parse_edge_list(capsys.readouterr().out))
        assert parsed == strong_product_n([directed_cycle(2)] * 3)

    def test_out_file(self, graph_file, capsys, tmp_path):
        a = graph_file("c2.el", directed_cycle(2))
        out = tmp_path / "product.el"
        assert main(["product", a, a, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        parsed = build_digraph(parse_edge_list(out.read_text(encoding="utf-8")))
        assert parsed == strong_product_n([directed_cycle(2), directed_cycle(2)])

    def test_out_in_missing_directory_exits_two(self, graph_file, capsys, tmp_path):
        a = graph_file("c2.el", directed_cycle(2))
        out = tmp_path / "missing" / "x.el"
        assert main(["product", a, a, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("strongprod: error: ")
        assert not out.exists()

    def test_size_limit_exits_four(self, graph_file, capsys):
        a = graph_file("c3.el", directed_cycle(3))
        assert main(["product", a, a, "--max-product-vertices", "5"]) == 4
        assert capsys.readouterr().out == ""

    def test_arc_past_int64_exits_four(self, graph_file, capsys):
        # The second factor's arc, repeated for each vertex of the first,
        # reaches vertex 99 * (10**18 - 1) + 1, past what an arc can hold.
        a = graph_file("e100.el", None, text="100 0\n")
        b = graph_file("big.el", None, text=f"{10**18 - 1} 1\n0 1\n")
        assert main(["product", a, b, "--max-product-vertices", str(10**21)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: product has {100 * (10**18 - 1)} vertices, and an "
            f"arc has a vertex outside [0, {2**63}), the vertices an arc can hold\n"
        )

    def test_check_connected_flag(self, graph_file, capsys):
        a = graph_file("p2.el", directed_path(2))
        assert main(["product", a, a, "--check-connected"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "strongprod: error: factor 0 is not strongly connected\n"
        assert main(["product", a, a]) == 0  # without the flag it still writes
        capsys.readouterr()
        # The lowest failing factor is named, after the connected ones.
        c3 = graph_file("c3.el", directed_cycle(3))
        p3 = graph_file("p3.el", directed_path(3))
        assert main(["product", c3, p3, "--check-connected"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "strongprod: error: factor 1 is not strongly connected\n"

    def test_check_connected_passes_connected_factors(self, graph_file, capsys):
        a = graph_file("c2.el", directed_cycle(2))
        b = graph_file("c3.el", directed_cycle(3))
        assert main(["product", a, b]) == 0
        plain = capsys.readouterr().out
        assert main(["product", a, b, "--check-connected"]) == 0
        assert capsys.readouterr().out == plain

    def test_connectivity_comes_before_size_limit(self, graph_file, capsys):
        a = graph_file("p3.el", directed_path(3))
        args = ["product", a, a, "--check-connected", "--max-product-vertices", "5"]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "strongprod: error: factor 0 is not strongly connected\n"
        )

    def test_one_file_is_usage_error(self, graph_file, capsys):
        a = graph_file("c2.el", directed_cycle(2))
        assert main(["product", a]) == 1

    def test_byte_determinism(self, graph_file, capsys):
        a = graph_file("c2.el", directed_cycle(2))
        b = graph_file("c3.el", directed_cycle(3))
        main(["product", a, b])
        first = capsys.readouterr().out
        main(["product", a, b])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv, texts, code", [
        (["--max-product-vertices", "5"], [C3_TEXT, C3_TEXT], 4),
        (["--max-product-vertices", str(10**21)], ["100 0\n", f"{10**18 - 1} 1\n0 1\n"], 4),
        (["--check-connected"], [C3_TEXT, SOURCE_TEXT], 3),
    ], ids=["vertex-limit", "arc-past-int64", "not-connected"])
    def test_refused_product_leaves_out_alone(self, graph_file, capsys, tmp_path,
                                              argv, texts, code):
        paths = [graph_file(f"f{i}.el", None, text=text) for i, text in enumerate(texts)]
        kept, missing = tmp_path / "kept.el", tmp_path / "missing.el"
        kept.write_bytes(b"earlier output\n")
        for out in (kept, missing):
            assert main(["product", *paths, *argv, "--out", str(out)]) == code
            assert capsys.readouterr().out == ""
        assert kept.read_bytes() == b"earlier output\n"
        assert not missing.exists()

    def test_writer_out_of_memory_leaves_out_alone(self, graph_file, capsys, tmp_path,
                                                   monkeypatch):
        def fail(*args):
            raise MemoryError()

        path = graph_file("c3.el", directed_cycle(3))
        out = tmp_path / "kept.el"
        out.write_bytes(b"earlier output\n")
        # The writer's cell table is made before the head is yielded.
        monkeypatch.setattr(digraph, "_cell_table", fail)
        assert main(["product", path, path, "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", "strongprod: error: out of memory\n")
        assert out.read_bytes() == b"earlier output\n"

    def test_writes_no_arc_array(self, graph_file, tmp_path):
        # 60 vertices and 600 arcs, squared: 432,000 arcs, whose int64 arc
        # array would take 16 bytes each.
        rng = np.random.default_rng(0)
        pairs = np.array([(u, v) for u in range(60) for v in range(60) if u != v])
        g = Digraph(60, pairs[rng.choice(len(pairs), 600, replace=False)])
        path, out = graph_file("g.el", g), str(tmp_path / "p.el")
        m = strong_product_n([g, g]).m
        assert m == 432_000
        assert main(["product", path, path, "--out", out]) == 0  # warm-up
        tracemalloc.start()
        try:
            p = strong_product_n([g, g])
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert p.m == m
            assert tracemalloc.get_traced_memory()[1] - before < 1000
            del p
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main(["product", path, path, "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16 * m
        assert Path(out).read_text(encoding="utf-8").endswith(
            write_edge_list(strong_product_n([g, g])))


def _written_product(gs, argv):
    """The bytes of ``product`` on the factors ``gs``: (stdout, ``--out``)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, g in enumerate(gs):
            paths.append(os.path.join(tmp, f"f{i}.el"))
            Path(paths[-1]).write_text(write_edge_list(g), encoding="utf-8")
        out = os.path.join(tmp, "p.el")
        assert main(["product", *paths, *argv, "--out", out]) == 0
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(["product", *paths, *argv]) == 0
        return stdout.getvalue().encode(), Path(out).read_bytes()


def _plain_edge_list(n, arcs):
    """The edge-list text of sorted arcs, built one Python line per arc."""
    return f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


@settings(max_examples=80, deadline=None)
@given(gs=st.lists(digraphs(max_n=4), min_size=1, max_size=3),
       block_bytes=st.integers(0, 400), spread=st.sampled_from([1, 1000]))
@example(gs=[Digraph(1, []), directed_cycle(3), Digraph(2, [])], block_bytes=0, spread=1)
@example(gs=[directed_cycle(2), directed_path(3)], block_bytes=40, spread=1000)
def test_streamed_product_bytes(gs, block_bytes, spread):
    # Spread, the second factor's arcs join few of its many vertices, so the
    # product's labels are sparse (N > 2m) wherever it has arcs.
    if spread > 1 and len(gs) > 1:
        gs[1] = Digraph(gs[1].n * spread, gs[1].arc_array * spread)
    p = strong_product_n(gs, max_vertices=10**6)
    arcs = sorted(map(tuple, p.arc_array.tolist()))
    expected = _plain_edge_list(p.n, arcs).encode()
    assert p == Digraph(p.n, arcs)
    assert write_edge_list(p).encode() == expected
    # Budgets from one arc line per block up: blocks end inside the product.
    for g in (p, Digraph(p.n, arcs)):
        with mock.patch.object(digraph, "_RENDER_BYTES", block_bytes):
            assert b"".join(_edge_list_blocks(g)) == expected
    if len(gs) > 1:
        stdout, out = _written_product(gs, ["--max-product-vertices", str(10**6)])
        assert stdout == out
        # Past the two comment lines, the writer's bytes.
        assert out.split(b"\n", 2)[2] == expected


class TestAvgdist:
    def test_c3_c3_exact_bytes(self, graph_file, capsys):
        path = graph_file("c3.el", directed_cycle(3))
        assert main(["avgdist", path, path]) == 0
        assert capsys.readouterr().out == C3_AVGDIST_LINE

    def test_a_power_searches_its_factor_once(self, graph_file, capsys, monkeypatch):
        calls = []
        counts = metrics.distance_counts
        monkeypatch.setattr(metrics, "distance_counts", lambda g: calls.append(g) or counts(g))
        path = graph_file("c3.el", directed_cycle(3))
        assert main(["avgdist", path, path, path]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == (
            '{"factor_orders":[3,3,3],"product_order":27,"sigma":"1215",'
            '"mu":{"num":45,"den":26},"mu_decimal":"1.73076923077","diameter":2,'
            '"method":"counting"}\n'
        )

    def test_complete_factors_mu_one(self, graph_file, capsys):
        a = graph_file("k2.el", complete_digraph(2))
        b = graph_file("k3.el", complete_digraph(3))
        assert main(["avgdist", a, b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == {"num": 1, "den": 1}

    @pytest.mark.parametrize("method", ["naive", "counting", "oracle"])
    def test_method_agreement(self, graph_file, capsys, method):
        a = graph_file("c2.el", directed_cycle(2))
        b = graph_file("c3.el", directed_cycle(3))
        assert main(["avgdist", a, b, "--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == "42"
        assert payload["mu"] == {"num": 7, "den": 5}
        assert payload["diameter"] == 2
        assert payload["method"] == method

    def test_naive_over_many_factors(self, graph_file, capsys):
        # A sum that recursed once per factor would pass the recursion limit.
        paths = [graph_file("k1.el", complete_digraph(1))] * 1200
        paths.append(graph_file("c2.el", directed_cycle(2)))
        assert main(["avgdist", "--method", "naive", *paths]) == 0
        naive = capsys.readouterr().out
        assert main(["avgdist", "--method", "counting", *paths]) == 0
        counting = capsys.readouterr().out
        assert naive == counting.replace('"method":"counting"', '"method":"naive"')

    def test_key_order_fixed(self, graph_file, capsys):
        a = graph_file("c2.el", directed_cycle(2))
        assert main(["avgdist", a, a]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "factor_orders", "product_order", "sigma", "mu",
            "mu_decimal", "diameter", "method",
        ]

    def test_byte_determinism(self, graph_file, capsys):
        a = graph_file("c3.el", directed_cycle(3))
        main(["avgdist", a, a])
        first = capsys.readouterr().out
        main(["avgdist", a, a])
        assert capsys.readouterr().out == first

    def test_three_factors_matches_oracle(self, graph_file, capsys):
        paths = [
            graph_file("c2.el", directed_cycle(2)),
            graph_file("c3.el", directed_cycle(3)),
            graph_file("k2.el", complete_digraph(2)),
        ]
        assert main(["avgdist", *paths, "--method", "counting"]) == 0
        counting = json.loads(capsys.readouterr().out)
        assert main(["avgdist", *paths, "--method", "oracle"]) == 0
        oracle = json.loads(capsys.readouterr().out)
        for key in ("factor_orders", "product_order", "sigma", "mu", "diameter"):
            assert counting[key] == oracle[key]

    def test_disconnected_factor_exits_three_naming_it(self, graph_file, capsys):
        a = graph_file("p3.el", directed_path(3))
        b = graph_file("c3.el", directed_cycle(3))
        assert main(["avgdist", b, a]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "factor 1" in captured.err

    @pytest.mark.parametrize("method", ["counting", "naive", "oracle"])
    @pytest.mark.parametrize("texts, factor", [
        (["3 0\n", C3_TEXT], 0),
        ([C3_TEXT, SOURCE_TEXT], 1),
        ([C3_TEXT, C4_TEXT, TWO_CYCLES_TEXT], 2),
        # Both the source factor and the edgeless one fail the degree screen.
        ([C3_TEXT, SOURCE_TEXT, "3 0\n"], 1),
        # A source or a sink with an arc per vertex fails the degree screen.
        ([SOURCE_TEXT, C3_TEXT], 0),
        ([SINK_TEXT, C3_TEXT], 0),
        ([C3_TEXT, SINK_TEXT], 1),
        # Two 2-cycles pass the degree screen and the source factor fails
        # it; the lower index is still the one named.
        ([TWO_CYCLES_TEXT, SOURCE_TEXT], 0),
    ], ids=["edgeless-first", "source-second", "after-connected", "first-named",
            "source-first", "sink-first", "sink-second", "screen-passed-first"])
    def test_not_strongly_connected_contract(
            self, graph_file, capsys, texts, factor, method):
        paths = [graph_file(f"f{i}.el", None, text=text) for i, text in enumerate(texts)]
        assert main(["avgdist", *paths, "--method", method]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: factor {factor} is not strongly connected\n"
        )

    def test_huge_order_factor_exits_three(self, graph_file, capsys):
        a = graph_file("huge.el", None, text=HUGE_ORDER_TEXT)
        b = graph_file("c3.el", directed_cycle(3))
        assert main(["avgdist", a, b]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "factor 0" in captured.err

    def test_non_utf8_factor_exits_two(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_bytes(NON_UTF8_BYTES)
        c3 = graph_file("c3.el", directed_cycle(3))
        assert main(["avgdist", c3, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"strongprod: error: {bad}: 'utf-8' codec")

    def test_malformed_factor_is_named(self, graph_file, capsys):
        c3 = graph_file("c3.el", directed_cycle(3))
        bad = graph_file("bad.el", None, text="# c\n3 2\n0 1\n0 1 2\n")
        assert main(["avgdist", c3, bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strongprod: error: {bad}: line 4: expected 'u v', got '0 1 2'\n"
        )

    def test_single_vertex_factors_exit_two(self, graph_file, capsys):
        a = graph_file("k1.el", complete_digraph(1))
        assert main(["avgdist", a, a]) == 2

    def test_oracle_respects_vertex_limit(self, graph_file, capsys):
        a = graph_file("c3.el", directed_cycle(3))
        args = ["avgdist", a, a, "--method", "oracle", "--max-product-vertices"]
        assert main([*args, "8"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "strongprod: error: product has 9 vertices, limit is 8\n"
        assert main([*args, "9"]) == 0

    def test_naive_respects_vertex_limit(self, graph_file, capsys):
        # The explicit product and naive routes share the oracle's rule and message.
        a = graph_file("c3.el", directed_cycle(3))
        for command in (["product"], ["avgdist", "--method", "naive"]):
            args = [*command, a, a, "--max-product-vertices"]
            assert main([*args, "8"]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "strongprod: error: product has 9 vertices, limit is 8\n"
            assert main([*args, "9"]) == 0
            capsys.readouterr()

    def test_not_connected_comes_before_naive_vertex_limit(self, graph_file, capsys):
        a = graph_file("c3.el", directed_cycle(3))
        b = graph_file("src.el", None, text=SOURCE_TEXT)
        args = ["avgdist", a, b, "--method", "naive", "--max-product-vertices", "5"]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "strongprod: error: factor 1 is not strongly connected\n"
        )

    def test_one_file_is_usage_error(self, graph_file):
        assert main(["avgdist", "whatever.el"]) == 1


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "x.el"]) == 1

    def test_bad_method_value(self, graph_file, capsys):
        a = graph_file("c2.el", directed_cycle(2))
        assert main(["avgdist", a, a, "--method", "quick"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def _child_env():
    """The environment with this checkout's ``src`` first on the import path."""
    src = str(Path(strongprod.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _run_cli_limited(argv, address_space):
    """Run the CLI in a child that first caps its own address space."""
    limit = (address_space, address_space)
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, {limit})\n"
            "from strongprod.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=120)


# Two complete K141 factors fit the default vertex cap, but the 395,234,280
# int32 keys of their product's arcs need 1.58 GB, above the child's 1 GiB.
_K141_MESSAGE = "product has 19881 vertices and 395234280 arcs, too many for memory"


# Two factors of 10**18 - 1 vertices and one arc: 2 * 10**18 - 1 arcs of
# 16 bytes each, more than numpy can address.
_PAST_INTP_TEXT = f"{10**18 - 1} 1\n0 1\n"


@pytest.mark.parametrize("argv, text, message", [
    (["product"], None, _K141_MESSAGE),
    (["avgdist", "--method", "oracle"], None, _K141_MESSAGE),
    (["product", "--max-product-vertices", str(10**40)], _PAST_INTP_TEXT,
     f"product has {(10**18 - 1)**2} vertices and {2 * 10**18 - 1} arcs, "
     "too many for memory"),
], ids=["product", "oracle", "product-past-intp"])
def test_product_too_large_for_memory_exits_four(graph_file, argv, text, message):
    path = graph_file("big.el", complete_digraph(141), text=text)
    done = _run_cli_limited([*argv, path, path], 1 << 30)
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"strongprod: error: {message}\n"


def test_oracle_arc_array_past_memory_exits_four(graph_file):
    # The 99,990,000 int32 keys of K100 x K100 (0.4 GB) fit under the child's
    # 1 GiB, but the oracle's APSP does not: its 0.2 GB distance matrix and
    # the 0.4 GB int32 heads of the out-adjacency it reads come on top.
    path = graph_file("k100.el", complete_digraph(100))
    done = _run_cli_limited(["avgdist", "--method", "oracle", path, path], 1 << 30)
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr == ("strongprod: error: the 10000 x 10000 distance matrix "
                           "(200000000 bytes) does not fit in memory\n")


def test_counting_fits_where_a_factor_matrix_does_not(graph_file, capsys):
    # A Hamilton cycle on 12,000 vertices plus 24,000 random arcs, times C3.
    # Its 288 MB int16 distance matrix does not fit under the child's
    # 300 MiB, but the search's three 18 MB bit sets do.
    n = 12000
    rng = np.random.default_rng(5)
    keys = set((np.arange(n) * n + (np.arange(n) + 1) % n).tolist())
    while len(keys) < 3 * n:
        u, v = rng.integers(0, n, 2).tolist()
        keys.add(u * n + v) if u != v else None
    text = f"{n} {len(keys)}\n" + "".join(f"{k // n} {k % n}\n" for k in sorted(keys))
    path = graph_file("r12k.el", None, text=text)
    c3 = graph_file("c3.el", directed_cycle(3))
    assert main(["avgdist", path, c3]) == 0
    report = capsys.readouterr().out
    done = _run_cli_limited(["avgdist", path, c3], 300 << 20)
    assert "Traceback" not in done.stderr
    assert done.returncode == 0, done.stderr
    assert done.stdout == report


def test_plain_file_past_memory_exits_four(graph_file):
    # 12,000,000 arc lines, 48 MB: their 192 MB of int64 rows and the file's
    # bytes take more than the child's 300 MiB, and numpy's allocation is
    # what fails.
    path = graph_file("big.el", None, text="3 12000000\n" + "0 1\n" * 12000000)
    done = _run_cli_limited(["check", path], 300 << 20)
    assert "Traceback" not in done.stderr
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr == "strongprod: error: out of memory\n"


def test_plain_file_is_read_in_bounded_memory(graph_file):
    # 3,000,000 arc lines, 12 MB, all one arc: parsed by blocks, the file
    # reaches the repeat check under a 400 MiB cap.
    path = graph_file("big.el", None, text="3 3000000\n" + "0 1\n" * 3000000)
    done = _run_cli_limited(["check", path], 400 << 20)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"strongprod: error: {path}: arc (0, 1) listed more than once\n"


@pytest.mark.parametrize("command, callee", [
    ("check", "is_strongly_connected"),
    ("apsp", "all_pairs_distances"),
    ("product", "strong_product_n"),
    ("avgdist", "average_distance_product_n"),
])
def test_any_memory_error_exits_four(graph_file, capsys, monkeypatch, command, callee):
    def fail(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, callee, fail)
    path = graph_file("c3.el", directed_cycle(3))
    paths = [path] if command in ("check", "apsp") else [path, path]
    assert main([command, *paths]) == 4
    assert capsys.readouterr() == ("", "strongprod: error: out of memory\n")


def test_a_report_out_of_memory_exits_four(graph_file, capsys, monkeypatch):
    # The error's own message cannot be made: exit 4 all the same, with
    # the fixed line and nothing of the failed report.
    class Unprintable(NotStronglyConnectedError):
        def __str__(self):
            raise MemoryError()

    def fail(args):
        raise Unprintable("no directed path from 0 to 1")

    monkeypatch.setattr(cli, "cmd_check", fail)
    assert main(["check", graph_file("c3.el", directed_cycle(3))]) == 4
    assert capsys.readouterr() == ("", "strongprod: error: out of memory\n")


def test_huge_edgeless_product_is_written(graph_file):
    # 25 * 10**18 vertices and no arcs: only the all-stay moves, which are
    # never formed, so the product needs no memory to speak of.
    path = graph_file("big.el", None, text="5000000000 0\n")
    done = _run_cli_limited(["product", "--max-product-vertices", str(10**30), path, path],
                            2 << 30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("\n25000000000000000000 0\n")


def test_importing_the_cli_loads_no_scipy_or_networkx():
    code = ("import sys, strongprod.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('scipy', 'networkx')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_python_dash_m_runs_the_cli(graph_file):
    path = graph_file("p3.el", directed_path(3))
    env = _child_env()
    for module in ("strongprod", "strongprod.cli"):
        done = subprocess.run([sys.executable, "-m", module, "check", path],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 3, module
        assert done.stdout == '{"n":3,"m":2,"strongly_connected":false}\n', module
