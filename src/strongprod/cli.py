"""Command-line front end: check, apsp, product, avgdist.

Data goes to standard output (or ``--out`` for products), diagnostics to
standard error. Output is deterministic: identical inputs give
byte-identical output. ``apsp`` matrices and ``product`` edge lists go
through one renderer of byte cells, in blocks of rows of bounded size,
each written as it is made. ``product`` opens ``--out`` only once the
product is built, so a refused product leaves the file as it was.

Exit codes: 0 success, 1 usage, 2 parse or validation failure
(``EdgeListFormatError``, ``DigraphValidationError``, a file that cannot
be read, or ``OrderTooSmallError``), 3 not strongly connected
(``NotStronglyConnectedError``; ``product --check-connected`` and
``avgdist`` name the lowest failing factor), 4 size limit
(``ProductTooLargeError`` for the product's vertex limit, which bounds
``avgdist --method naive`` and ``oracle``, or a product too large for
memory; ``DistanceMatrixTooLargeError`` for a distance matrix, or a
distance search's bit sets, too large for memory; any other allocation
that fails, with the fixed message ``out of memory``, also while another
error is being reported). Each ends the run with one ``strongprod:
error:`` line on standard error. ``avgdist`` learns a factor's strong
connectivity from its distance counts (``counting``) or its distance
matrix (``naive``), so a factor in which every vertex has an out-arc and
an in-arc but whose search or matrix does not fit exits 4, connected or
not; one with a vertex that lacks either exits 3 at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

from .apsp import all_pairs_distances
from .digraph import _copy_rows, _edge_list_blocks, _render_rows
from .digraph import Digraph, is_strongly_connected, load_digraph
from .errors import (
    DigraphValidationError,
    DistanceMatrixTooLargeError,
    EdgeListFormatError,
    NotStronglyConnectedError,
    OrderTooSmallError,
    ProductTooLargeError,
)
from .metrics import METHODS, _check_connected, average_distance_product_n
from .product import DEFAULT_MAX_PRODUCT_VERTICES, strong_product_n

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_NOT_STRONGLY_CONNECTED = 3
EXIT_SIZE_LIMIT = 4

_JSON_COMPACT = {"separators": (",", ":")}

# Per ``apsp`` format: the token of an unreachable pair, the separator after
# a cell inside a row and after a row's last cell, and the text before the
# first row and after the last one (which takes the last row end's place).
_LAYOUTS = {
    "tsv": ("INF", "\t", "\n", "", "\n"),
    "json": ("null", ",", "],[", "[[", "]]\n"),
}


class _InputFileError(Exception):
    """A fault in the content of an input file; the message names the file."""


# Exit code of each error that ends a run with a message, not a traceback.
_EXIT_CODES = {
    _InputFileError: EXIT_INVALID_INPUT,
    OrderTooSmallError: EXIT_INVALID_INPUT,
    OSError: EXIT_INVALID_INPUT,
    NotStronglyConnectedError: EXIT_NOT_STRONGLY_CONNECTED,
    ProductTooLargeError: EXIT_SIZE_LIMIT,
    DistanceMatrixTooLargeError: EXIT_SIZE_LIMIT,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="strongprod",
        description="Distances, diameters, and average distances of strong "
                    "product digraphs given as edge-list files.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    p = sub.add_parser("check", help="validate a file and test strong connectivity")
    p.add_argument("paths", nargs=1, metavar="file")

    p = sub.add_parser("apsp", help="print the all-pairs distance matrix")
    p.add_argument("paths", nargs=1, metavar="file")
    p.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv",
                   help="tsv uses INF for unreachable pairs, json uses null")

    p = sub.add_parser("product", help="write the explicit strong product edge list")
    p.add_argument("paths", nargs="+", metavar="file")
    p.add_argument("--out", help="write the edge list here instead of stdout")
    p.add_argument("--check-connected", action="store_true",
                   help="fail (exit 3) when the product is not strongly connected")
    p.add_argument("--max-product-vertices", type=int,
                   default=DEFAULT_MAX_PRODUCT_VERTICES,
                   help="refuse products larger than this many vertices")

    p = sub.add_parser("avgdist", help="average distance report of a strong product")
    p.add_argument("paths", nargs="+", metavar="file")
    p.add_argument("--method", choices=METHODS, default="counting")
    p.add_argument("--max-product-vertices", type=int,
                   default=DEFAULT_MAX_PRODUCT_VERTICES,
                   help="refuse products larger than this many vertices "
                        "(naive and oracle methods)")

    return parser


def _load(path: str) -> Digraph:
    """``load_digraph``, with the path in front of a message about the content.

    An ``OSError`` already names the path and passes through as it is.
    """
    try:
        return load_digraph(path)
    except (EdgeListFormatError, DigraphValidationError, UnicodeDecodeError) as exc:
        raise _InputFileError(f"{path}: {exc}") from exc


def cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.paths[0])
    connected = is_strongly_connected(g)
    print(json.dumps({"n": g.n, "m": g.m, "strongly_connected": connected},
                     **_JSON_COMPACT))
    return EXIT_OK if connected else EXIT_NOT_STRONGLY_CONNECTED


def _render(d: np.ndarray, fmt: str) -> Iterator[str]:
    """The text of the distance array ``d`` in ``fmt``, a block of rows at a time."""
    # Labels are the distances 0..max(d); UNREACHABLE (-1), where some pair
    # is, takes the extra token.
    token, *layout = _LAYOUTS[fmt]
    labels = np.arange(int(d.max()) + 1)
    blocks = _render_rows(d.shape, _copy_rows(d), labels,
                          token if d.min() < 0 else None, *layout)
    return map(bytes.decode, blocks)


def cmd_apsp(args: argparse.Namespace) -> int:
    d = all_pairs_distances(_load(args.paths[0]))
    sys.stdout.writelines(_render(d.array, args.fmt))
    return EXIT_OK


def cmd_product(args: argparse.Namespace) -> int:
    factors = [_load(path) for path in args.paths]
    # Product distance is the maximum of the factor distances, so the
    # product is strongly connected iff every factor is.
    if args.check_connected:
        _check_connected(factors)
    product = strong_product_n(factors, max_vertices=args.max_product_vertices)
    orders = " ".join(str(g.n) for g in factors)
    comments = (
        f"strong product of {len(factors)} factors with orders {orders}",
        "vertex index = row-major encoding of factor coordinates, "
        "leftmost factor most significant",
    )
    blocks = _edge_list_blocks(product, comments)
    # The head comes once the labels, cells and buffers are made, so a
    # product too large for them touches no file.
    blocks = chain([next(blocks)], blocks)
    # Each block is written as it is made, and none is kept.
    if args.out is None:
        sys.stdout.writelines(map(bytes.decode, blocks))
    else:
        with open(args.out, "wb") as out:
            out.writelines(blocks)
    return EXIT_OK


def cmd_avgdist(args: argparse.Namespace) -> int:
    factors = [_load(path) for path in args.paths]
    report = average_distance_product_n(
        factors,
        method=args.method,
        max_product_vertices=args.max_product_vertices,
    )
    payload = {
        "factor_orders": list(report.factor_orders),
        "product_order": report.product_order,
        "sigma": str(report.sigma),
        "mu": {"num": report.mu.numerator, "den": report.mu.denominator},
        "mu_decimal": report.mu_decimal,
        "diameter": report.diameter,
        "method": report.method,
    }
    print(json.dumps(payload, **_JSON_COMPACT))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand in ("product", "avgdist") and len(args.paths) < 2:
        print(f"strongprod: error: {args.subcommand} needs at least two files",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        try:
            # By name per call: the parser is built once, and a command may be rebound.
            return globals()[f"cmd_{args.subcommand}"](args)
        except tuple(_EXIT_CODES) as exc:
            print(f"strongprod: error: {exc}", file=sys.stderr)
            return next(code for error, code in _EXIT_CODES.items()
                        if isinstance(exc, error))
    except MemoryError:
        # In the command or in its report. Numpy's own text names sizes that
        # vary with its version.
        print("strongprod: error: out of memory", file=sys.stderr)
        return EXIT_SIZE_LIMIT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
