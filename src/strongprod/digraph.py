"""Finite simple digraphs: construction, edge-list I/O, connectivity.

Vertices are the integers ``0..n-1``. Arcs are ordered pairs without
self-loops, at most one per pair. A digraph keeps its sorted arc keys.
All values are immutable after construction and safe to share across
threads. Views derived from the keys on first read (the out-adjacency,
the arc rows) are cached; threads that read one first at once may each
build it, and all get equal values.
"""

from __future__ import annotations

import codecs
import operator
import re
from collections.abc import Callable, Collection, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isqrt
from pathlib import Path

import numpy as np

from .errors import DigraphValidationError, EdgeListFormatError


@dataclass(frozen=True)
class EdgeListDocument:
    """Parsed edge-list file: declared counts plus arcs in file order.

    ``arcs`` is a read-only ``(m, 2)`` array: int64, or object when a
    vertex is too large for int64. A plain file's rows are allocated once,
    when its body has room for ``m`` lines, and filled a block of lines at
    a time. Only their form is checked: ``Digraph`` checks the values,
    such as a negative ``n`` or vertex."""

    n: int
    m: int
    arcs: np.ndarray


# Longest number the array parser reads: 10**18 - 1 < 2**63.
_MAX_DIGITS = 18

# Blank and ``#`` lines, then an ``n m`` header of at most 18 ASCII digits
# each: ``\n`` lines, whose only other whitespace is spaces and tabs, the
# header also ended by the end of the text. Every line break that
# ``str.splitlines`` splits at is whitespace, so text with any other break
# goes to the line scanner. Each prefix has one parse, so a failed match
# backtracks in linear time.
_HEADER = re.compile(r"(?:[ \t]*(?:#[\S \t]*)?\n)*"
                     r"[ \t]*([0-9]{1,18})[ \t]+([0-9]{1,18})[ \t]*(?:\n|\Z)")

# Arc rows are int64, whatever the order.
_VERTEX_LIMIT = 1 << 63

# Largest order whose arc keys ``u * n + v`` fit in int64.
_MAX_KEYED_ORDER = isqrt(np.iinfo(np.int64).max)


class Digraph:
    """Simple digraph on ``n`` vertices that keeps its sorted arc keys.

    An arc ``(u, v)`` has the key ``u * n + v``; the keys are kept strictly
    increasing, in ``_key_dtype(n)``, and ``m`` is their count. Internal
    readers take ``_out_csr``, built from the keys. ``arc_array``, a
    read-only ``(m, 2)`` int64 array of ``(tail, head)`` rows sorted
    lexicographically, is decoded on first read, only for repr and callers.

    The constructor takes an integer ``n`` and any iterable of integer
    pairs or an integer array, in any order, each pair at most once
    (anything else, a bool too, is a ``TypeError``), and checks every
    value: at least one vertex, endpoints in ``[0, n)``, no self-loops, no
    repeats, found from the sorted keys. Of several faults the first pair
    in the order given is reported, and of one pair's own faults a
    self-loop before a range error. Digraphs of one order and equal keys
    compare and hash equal; no attribute can be assigned or deleted.
    """

    def __init__(self, n: int, arc_array) -> None:
        n = _integer(n)
        if n < 1:
            raise DigraphValidationError("digraph must have at least one vertex")
        rows = _arc_rows(arc_array)
        # Screen the whole array; locate the first faulty row only if there is one.
        limit = min(n, _VERTEX_LIMIT)
        loop = rows[:, 0] == rows[:, 1]
        good = len(rows)
        if loop.any() or rows.min(initial=0) < 0 or rows.max(initial=0) >= limit:
            bad = loop | ((rows < 0) | (rows >= limit)).any(axis=1)
            good = int(bad.argmax())
        # Keys of rows in range are one-to-one, so before the first faulty
        # row an equal neighbour among the sorted keys is a repeated pair,
        # and a stable sort of the keys as given puts each pair's first row
        # before its repeats: the least repeat is the first.
        # Rows in range fit the key dtype, whatever their own (object too).
        # The sum is taken in the key dtype: int64 + uint64 would be float64.
        given = rows[:good, 0].astype(_key_dtype(n))
        given *= n
        np.add(given, rows[:good, 1], out=given, dtype=given.dtype, casting="unsafe")
        key = given.copy()
        key.sort()
        repeat = key[1:] == key[:-1]
        if repeat.any():
            u, v = map(int, rows[given.argsort(kind="stable")[1:][repeat].min()])
            raise DigraphValidationError(f"arc ({u}, {v}) listed more than once")
        if good < len(rows):
            u, v = rows[good].tolist()
            if u == v:
                raise DigraphValidationError(f"self-loop at vertex {u}")
            if min(u, v) < 0 or max(u, v) >= n:
                raise DigraphValidationError(f"arc ({u}, {v}) outside [0, {n})")
            raise DigraphValidationError(f"arc ({u}, {v}) outside [0, {_VERTEX_LIMIT}), "
                                         "the vertices an arc can hold")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_keys", key)

    @staticmethod
    def _from_sorted_keys(n: int, keys: np.ndarray) -> Digraph:
        """The digraph on ``n`` vertices whose arcs have the keys ``u * n + v``.

        The keys are kept, as the constructor keeps the ones it makes, and
        nothing is checked or copied: ``n`` must be a Python int of at
        least 1 and ``keys`` strictly increasing keys of arcs without
        self-loops, each endpoint in ``[0, min(n, 2**63))``, in a dtype
        that ``_key_dtype(n)`` allows.
        """
        g = object.__new__(Digraph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_keys", keys)
        return g

    @property
    def m(self) -> int:
        return len(self._keys)

    @cached_property
    def arc_array(self) -> np.ndarray:
        keys = self._keys
        return _read_only(_key_rows(keys, self.n, np.empty((len(keys), 2), dtype=np.int64)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._keys, other._keys)

    def __hash__(self) -> int:
        # Not the keys' bytes: object keys hold pointers.
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n!r}, arc_array={self.arc_array!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a Digraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a Digraph is immutable")

    @cached_property
    def _out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Offsets and heads of the arcs, sorted by tail, read from the keys.

        The heads of u's arcs are ``heads[offsets[u]:offsets[u + 1]]``, in the key dtype.
        The bounds ``u * n`` are in the key dtype, so numpy searches without copying the keys.
        """
        keys, n = self._keys, self.n
        return np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n), keys % n

    @cached_property
    def _out_lists(self) -> tuple[list[int], list[int]]:
        """``_out_csr`` as Python lists, for the breadth-first walk."""
        offsets, heads = self._out_csr
        return offsets.tolist(), heads.tolist()


def _key_dtype(n: int) -> np.dtype:
    """The narrowest dtype that holds every arc key ``u * n + v`` of order ``n``.

    The keys are below ``n * n``: int32 while that is below 2**31, int64 up
    to ``_MAX_KEYED_ORDER``, Python ints (object) past it, where int64
    would wrap. int32 keys sort faster: product-emit serves 16% more
    requests with them than with int64 alone (``BENCH_product_keys.json``).
    """
    if n * n < 1 << 31:
        return np.dtype(np.int32)
    return np.dtype(np.int64 if n <= _MAX_KEYED_ORDER else object)


def _key_rows(keys: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """``rows`` after writing the keys' rows ``divmod(key, n)`` into it.

    Floor division and a product, not ``np.divmod``: numpy divides by a
    scalar faster so, and has no divmod of Python ints (object keys).
    """
    tails = keys // n
    rows[:, 0] = tails
    rows[:, 1] = keys - tails * n
    return rows


def _integer(value) -> int:
    """``operator.index(value)``, but a bool is a ``TypeError`` too."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def _arc_rows(arcs) -> np.ndarray:
    """An ``(m, 2)`` array of the given pairs, in the given order.

    An integer array is used as it is; a float or bool array is a
    ``TypeError``, where a cast would truncate it. The values of pairs,
    and of object arrays, are read through ``_integer``, so only integers
    pass. A vertex too large for int64 gives an object array, so that the
    range check still names it.
    """
    if isinstance(arcs, np.ndarray) and arcs.dtype != object:
        if arcs.dtype.kind not in "iu":
            raise TypeError(f"arc array must have an integer dtype, got {arcs.dtype}")
        rows = arcs
        if rows.size == 0:
            rows = rows.reshape(0, 2)
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"arc array must have shape (m, 2), got {rows.shape}")
        return rows
    pairs = arcs if isinstance(arcs, Collection) else list(arcs)
    values = list(map(_integer, chain.from_iterable(pairs)))
    try:
        flat = np.array(values, dtype=np.int64)
    except OverflowError:
        flat = np.array(values, dtype=object)
    if flat.size != 2 * len(pairs):
        raise ValueError("arcs must be (u, v) pairs")
    return flat.reshape(-1, 2)


def parse_edge_list(text: str | bytes) -> EdgeListDocument:
    """Parse edge-list text, or its UTF-8 bytes, into an :class:`EdgeListDocument`.

    The format is a header line ``n m`` followed by exactly ``m`` arc lines
    ``u v``; tokens are whitespace-separated decimal integers. Blank lines
    and lines starting with ``#`` are ignored. Bytes parse as the text they
    decode to; bytes that are not UTF-8 raise ``UnicodeDecodeError``.

    Plain files (``\\n`` lines) are parsed from their bytes by numpy, a
    block of lines at a time. Other text goes to the line scanner, the only
    source of format errors: every fault of form, and rarer forms such as
    other line breaks, comments after the header, ``+``, ``_`` or
    non-ASCII digits in numbers, and vertices too large for int64 (which
    come back as an object array). Values, a negative order or vertex too,
    are ``Digraph``'s to check.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    doc = _parse_arrays(data)
    if doc is None:
        doc = _parse_lines(text if isinstance(text, str) else data.decode("utf-8"))
    return doc


# The blank and ``#`` lines up to the first other line, and that line: the
# header line of a plain file, which ``_HEADER`` decides on the decoded text.
_HEAD_LINES = re.compile(rb"(?:[ \t]*(?:#[^\n]*)?\n)*[^\n]*\n?")

# Byte budget of each block of whole lines parsed. A block's arrays take
# 8 to 19 bytes per byte of it (intp bounds of its numbers and positions
# of its newlines), so memory beyond the rows does not grow with the file.
# Of 16 KB to 1 MB, 64 KB blocks parsed the 270 KB avgdist-mix files fastest.
_PARSE_BYTES = 1 << 16

_ZERO, _NINE, _NEWLINE, _BLANK, _TAB = b"09\n \t"
# A blank and a newline read as one little-endian uint16.
_BLANK_NEWLINE, _TAB_NEWLINE = _BLANK | _NEWLINE << 8, _TAB | _NEWLINE << 8


def _parse_arrays(data: bytes) -> EdgeListDocument | None:
    """Parse a plain file from its bytes, a block of lines at a time; None
    for any other text.

    Plain means: a header that ``_HEADER`` matches, then only ASCII digits,
    spaces, tabs and newlines; every non-blank line holds two numbers of at
    most 18 digits, ``m`` lines in all. The ``(m, 2)`` rows are allocated
    once the body is known to have room for them, and filled block by block.
    """
    head = _HEAD_LINES.match(data).end()
    try:
        header = _HEADER.fullmatch(data[:head].decode("utf-8"))
    except UnicodeDecodeError:
        return None
    if header is None:
        return None
    n, m = map(int, header.groups())
    # An arc line takes 4 bytes with its newline, 3 at the end of the text.
    if 4 * m > len(data) - head + 1:
        return None
    arcs = np.empty((m, 2), dtype=np.int64)
    values = arcs.reshape(-1)
    a = np.frombuffer(data, dtype=np.uint8)
    found = 0
    start = head
    while start < len(data):
        # Whole lines: up to the last newline within the budget, or past
        # it to the end of a line longer than the budget.
        stop = start + _PARSE_BYTES
        if stop < len(data):
            stop = (data.rfind(b"\n", start, stop) + 1 or data.find(b"\n", stop) + 1
                    or len(data))
        # The block starts at the newline before its first line.
        numbers = _block_numbers(a[start - 1:stop])
        if numbers is None or found + len(numbers) > 2 * m:
            return None
        values[found:found + len(numbers)] = numbers
        found += len(numbers)
        start = stop
    if found != 2 * m:
        return None
    return EdgeListDocument(n, m, _read_only(arcs))


def _block_numbers(b: np.ndarray) -> np.ndarray | None:
    """The numbers of ``b``, a newline and the whole lines after it, in
    order; None unless the lines are plain, each with none or two numbers.

    Numbers are the digit runs, and every other byte is a separator. A
    block with more runs than two a line is refused before any index is
    made, so no index array outgrows the block's lines. Where each run is
    followed by a single separator, the one after the first number of a
    line must be a blank and the one after its second a newline. Where
    wider gaps occur, the newlines before each number decide, and only the
    numbers' bounds and the newlines are indexed, so a long run of blanks
    costs no index. A number's digits are gathered place by place, each
    index clamped to the separator before the number, whose digit value is
    0; the sums are int32 while no number has more than 9 digits.
    """
    if b[-1] != _NEWLINE:
        b = np.append(b, np.uint8(_NEWLINE))  # the last line of the text, unended
    if b.max() > _NINE:
        return None
    sep = b < _ZERO
    newline = b == _NEWLINE
    # Two numbers a line at most.
    most = 2 * (np.count_nonzero(newline) - 1)
    if not (sep[1:] & sep[:-1]).any():
        # One separator after each number: a blank, then a newline.
        if np.count_nonzero(sep) - 1 > most:
            return None
        seps = np.flatnonzero(sep)
        before, ends = seps[:-1], seps[1:]
        after = b.take(ends)
        if len(after) % 2:
            return None
        pairs = after.view("<u2")
        if (np.count_nonzero(pairs == _BLANK_NEWLINE)
                + np.count_nonzero(pairs == _TAB_NEWLINE)) != len(pairs):
            return None
    else:
        if np.count_nonzero(sep) != (np.count_nonzero(newline) + np.count_nonzero(b == _BLANK)
                                     + np.count_nonzero(b == _TAB)):
            return None
        # Each run starts after a separator and ends before one.
        edge = sep[1:] != sep[:-1]
        if np.count_nonzero(edge) > 2 * most:
            return None
        edges = np.flatnonzero(edge)
        if len(edges) % 4:
            return None
        before, ends = edges[0::2], edges[1::2] + 1
        # Newlines up to the separator before each number: equal for the
        # two numbers of a line, larger for the next line's.
        lines = np.flatnonzero(newline).searchsorted(before, side="right")
        if (lines[1::2] != lines[0::2]).any() or (lines[2::2] == lines[1:-1:2]).any():
            return None
    gaps = ends - before
    widest = int(gaps.max(initial=1)) - 1
    if widest > _MAX_DIGITS:
        return None
    digits = np.clip(b, _ZERO, _NINE)
    digits -= _ZERO
    # Horner's rule from the leading place of the widest number; ``gaps``
    # is spent, and holds the indices.
    np.subtract(ends, widest, out=gaps)
    np.maximum(gaps, before, out=gaps)
    total = digits.take(gaps).astype(np.int32 if widest <= 9 else np.int64)
    for lead in range(widest - 1, 0, -1):
        np.subtract(ends, lead, out=gaps)
        np.maximum(gaps, before, out=gaps)
        total *= 10
        total += digits.take(gaps)
    return total


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _parse_lines(text: str) -> EdgeListDocument:
    """Parse the lines of ``str.splitlines``, raising on the first fault of form:
    a header, two integers a data line, exactly ``m`` arc lines. Values are
    ``Digraph``'s to check; a negative ``m`` is ``declared -1 arcs, found k``."""
    stripped = (raw.strip() for raw in text.splitlines())
    lines = ((number, content) for number, content in enumerate(stripped, start=1)
             if content and not content.startswith("#"))
    header = next(lines, None)
    if header is None:
        raise EdgeListFormatError("missing 'n m' header line")
    n, m = _two_integers(*header, "n m")
    arcs: list[tuple[int, int]] = []
    for number, content in lines:
        if len(arcs) == m:
            raise EdgeListFormatError(f"more than the declared {m} arc lines", line=number)
        arcs.append(_two_integers(number, content, "u v"))
    if len(arcs) != m:
        raise EdgeListFormatError(f"declared {m} arcs, found {len(arcs)}")
    return EdgeListDocument(n=n, m=m, arcs=_read_only(_arc_rows(arcs)))


def _two_integers(number: int, content: str, form: str) -> tuple[int, int]:
    """The two integers of data line ``number``, which should read ``form``."""
    # A third field, whatever follows it, is a fault: split no further.
    tokens = content.split(None, 2)
    if len(tokens) != 2:
        raise EdgeListFormatError(f"expected {form!r}, got {_quoted(content)}", line=number)
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise EdgeListFormatError(
            f"expected two integers, got {_quoted(content)}", line=number
        ) from None


# Most characters of a faulty line that a message quotes, so that the
# message stays one short line however long the line is.
_QUOTED_CHARS = 40


def _quoted(line: str) -> str:
    """``repr(line)``; past ``_QUOTED_CHARS`` characters, that of its first ones and ``...``."""
    if len(line) <= _QUOTED_CHARS:
        return repr(line)
    return repr(line[:_QUOTED_CHARS]) + "..."


def build_digraph(doc: EdgeListDocument) -> Digraph:
    """Validate a parsed document into a :class:`Digraph`, which checks its arcs."""
    return Digraph(doc.n, doc.arcs)


def load_digraph(path: str | Path) -> Digraph:
    """Read, parse and validate the edge-list file at ``path``.

    The file is UTF-8, with or without a BOM, and is read as bytes, as
    ``read_text(encoding="utf-8-sig")`` would read it: a file that is only
    the start of a BOM is empty, and text with a carriage return is decoded
    and its breaks made ``\\n``, as text mode makes them.
    """
    data = Path(path).read_bytes()
    if codecs.BOM_UTF8.startswith(data[:3]):
        data = data[3:]
    if b"\r" in data:
        data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return build_digraph(parse_edge_list(data))


# Byte budget of each block of rows rendered: bounded, so that memory does
# not grow with the table, and large, since each block allocates its text
# anew. With 128 KB blocks (4,369 rows of a product-emit edge list) those
# texts, of varying sizes, fragmented the heap: over 40 passes of the
# product-emit pool in one process, peak RSS reached 45.7 MB, against
# 39.4 MB with 512 KB blocks.
_RENDER_BYTES = 1 << 19


def write_edge_list(g: Digraph, comments: Sequence[str] = ()) -> str:
    """Render ``g`` in the edge-list format, arcs in lexicographic order.

    Inverse of ``parse_edge_list`` + ``build_digraph`` (comments aside).
    A comment holding a line break, one that ``str.splitlines`` splits at,
    is a ``ValueError``: the text would not parse back.
    """
    blocks = _edge_list_blocks(g, comments)
    return "".join(block.decode("utf-8", "surrogatepass") for block in blocks)


def _edge_list_blocks(g: Digraph, comments: Sequence[str] = ()) -> Iterator[bytes]:
    """The bytes of ``write_edge_list(g, comments)`` in UTF-8, lone
    surrogates passed: the head, then the arc lines a block at a time.

    The comments are checked and the labels made before this returns:
    every label up to ``n - 1`` when ``n <= 2 * m``, else only those in
    use, in which each block's rows are looked up. The rows are decoded
    from the digraph's arc keys a block at a time; no arc rows are built whole.
    """
    for comment in comments:
        if "".join(comment.splitlines()) != comment:
            raise ValueError(f"comment {comment!r} holds a line break")
    head = "".join(f"# {comment}\n" for comment in comments) + f"{g.n} {g.m}\n"

    def arcs(start: int, out: np.ndarray) -> None:
        _key_rows(g._keys[start:start + len(out)], g.n, out)

    if g.n <= 2 * g.m:
        labels, fill = np.arange(g.n), arcs
    else:
        labels = np.unique(np.concatenate((g._keys // g.n, g._keys % g.n)))

        def fill(start: int, out: np.ndarray) -> None:
            arcs(start, out)
            out[...] = np.searchsorted(labels, out)
    return _render_rows((g.m, 2), fill, labels, None, " ", "\n", head, "\n")


def _copy_rows(a: np.ndarray) -> Callable[[int, np.ndarray], None]:
    """A ``fill`` for ``_render_rows`` that copies the rows of the array ``a``."""
    def fill(start: int, out: np.ndarray) -> None:
        out[...] = a[start:start + len(out)]
    return fill


def _render_rows(shape: tuple[int, int], fill: Callable[[int, np.ndarray], None],
                 labels: np.ndarray, extra: str | None, sep: str, row_end: str,
                 head: str, tail: str) -> Iterator[bytes]:
    """The text of an integer table of ``shape``, as bytes, a block of rows at a time.

    ``fill(start, out)`` writes the table's rows from ``start`` on into the
    intp array ``out``, as many as it holds; it is called once a block,
    always with the same buffer, so the table need not exist whole. Entry
    x is the decimal ``labels[x]``, or ``extra`` where x is -1 (the last
    cell, where ``take`` wraps it), followed by ``sep``, or by ``row_end``
    at the end of a row; ``head`` comes first, and ``tail`` follows the
    rendered rows in place of the last row end, which is cut off in the
    buffer; a table of no rows is ``head`` alone. Each label, and
    ``extra``, has a fixed-width cell of ASCII bytes: the token
    right-aligned and NUL-padded, then ``sep``.
    A row of a block is its cells, then as many spare bytes as ``row_end``
    is longer than ``sep``, which must not be shorter. A block is one
    ``take`` into the cells of a buffer of such rows, then one strided
    store of ``row_end`` over each row's last separator and spare bytes.
    Only labels of unequal widths, or an ``extra`` of another width, pad
    a cell with NULs, and only then is each block's text scanned to delete
    them. Blocks stay near ``_RENDER_BYTES``, read at the first block, so
    memory does not grow with the rows rendered. ``head`` and ``tail`` are
    encoded as UTF-8, lone surrogates passed.
    """
    count, cols = shape
    table = _cell_table(labels, extra, sep)
    cells = table.view(f"S{table.shape[1]}").ravel()
    end = np.frombuffer(row_end.encode("ascii"), dtype=np.uint8)
    row_bytes = cols * cells.itemsize + len(row_end) - len(sep)
    # A block's cells, their bytes and its text are alive at once, beside
    # its indices.
    step = max(1, _RENDER_BYTES // (3 * row_bytes))
    index = np.empty((min(step, count), cols), dtype=np.intp)
    buf = np.empty((len(index), row_bytes), dtype=np.uint8)
    row_cells = buf[:, :cols * cells.itemsize].view(cells.dtype)
    ends = buf[:, row_bytes - len(row_end):]
    padded = not table.all()
    yield head.encode("utf-8", "surrogatepass")
    for r in range(0, count, step):
        rows = index[:min(step, count - r)]
        fill(r, rows)
        cells.take(rows, out=row_cells[:len(rows)], mode="wrap")
        ends[:len(rows)] = end
        text = buf[:len(rows)].reshape(-1)
        if r + step >= count:
            text = text[:-len(row_end)]
        text = text.tobytes()
        if padded:
            text = text.translate(None, b"\0")
        yield text
    if count:
        yield tail.encode("utf-8", "surrogatepass")


def _cell_table(labels: np.ndarray, extra: str | None, sep: str) -> np.ndarray:
    """A uint8 row of cell bytes per label, then one for ``extra`` if given.

    A cell is the token right-aligned in a NUL-padded field as wide as the
    widest token, then ``sep``.
    """
    value = labels.astype(np.int64)
    digits = len(str(int(value.max(initial=0))))
    width = max(digits, len(extra or ""))
    table = np.zeros((len(value) + (extra is not None), width + len(sep)), dtype=np.uint8)
    table[:, width:] = list(sep.encode("ascii"))
    if extra is not None:
        table[-1, width - len(extra):width] = list(extra.encode("ascii"))
    # Units digit first; a place left of a label's leading digit stays NUL.
    table[:len(value), width - 1] = value % 10 + ord("0")
    for col in range(width - 2, width - 1 - digits, -1):
        value //= 10
        table[:len(value), col] = np.where(value > 0, value % 10 + ord("0"), 0)
    return table


def _bfs(g: Digraph, source: int) -> list[int | None]:
    """Breadth-first distances from ``source`` along the arcs; None where unreached."""
    bounds, heads = g._out_lists
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    order = [source]
    for u in order:
        d = dist[u] + 1  # type: ignore[operator]
        for w in heads[bounds[u]:bounds[u + 1]]:
            if dist[w] is None:
                dist[w] = d
                order.append(w)
    return dist


def _fails_degree_screen(g: Digraph) -> bool:
    """Whether ``g`` has two or more vertices and one without an out-arc or an
    in-arc. Fewer arcs than vertices decide it first, sparing a huge order any
    n-sized array; then the out-adjacency's offsets and heads decide it.
    """
    if g.m < g.n:
        return g.n > 1
    offsets, heads = g._out_csr
    has_in = np.zeros(g.n, dtype=bool)
    has_in[heads] = True
    return not (has_in.all() and (offsets[1:] > offsets[:-1]).all())


def _reverse(g: Digraph) -> Digraph:
    """``g`` with its arcs turned round, keyed ``head * n + tail``; valid, so unchecked."""
    return Digraph._from_sorted_keys(g.n, np.sort(g._keys % g.n * g.n + g._keys // g.n))


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    A vertex without an out-arc or an in-arc decides it first. Then a
    breadth-first walk from vertex 0 over the out-adjacency of ``g`` and
    of its reverse, made from the keys: a digraph is strongly connected
    iff vertex 0 reaches everything and everything reaches it.
    """
    return (not _fails_degree_screen(g)
            and None not in _bfs(g, 0)
            and None not in _bfs(_reverse(g), 0))
