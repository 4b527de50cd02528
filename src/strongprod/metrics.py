"""Distance metrics of strong products computed from their factors.

The product distance is the maximum of the factor distances, so the
distance sum sigma and the average distance mu of a product need only the
factors' distances, never the product itself. Three routes build one
report and must agree exactly; they differ in what they read of each
factor and the sum taken:

* ``naive``    - the factors' matrices, summed over every combination of
  one entry per factor (prod n_i^2 maxima);
* ``counting`` - the factors' distance counts, read off the levels of
  their breadth-first searches with no n x n matrix, their CDFs
  multiplied into the product's CDF, O(k * D) past the searches for k
  factors and largest diameter D;
* ``oracle``   - the explicit product's own matrix, summed as ``naive``
  sums one matrix.

``naive`` and ``counting`` measure each distinct factor once.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import prod
from typing import TypeVar

import numpy as np

from .apsp import DistanceMatrix, all_pairs_distances, diameter, distance_counts
from .digraph import Digraph, _fails_degree_screen, is_strongly_connected
from .errors import NotStronglyConnectedError, OrderTooSmallError
from .product import DEFAULT_MAX_PRODUCT_VERTICES, _check_vertex_limit, strong_product_n

METHODS = ("naive", "counting", "oracle")

_T = TypeVar("_T")

# Most maxima the naive sum forms with one factor at a time.
_NAIVE_BLOCK = 1 << 22


@dataclass(frozen=True)
class MetricsReport:
    """Distance statistics of one strong product, tagged with the route taken."""

    factor_orders: tuple[int, ...]
    product_order: int
    sigma: int
    mu: Fraction
    mu_decimal: str
    diameter: int
    method: str


def _checked_entry(d: DistanceMatrix, x: int, y: int) -> int:
    e = d.entry(x, y)
    if e is None:
        raise NotStronglyConnectedError(f"no directed path from {x} to {y}")
    return e


def product_distance_n(
    ds: Sequence[DistanceMatrix],
    xs: Sequence[int],
    ys: Sequence[int],
) -> int:
    """Distance between two coordinate tuples of an n-fold product."""
    if not ds:
        raise ValueError("need at least one factor")
    if not (len(ds) == len(xs) == len(ys)):
        raise ValueError(
            f"{len(ds)} factors, {len(xs)} source and {len(ys)} target coordinates"
        )
    return max(_checked_entry(d, x, y) for d, x, y in zip(ds, xs, ys))


def sigma_naive_n(ds: Sequence[DistanceMatrix]) -> int:
    """Distance sum over all ordered product pairs by direct comparison.

    Every combination of one entry per factor (diagonal zeros included)
    is one ordered product pair, and its distance is the maximum of those
    entries. Over one matrix this is its entry sum. The maxima are formed
    depth first, in blocks of at most ``_NAIVE_BLOCK`` (or one factor's
    entries), so about one block per factor is held however many factors.
    """
    if not ds:
        raise ValueError("need at least one factor")
    flats = [d.finite_array().ravel() for d in ds]
    total = 0
    # Pending maxima over the first ``depth`` factors.
    stack = [(flats[0], 1)]
    while stack:
        acc, depth = stack.pop()
        if depth == len(flats):
            total += int(acc.sum(dtype=np.int64))
            continue
        chunk = max(1, _NAIVE_BLOCK // flats[depth].size)
        if acc.size > chunk:
            stack.extend((acc[start:start + chunk], depth)
                         for start in range(0, acc.size, chunk))
        else:
            stack.append((np.maximum.outer(acc, flats[depth]).ravel(), depth + 1))
    return total


def sigma_from_counts(counts: Sequence[np.ndarray]) -> int:
    """Distance sum of the strong product of factors with these distance counts.

    ``counts[i][v]`` is the number of ordered pairs of factor i at
    distance v, every pair reachable. A product distance is the maximum
    of the factor distances, so the number of ordered product pairs at
    distance <= v is the product of the factors' counts at distance <= v,
    and differencing that CDF gives the count at exactly v. Cost O(k * D)
    for k factors and largest diameter D. The counts are Python ints, so
    sigma never wraps.
    """
    if not counts:
        raise ValueError("need at least one factor")
    cdfs = [np.cumsum(c).tolist() for c in counts]
    size = max(map(len, cdfs))
    # Past its diameter a factor's CDF stays at its last value.
    cdfs = [cdf + cdf[-1:] * (size - len(cdf)) for cdf in cdfs]
    total = below = 0
    for v, upto_each in enumerate(zip(*cdfs)):
        upto = prod(upto_each)
        total += v * (upto - below)
        below = upto
    return total


def _decimal_12sig(value: Fraction) -> str:
    """Decimal rendering at 12 significant digits, ties to even."""
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        q = Decimal(value.numerator) / Decimal(value.denominator)
    padded = q.quantize(Decimal(1).scaleb(q.adjusted() - 11))
    return format(padded, "f")


def _not_connected(index: int) -> NotStronglyConnectedError:
    return NotStronglyConnectedError(
        f"factor {index} is not strongly connected", factor=index
    )


def _check_connected(gs: Sequence[Digraph]) -> None:
    """Raise for the first factor that is not strongly connected, by traversal."""
    for index, g in enumerate(gs):
        if not is_strongly_connected(g):
            raise _not_connected(index)


def _per_factor(
    gs: Sequence[Digraph],
    measure: Callable[[Digraph], _T],
    connected: Callable[[Digraph, _T], bool],
) -> list[_T]:
    """``measure(g)`` of each factor ``g``, each known strongly connected.

    A factor is strongly connected iff ``connected(g, measure(g))``, so the
    measures stand in for a traversal, and the lowest failing factor is
    named. If any factor has a vertex without an out-arc or an in-arc,
    the factors are traversed in order instead; that stops at the lowest
    index that fails, the one named. A factor equal to an earlier one, by
    order and arc keys, takes the earlier one's measure.
    """
    if any(map(_fails_degree_screen, gs)):
        _check_connected(gs)
    measures: list[_T] = []
    for index, g in enumerate(gs):
        for h, earlier in zip(gs, measures):
            if h.n == g.n and np.array_equal(h._keys, g._keys):
                measures.append(earlier)
                break
        else:
            measures.append(measure(g))
            if not connected(g, measures[-1]):
                raise _not_connected(index)
    return measures


def average_distance_product_n(
    gs: Sequence[Digraph],
    method: str = "counting",
    max_product_vertices: int = DEFAULT_MAX_PRODUCT_VERTICES,
) -> MetricsReport:
    """Metrics of the strong product of ``gs``.

    ``naive`` reads the factors' distance matrices and ``counting`` their
    distance counts; neither builds the product. ``oracle`` builds it and
    reads its one matrix. Every route takes the diameter as the largest
    diameter of what it read. ``naive`` and ``oracle`` raise
    :class:`ProductTooLargeError` for a product of more than
    ``max_product_vertices`` vertices, once every factor is known to be
    strongly connected.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not gs:
        raise ValueError("need at least one factor")
    # An order below 2 means every factor is a single vertex, which is
    # strongly connected, so this check can come first.
    order = prod(g.n for g in gs)
    if order < 2:
        raise OrderTooSmallError("product must have at least 2 vertices")
    if method == "counting":
        counts = _per_factor(gs, distance_counts, lambda g, c: c.sum() == g.n * g.n)
        sigma = sigma_from_counts(counts)
        diam = max(map(len, counts)) - 1
    else:
        if method == "oracle":
            _check_connected(gs)
            product = strong_product_n(gs, max_vertices=max_product_vertices)
            ds = [all_pairs_distances(product)]
        else:
            ds = _per_factor(gs, all_pairs_distances, lambda g, d: d.all_finite)
            _check_vertex_limit(order, max_product_vertices)
        sigma = sigma_naive_n(ds)
        diam = max(map(diameter, ds))
    mu = Fraction(sigma, order * (order - 1))
    return MetricsReport(
        factor_orders=tuple(g.n for g in gs),
        product_order=order,
        sigma=sigma,
        mu=mu,
        mu_decimal=_decimal_12sig(mu),
        diameter=diam,
        method=method,
    )
