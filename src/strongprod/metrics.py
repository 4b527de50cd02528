"""Distance metrics of strong products computed from factor matrices.

The product distance is the maximum of the factor distances, so the
distance sum sigma and the average distance mu of a product need only the
factor distance matrices, never the product itself. Three routes compute
sigma and must agree exactly:

* ``naive``    - compare every factor-entry combination (v1^2 * v2^2 maxima);
* ``counting`` - sort each entry multiset once and combine prefix counts
  with suffix sums;
* ``oracle``   - build the explicit product and sum its distance matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import prod

import numpy as np

from .apsp import DistanceMatrix, diameter, floyd_warshall
from .digraph import Digraph, is_strongly_connected
from .errors import (
    ArityMismatchError,
    EmptyFactorListError,
    NotStronglyConnectedError,
    OrderTooSmallError,
)
from .product import DEFAULT_MAX_PRODUCT_VERTICES, strong_product_n

METHODS = ("naive", "counting", "oracle")


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
    if not (0 <= x < d.n and 0 <= y < d.n):
        raise IndexError(f"vertex pair ({x}, {y}) outside [0, {d.n})")
    e = d.entry(x, y)
    if e is None:
        raise NotStronglyConnectedError(f"no directed path from {x} to {y}")
    return e


def product_distance(
    d1: DistanceMatrix,
    d2: DistanceMatrix,
    x1: int,
    y1: int,
    x2: int,
    y2: int,
) -> int:
    """Distance from x1x2 to y1y2 in the product: max of the factor distances."""
    return max(_checked_entry(d1, x1, y1), _checked_entry(d2, x2, y2))


def product_distance_n(
    ds: Sequence[DistanceMatrix],
    xs: Sequence[int],
    ys: Sequence[int],
) -> int:
    """Distance between two coordinate tuples of an n-fold product."""
    if not ds:
        raise ArityMismatchError("need at least one factor")
    if not (len(ds) == len(xs) == len(ys)):
        raise ArityMismatchError(
            f"{len(ds)} factors, {len(xs)} source and {len(ys)} target coordinates"
        )
    return max(_checked_entry(d, x, y) for d, x, y in zip(ds, xs, ys))


def _finite_flat(d: DistanceMatrix) -> np.ndarray:
    return d.finite_array().ravel()


def _sigma_naive_flats(flats: list[np.ndarray]) -> int:
    if len(flats) == 1:
        return int(flats[0].sum(dtype=np.int64))
    acc = flats[0]
    for flat in flats[1:-1]:
        acc = np.maximum.outer(acc, flat).ravel()
    last = flats[-1]
    # Chunk the outer maximum so the temporary stays a few dozen MB at most.
    chunk = max(1, (1 << 22) // last.size)
    total = 0
    for start in range(0, acc.size, chunk):
        block = np.maximum.outer(acc[start:start + chunk], last)
        total += int(block.sum(dtype=np.int64))
    return total


def sigma_naive(d1: DistanceMatrix, d2: DistanceMatrix) -> int:
    """Distance sum over all ordered product pairs by direct comparison.

    Every entry of ``d1`` meets every entry of ``d2`` exactly once
    (diagonal zeros included), so this is the four-deep loop over
    (x, y, m, n) with the two inner levels vectorized.
    """
    return _sigma_naive_flats([_finite_flat(d1), _finite_flat(d2)])


def sigma_naive_n(ds: Sequence[DistanceMatrix]) -> int:
    """N-ary ``sigma_naive``: every combination of one entry per factor."""
    if not ds:
        raise ArityMismatchError("need at least one factor")
    return _sigma_naive_flats([_finite_flat(d) for d in ds])


def sigma_counting(d1: DistanceMatrix, d2: DistanceMatrix) -> int:
    """Same sum as :func:`sigma_naive` in O(v1^2 log v1 + v2^2 log v2).

    For a distinct value ``a`` of the first multiset, every second-multiset
    entry b <= a contributes ``a`` and every b > a contributes ``b``; one
    sorted pass over the second multiset yields the prefix counts and
    suffix sums for all ``a`` at once.
    """
    flat1 = _finite_flat(d1)
    flat2 = np.sort(_finite_flat(d2))
    values, counts = np.unique(flat1, return_counts=True)
    cumulative = np.concatenate(([0], np.cumsum(flat2, dtype=np.int64)))
    total2 = int(cumulative[-1])
    upto = np.searchsorted(flat2, values, side="right")
    total = 0
    for a, count, k in zip(values.tolist(), counts.tolist(), upto.tolist()):
        suffix_sum = total2 - int(cumulative[k])
        total += count * (a * k + suffix_sum)
    return total


def _entry_multiset(d: DistanceMatrix) -> dict[int, int]:
    values, counts = np.unique(_finite_flat(d), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _merge_max(m1: dict[int, int], m2: dict[int, int]) -> dict[int, int]:
    """Multiset of pairwise maxima of two value->count multisets.

    max(a, b) = v exactly when (a = v and b <= v) or (a < v and b = v);
    sweeping values in ascending order keeps both cumulative counts exact.
    """
    merged: dict[int, int] = {}
    below1 = 0
    upto2 = 0
    for v in sorted(set(m1) | set(m2)):
        c1 = m1.get(v, 0)
        c2 = m2.get(v, 0)
        upto2 += c2
        count = c1 * upto2 + below1 * c2
        below1 += c1
        if count:
            merged[v] = count
    return merged


def sigma_counting_n(ds: Sequence[DistanceMatrix]) -> int:
    """N-ary counting sum: fold the pairwise multiset-of-maxima merge."""
    if not ds:
        raise ArityMismatchError("need at least one factor")
    multiset = _entry_multiset(ds[0])
    for d in ds[1:]:
        multiset = _merge_max(multiset, _entry_multiset(d))
    return sum(v * c for v, c in multiset.items())


def _decimal_12sig(value: Fraction) -> str:
    """Decimal rendering at 12 significant digits, ties to even."""
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        q = Decimal(value.numerator) / Decimal(value.denominator)
    padded = q.quantize(Decimal(1).scaleb(q.adjusted() - 11))
    return format(padded, "f")


def _check_factors(gs: Sequence[Digraph]) -> int:
    if not gs:
        raise EmptyFactorListError("need at least one factor")
    for index, g in enumerate(gs):
        if not is_strongly_connected(g):
            raise NotStronglyConnectedError(
                f"factor {index} is not strongly connected", factor=index
            )
    order = prod(g.n for g in gs)
    if order < 2:
        raise OrderTooSmallError("product must have at least 2 vertices")
    return order


def _report(gs: Sequence[Digraph], order: int, sigma: int, diam: int,
            method: str) -> MetricsReport:
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


def average_distance_product_n(
    gs: Sequence[Digraph],
    method: str = "counting",
    max_product_vertices: int = DEFAULT_MAX_PRODUCT_VERTICES,
) -> MetricsReport:
    """Metrics of the strong product of ``gs`` without building it.

    Runs the all-pairs computation on each factor, combines the entry
    multisets by the selected method, and takes the diameter as the
    maximum factor diameter. ``method="oracle"`` instead defers to
    :func:`average_distance_oracle_n`.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "oracle":
        return average_distance_oracle_n(
            gs, max_product_vertices=max_product_vertices
        )
    order = _check_factors(gs)
    ds = [floyd_warshall(g) for g in gs]
    if method == "naive":
        sigma = sigma_naive(ds[0], ds[1]) if len(ds) == 2 else sigma_naive_n(ds)
    else:
        sigma = sigma_counting(ds[0], ds[1]) if len(ds) == 2 else sigma_counting_n(ds)
    diam = max(diameter(d) for d in ds)
    return _report(gs, order, sigma, diam, method)


def average_distance_product(
    g1: Digraph,
    g2: Digraph,
    method: str = "counting",
    max_product_vertices: int = DEFAULT_MAX_PRODUCT_VERTICES,
) -> MetricsReport:
    """Binary-product metrics from the two factor matrices."""
    return average_distance_product_n(
        [g1, g2], method=method, max_product_vertices=max_product_vertices
    )


def average_distance_oracle_n(
    gs: Sequence[Digraph],
    max_product_vertices: int = DEFAULT_MAX_PRODUCT_VERTICES,
) -> MetricsReport:
    """Metrics via the explicit product: the end-to-end verification route."""
    order = _check_factors(gs)
    product = strong_product_n(gs, max_vertices=max_product_vertices)
    d = floyd_warshall(product)
    sigma = int(d.finite_array().sum(dtype=np.int64))
    return _report(gs, order, sigma, diameter(d), "oracle")


def average_distance_oracle(
    g1: Digraph,
    g2: Digraph,
    max_product_vertices: int = DEFAULT_MAX_PRODUCT_VERTICES,
) -> MetricsReport:
    """Binary-product metrics via the explicit product."""
    return average_distance_oracle_n(
        [g1, g2], max_product_vertices=max_product_vertices
    )
