"""Seeded request pools for the benchmark and their reference outputs.

Each workload is a list of 15 strata (one request shape each). A block is
one request from every stratum, in a seeded order, and a pool is
``BLOCKS`` blocks with fresh random inputs per block. Runs always stop on
a block boundary, so every run sees the same mix; with 15 equally
weighted strata the median falls in the middle of the 8th slowest stratum
and p90 in the middle of the 14th, not on an edge between two strata.

Sizes are fixed per stratum and the seed draws only the arcs, the vertex
labels and the request order, so different seeds measure the same amount
of work. Random factors have an exact arc count for the same reason.

Reference outputs never touch ``strongprod``: distances come from
``scipy.sparse.csgraph.shortest_path(unweighted=True)``, sigma from the
product of the factor distance CDFs (product distance is the maximum of
the factor distances), and product arc lists from numpy under the
row-major codec. Only digests are kept, so the timed process holds no
copy of any expected output.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

BLOCKS = 2

# Factor specs: ("sparse", n, c) has round(c * ln n * (n - 1)) arcs, the
# arc count of p = c ln n / n; ("dense", n, p) has round(p * n * (n - 1));
# ("cycle", n) is a relabelled directed cycle (diameter n - 1); ("edgeless", n);
# ("source", n, c) is a sparse digraph whose vertex 0 has no in-arcs, so it
# is never strongly connected. sparse and dense are redrawn until strongly
# connected.
S, D, C, E, X = "sparse", "dense", "cycle", "edgeless", "source"

AVGDIST_MIX = [
    ("avgdist", [(S, 100, 3.0), (S, 120, 2.0)]),
    ("avgdist", [(C, 150), (S, 100, 4.0)]),
    ("avgdist", [(S, 200, 1.5), (D, 100, 0.3)]),
    ("avgdist", [(S, 250, 2.0), (C, 120)]),
    ("avgdist", [(D, 200, 0.3), (S, 180, 3.0)]),
    ("avgdist", [(S, 350, 2.5), (S, 300, 4.0)]),
    ("avgdist", [(S, 100, 2.0), (C, 110), (D, 100, 0.3)]),
    ("avgdist", [(S, 150, 3.0), (S, 150, 1.5), (S, 140, 2.5)]),
    ("avgdist", [(S, 300, 2.0), (X, 250, 2.0)]),
    ("avgdist", [(E, 200), (S, 150, 3.0)]),
    ("apsp-tsv", [(S, 300, 2.0)]),
    ("apsp-json", [(D, 350, 0.3)]),
    ("apsp-tsv", [(C, 350)]),
    ("apsp-json", [(X, 200, 3.0)]),
    ("apsp-tsv", [(E, 250)]),
]

# Every factor is strongly connected: the oracle report must equal the
# counting report. The last stratum but one is a 3-fold power (one file
# given three times).
ORACLE_CHECK = [
    ("oracle", [(D, 16, 0.3), (C, 16)]),
    ("oracle", [(S, 12, 2.0), (D, 22, 0.25)]),
    ("oracle", [(C, 14), (S, 20, 1.5)]),
    ("oracle", [(D, 15, 0.4), (S, 20, 2.0)]),
    ("oracle", [(S, 16, 2.0), (C, 20)]),
    ("oracle", [(D, 17, 0.3), (D, 20, 0.2)]),
    ("oracle", [(C, 18), (S, 20, 2.0)]),
    ("oracle", [(S, 19, 1.5), (D, 20, 0.3)]),
    ("oracle", [(D, 20, 0.3), (C, 20)]),
    ("oracle", [(S, 20, 2.0), (S, 21, 2.0)]),
    ("oracle", [(D, 18, 0.2), (S, 25, 1.5)]),
    ("oracle", [(C, 20), (D, 24, 0.3)]),
    ("oracle-power", [(D, 7, 0.4)]),
    ("oracle-power", [(S, 8, 1.5)]),
    ("oracle", [(D, 24, 0.3), (S, 30, 2.0)]),
]

# Products of about 1k-4k vertices and 20k-200k arcs; "product-check" adds
# --check-connected, and its one stratum with a source factor exits 3.
PRODUCT_EMIT = [
    ("product", [(D, 30, 0.14), (D, 40, 0.1)]),
    ("product", [(C, 40), (D, 32, 0.25)]),
    ("product-check", [(D, 40, 0.1), (S, 40, 1.0)]),
    ("product", [(S, 50, 1.0), (D, 50, 0.08)]),
    ("product", [(D, 10, 0.22), (D, 10, 0.22), (S, 12, 1.0)]),
    ("product-check", [(D, 40, 0.13), (D, 50, 0.1)]),
    ("product", [(C, 60), (D, 50, 0.12)]),
    ("product", [(D, 60, 0.05), (S, 60, 1.0)]),
    ("product-check", [(X, 50, 1.0), (D, 40, 0.12)]),
    ("product", [(S, 50, 1.0), (C, 80)]),
    ("product", [(D, 12, 0.23), (S, 12, 1.0), (D, 15, 0.19)]),
    ("product-check", [(D, 50, 0.1), (D, 80, 0.05)]),
    ("product", [(D, 15, 0.14), (S, 15, 1.0), (C, 16)]),
    ("product-check", [(D, 40, 0.15), (D, 60, 0.09)]),
    ("product", [(D, 40, 0.2), (D, 60, 0.14)]),
]

WORKLOADS = {
    "avgdist-mix": AVGDIST_MIX,
    "oracle-check": ORACLE_CHECK,
    "product-emit": PRODUCT_EMIT,
}

# The first request of every process: small, so set-up time is mostly the
# import and whatever the program sets up lazily.
WARMUP = {
    "avgdist-mix": ("avgdist", [(S, 40, 3.0), (C, 30)]),
    "oracle-check": ("oracle", [(D, 6, 0.4), (C, 6)]),
    "product-emit": ("product", [(D, 12, 0.3), (D, 10, 0.3)]),
}

PRODUCT_COMMENT = (
    "vertex index = row-major encoding of factor coordinates, "
    "leftmost factor most significant"
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- input generation -------------------------------------------------------


def _arc_count(spec) -> int:
    kind, n = spec[0], spec[1]
    if kind in (S, X):
        return min(n * (n - 1), round(spec[2] * math.log(n) * (n - 1)))
    if kind == D:
        return round(spec[2] * n * (n - 1))
    return n if kind == C else 0


def _random_arcs(rng, n: int, m: int) -> np.ndarray:
    k = rng.choice(n * (n - 1), size=m, replace=False)
    u, r = np.divmod(k, n - 1)
    return np.stack([u, r + (r >= u)], axis=1)


def _strongly_connected(n: int, arcs: np.ndarray) -> bool:
    if n == 1:
        return True
    a = csr_matrix((np.ones(len(arcs)), (arcs[:, 0], arcs[:, 1])), shape=(n, n))
    return connected_components(a, directed=True, connection="strong")[0] == 1


def make_factor(rng, spec) -> tuple[int, np.ndarray]:
    """(n, arcs) for one factor spec; arcs is an (m, 2) int64 array."""
    kind, n = spec[0], spec[1]
    m = _arc_count(spec)
    if kind == C:
        perm = rng.permutation(n)
        arcs = np.stack([perm, np.roll(perm, -1)], axis=1)
    elif kind == E:
        arcs = np.zeros((0, 2), dtype=np.int64)
    elif kind == X:
        # Draw among the (n - 1)^2 arcs whose head is not 0, so 0 is a source.
        k = rng.choice((n - 1) * (n - 1), size=m, replace=False)
        v, r = np.divmod(k, n - 1)
        v += 1
        arcs = np.stack([r + (r >= v), v], axis=1)
    else:
        while True:
            arcs = _random_arcs(rng, n, m)
            if _strongly_connected(n, arcs):
                break
    return n, arcs[rng.permutation(len(arcs))].astype(np.int64)


def edge_list_text(n: int, arcs: np.ndarray, comment: str) -> str:
    body = "".join(map("{} {}\n".format, arcs[:, 0].tolist(), arcs[:, 1].tolist()))
    return f"# {comment}\n{n} {len(arcs)}\n{body}"


# --- reference outputs ------------------------------------------------------


def _distances(n: int, arcs: np.ndarray) -> np.ndarray:
    """Hop distances as float64 with inf for unreachable pairs."""
    a = csr_matrix((np.ones(len(arcs)), (arcs[:, 0], arcs[:, 1])), shape=(n, n))
    return shortest_path(a, method="D", directed=True, unweighted=True)


def _apsp_bytes(dist: np.ndarray, fmt: str) -> bytes:
    reach = np.isfinite(dist)
    ints = np.where(reach, dist, 0).astype(np.int64).tolist()
    rows = [
        [v if ok else None for v, ok in zip(row, okrow)]
        for row, okrow in zip(ints, reach.tolist())
    ]
    if fmt == "json":
        return (json.dumps(rows, separators=(",", ":")) + "\n").encode()
    text = "".join(
        "\t".join("INF" if v is None else str(v) for v in row) + "\n" for row in rows
    )
    return text.encode()


def decimal_12(value: Fraction) -> str:
    """``value`` > 0 at 12 significant digits, ties to even, zero-padded."""
    e = 0
    while Fraction(10) ** e > value:
        e -= 1
    while Fraction(10) ** (e + 1) <= value:
        e += 1
    scaled = value * Fraction(10) ** (11 - e)
    r = round(scaled)  # Fraction.__round__ rounds half to even
    if r == 10 ** 12:
        r, e = 10 ** 11, e + 1
    if e >= 11:
        return str(r * 10 ** (e - 11))
    if e >= 0:
        digits = str(r)
        return f"{digits[:e + 1]}.{digits[e + 1:]}"
    return "0." + "0" * (-e - 1) + str(r)


def _avgdist_bytes(factors, dists, method: str) -> tuple[int, bytes]:
    if not all(np.isfinite(d).all() for d in dists):
        return 3, b""
    counts = []
    for d in dists:
        hist = np.bincount(d.astype(np.int64).ravel())
        counts.append(np.cumsum(hist).tolist())
    top = max(len(c) for c in counts) - 1
    sigma, below = 0, 0
    for v in range(top + 1):
        upto = 1
        for c in counts:
            upto *= c[min(v, len(c) - 1)]
        sigma += v * (upto - below)
        below = upto
    order = math.prod(n for n, _ in factors)
    mu = Fraction(sigma, order * (order - 1))
    payload = {
        "factor_orders": [n for n, _ in factors],
        "product_order": order,
        "sigma": str(sigma),
        "mu": {"num": mu.numerator, "den": mu.denominator},
        "mu_decimal": decimal_12(mu),
        "diameter": top,
        "method": method,
    }
    return 0, (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def product_arcs(factors) -> tuple[int, np.ndarray, np.ndarray]:
    """Strong product arcs under the row-major codec, sorted by (tail, head)."""
    src = np.zeros(1, dtype=np.int64)
    dst = np.zeros(1, dtype=np.int64)
    for n, arcs in factors:
        stay = np.arange(n, dtype=np.int64)
        s = np.concatenate([arcs[:, 0], stay])
        t = np.concatenate([arcs[:, 1], stay])
        src = (src[:, None] * n + s[None, :]).ravel()
        dst = (dst[:, None] * n + t[None, :]).ravel()
    moving = src != dst
    order = math.prod(n for n, _ in factors)
    key = np.sort(src[moving] * order + dst[moving])
    return order, key // order, key % order


def _product_bytes(factors, check: bool) -> tuple[int, bytes | None]:
    order, src, dst = product_arcs(factors)
    if check and not _strongly_connected(order, np.stack([src, dst], axis=1)):
        return 3, None
    orders = " ".join(str(n) for n, _ in factors)
    head = (f"# strong product of {len(factors)} factors with orders {orders}\n"
            f"# {PRODUCT_COMMENT}\n{order} {len(src)}\n")
    body = "".join(map("{} {}\n".format, src.tolist(), dst.tolist()))
    return 0, (head + body).encode()


# --- plans ------------------------------------------------------------------


class _PoolWriter:
    """Writes the input files of one pool and records each request."""

    def __init__(self, workdir: Path, root: Path, rng):
        self.workdir, self.root, self.rng = workdir, root, rng
        self.files = 0
        self.apsp_s = 0.0

    def _factor(self, spec):
        n, arcs = make_factor(self.rng, spec)
        path = self.workdir / "inputs" / f"g{self.files:04d}.el"
        self.files += 1
        path.write_text(edge_list_text(n, arcs, " ".join(map(str, spec))),
                        encoding="utf-8")
        return (n, arcs), str(path.relative_to(self.root))

    def _dist(self, factor):
        start = time.perf_counter()
        d = _distances(*factor)
        self.apsp_s += time.perf_counter() - start
        return d

    def request(self, stratum: int, kind: str, specs) -> dict:
        made = [self._factor(spec) for spec in specs]
        if kind == "oracle-power":
            made *= 3
        factors = [f for f, _ in made]
        paths = [p for _, p in made]
        req = {"stratum": stratum, "out": None, "out_sha": None}
        if kind.startswith("apsp"):
            fmt = kind.split("-")[1]
            req["argv"] = ["apsp", "--format", fmt, paths[0]]
            req["rc"], out = 0, _apsp_bytes(self._dist(factors[0]), fmt)
        elif kind in ("avgdist", "oracle", "oracle-power"):
            method = "counting" if kind == "avgdist" else "oracle"
            req["argv"] = ["avgdist", *paths] + (
                ["--method", "oracle"] if method == "oracle" else [])
            dists = [self._dist(f) for f in factors]
            req["rc"], out = _avgdist_bytes(factors, dists, method)
        else:
            check = kind == "product-check"
            out_path = str((self.workdir / "out" / "product.el").relative_to(self.root))
            req["argv"] = ["product", *paths, "--out", out_path] + (
                ["--check-connected"] if check else [])
            req["rc"], written = _product_bytes(factors, check)
            req["out"] = out_path
            req["out_sha"] = None if written is None else digest(written)
            out = b""
        req["stdout_sha"] = digest(out)
        req["stdout_bytes"] = len(out)
        return req


def build_plan(workload: str, seed: int, workdir: Path, root: Path) -> dict:
    """Generate the inputs of one (workload, seed) and their references."""
    strata = WORKLOADS[workload]
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    writer = _PoolWriter(workdir, root, rng)
    warmup = writer.request(-1, *WARMUP[workload])
    writer.apsp_s = 0.0
    blocks = []
    for _ in range(BLOCKS):
        block = [writer.request(i, kind, specs) for i, (kind, specs) in enumerate(strata)]
        blocks.append([block[i] for i in rng.permutation(len(block))])
    return {
        "workload": workload,
        "seed": seed,
        "warmup": warmup,
        "blocks": blocks,
        "ref_apsp_s": writer.apsp_s,
    }
