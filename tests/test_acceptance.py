"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every randomized check uses a fixed seed, so the suite is deterministic;
every expected fixture value was computed by the explicit-product route
before being frozen.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from strongprod.apsp import (
    UNREACHABLE,
    all_pairs_distances,
    bfs_distances,
    diameter,
    distance_counts,
)
from strongprod.cli import main
from strongprod.digraph import write_edge_list
from strongprod.metrics import (
    average_distance_product_n,
    product_distance_n,
    sigma_from_counts,
    sigma_naive_n,
)
from strongprod.product import strong_product_n

from .generate import (
    complete_digraph,
    directed_cycle,
    random_digraph,
    random_strongly_connected,
)

SEED = 20250810


def _report(number: int, name: str, ok: bool) -> None:
    print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def factor_pairs():
    """200 pairs of strongly connected digraphs, 2-8 vertices, random density."""
    rng = random.Random(SEED)
    return [
        (
            random_strongly_connected(rng, rng.randint(2, 8)),
            random_strongly_connected(rng, rng.randint(2, 8)),
        )
        for _ in range(200)
    ]


def test_criterion_1_complete_digraph_average():
    start = time.perf_counter()
    failures = []

    complete_pair = average_distance_product_n(
        [complete_digraph(2), complete_digraph(3)]
    )
    if complete_pair.mu != Fraction(1):
        failures.append(f"K2 x K3 gave mu = {complete_pair.mu}, expected exactly 1")

    incomplete_pairs = [
        (directed_cycle(3), complete_digraph(2)),
        (complete_digraph(3), directed_cycle(4)),
        (directed_cycle(5), directed_cycle(2)),
        (directed_cycle(3), directed_cycle(3)),
    ]
    for g1, g2 in incomplete_pairs:
        mu = average_distance_product_n([g1, g2]).mu
        if not mu > 1:
            failures.append(f"non-complete pair ({g1.n}, {g2.n}) gave mu = {mu}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, bound is 1s")

    _report(1, "average distance 1 exactly iff factors complete", not failures)
    assert not failures, failures


def test_criterion_2_binary_distance_formula(factor_pairs):
    start = time.perf_counter()
    mismatches = 0
    case_counts = {"equal": 0, "first_larger": 0, "second_larger": 0}

    for g1, g2 in factor_pairs:
        d1, d2 = all_pairs_distances(g1), all_pairs_distances(g2)
        explicit = all_pairs_distances(strong_product_n([g1, g2]))
        v2 = g2.n
        for u in range(explicit.n):
            x1, x2 = divmod(u, v2)
            for w in range(explicit.n):
                y1, y2 = divmod(w, v2)
                a = d1.entry(x1, y1)
                b = d2.entry(x2, y2)
                if a == b:
                    case_counts["equal"] += 1
                elif a > b:
                    case_counts["first_larger"] += 1
                else:
                    case_counts["second_larger"] += 1
                formula = product_distance_n([d1, d2], (x1, x2), (y1, y2))
                if formula != explicit.entry(u, w):
                    mismatches += 1
    elapsed = time.perf_counter() - start

    failures = []
    if mismatches:
        failures.append(f"{mismatches} formula/explicit mismatches")
    uncovered = [case for case, count in case_counts.items() if count == 0]
    if uncovered:
        failures.append(f"distance comparison cases never hit: {uncovered}")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, bound is 30s")

    _report(2, "binary product distance = max of factor distances, 200 pairs",
            not failures)
    assert not failures, failures


def test_criterion_3_nary_distance_formula():
    start = time.perf_counter()
    rng = random.Random(SEED + 3)
    mismatches = 0
    for _ in range(50):
        factors = [
            random_strongly_connected(rng, rng.randint(2, 4)) for _ in range(3)
        ]
        ds = [all_pairs_distances(g) for g in factors]
        explicit = all_pairs_distances(strong_product_n(factors))
        dims = [g.n for g in factors]
        coords = [
            (i, j, k)
            for i in range(dims[0])
            for j in range(dims[1])
            for k in range(dims[2])
        ]
        for u, xs in enumerate(coords):
            for w, ys in enumerate(coords):
                if product_distance_n(ds, xs, ys) != explicit.entry(u, w):
                    mismatches += 1
    elapsed = time.perf_counter() - start

    failures = []
    if mismatches:
        failures.append(f"{mismatches} formula/explicit mismatches")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, bound is 30s")

    _report(3, "n-ary product distance formula, 50 factor triples", not failures)
    assert not failures, failures


def test_criterion_4_frozen_fixtures():
    failures = []

    c3c3 = average_distance_product_n(
        [directed_cycle(3), directed_cycle(3)], method="oracle"
    )
    if (c3c3.sigma, c3c3.mu) != (117, Fraction(13, 8)):
        failures.append(f"C3 x C3 gave sigma={c3c3.sigma}, mu={c3c3.mu}")

    c2c3 = average_distance_product_n(
        [directed_cycle(2), directed_cycle(3)], method="oracle"
    )
    if (c2c3.sigma, c2c3.mu, c2c3.diameter) != (42, Fraction(7, 5), 2):
        failures.append(
            f"C2 x C3 gave sigma={c2c3.sigma}, mu={c2c3.mu}, diam={c2c3.diameter}"
        )

    # arc count frozen only after enumerating the explicit triple product
    triple = strong_product_n([directed_cycle(2)] * 3)
    if triple.m != 56:
        failures.append(f"C2 x C2 x C2 has {triple.m} arcs, enumeration gave 56")
    if triple != complete_digraph(8):
        failures.append("C2 x C2 x C2 is not the complete digraph on 8 vertices")

    _report(4, "fixture exactness from the explicit-product route", not failures)
    assert not failures, failures


def test_criterion_5_sigma_method_agreement(factor_pairs):
    disagreements = 0
    for g1, g2 in factor_pairs:
        d1, d2 = all_pairs_distances(g1), all_pairs_distances(g2)
        explicit = all_pairs_distances(strong_product_n([g1, g2]))
        oracle_sigma = int(explicit.finite_array().sum())
        counting = sigma_from_counts([distance_counts(g1), distance_counts(g2)])
        if not sigma_naive_n([d1, d2]) == counting == oracle_sigma:
            disagreements += 1
    _report(5, "sigma agreement: naive = counting = explicit, 200 pairs",
            disagreements == 0)
    assert disagreements == 0


def test_criterion_6_diameter_identity(factor_pairs):
    violations = 0
    for g1, g2 in factor_pairs:
        expected = max(
            diameter(all_pairs_distances(g1)), diameter(all_pairs_distances(g2))
        )
        actual = diameter(all_pairs_distances(strong_product_n([g1, g2])))
        if actual != expected:
            violations += 1
    _report(6, "product diameter = max of factor diameters, 200 pairs",
            violations == 0)
    assert violations == 0


def test_criterion_7_hundred_vertex_factors(tmp_path, capsys):
    rng = random.Random(SEED + 7)
    g1 = random_strongly_connected(rng, 100, density=0.06)
    g2 = random_strongly_connected(rng, 100, density=0.08)
    path1 = tmp_path / "g1.el"
    path2 = tmp_path / "g2.el"
    path1.write_text(write_edge_list(g1), encoding="utf-8")
    path2.write_text(write_edge_list(g2), encoding="utf-8")

    start = time.perf_counter()
    code_counting = main(["avgdist", str(path1), str(path2), "--method", "counting"])
    counting_elapsed = time.perf_counter() - start
    counting_out = capsys.readouterr().out

    start = time.perf_counter()
    code_naive = main(["avgdist", str(path1), str(path2), "--method", "naive"])
    naive_elapsed = time.perf_counter() - start
    naive_out = capsys.readouterr().out

    failures = []
    if code_counting != 0 or code_naive != 0:
        failures.append(f"exit codes {code_counting}, {code_naive}")
    else:
        counting = json.loads(counting_out)
        naive = json.loads(naive_out)
        for key in ("factor_orders", "product_order", "sigma", "mu", "diameter"):
            if counting[key] != naive[key]:
                failures.append(f"{key}: {counting[key]} != {naive[key]}")
    if counting_elapsed >= 1.0:
        failures.append(f"counting took {counting_elapsed:.2f}s, bound is 1s")
    if naive_elapsed >= 60.0:
        failures.append(f"naive took {naive_elapsed:.1f}s, bound is 60s")

    _report(7, "100-vertex factors: counting < 1s, naive < 60s, equal results",
            not failures)
    assert not failures, failures


def test_criterion_8_floyd_vs_bfs():
    rng = random.Random(SEED + 8)
    mismatches = 0
    for _ in range(500):
        g = random_digraph(rng, rng.randint(1, 10), rng.random())
        d = all_pairs_distances(g)
        for source in range(g.n):
            bfs = bfs_distances(g, source)
            if d.array[source].tolist() != [UNREACHABLE if e is None else e for e in bfs]:
                mismatches += 1
    _report(8, "Floyd-Warshall rows equal BFS rows on 500 random digraphs",
            mismatches == 0)
    assert mismatches == 0
