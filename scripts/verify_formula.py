#!/usr/bin/env python3
"""Randomized end-to-end verification of the product distance formula.

Draws strongly connected factor digraphs, builds each explicit strong
product, and compares every factor-formula distance against the product's
own all-pairs matrix. Prints a summary; exits nonzero on any mismatch.
"""

import argparse
import random
import sys

from strongprod.apsp import all_pairs_distances
from strongprod.generate import random_strongly_connected
from strongprod.metrics import product_distance_n
from strongprod.product import decode_label, strong_product_n


def verify_tuple(rng: random.Random, orders: list[int]) -> tuple[int, int]:
    factors = [random_strongly_connected(rng, n) for n in orders]
    ds = [all_pairs_distances(g) for g in factors]
    explicit = all_pairs_distances(strong_product_n(factors))
    dims = [g.n for g in factors]
    coords = [decode_label(flat, dims) for flat in range(explicit.n)]
    checked = mismatched = 0
    for u, xs in enumerate(coords):
        for w, ys in enumerate(coords):
            checked += 1
            if product_distance_n(ds, xs, ys) != explicit.entry(u, w):
                mismatched += 1
    return checked, mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=200,
                        help="number of binary-factor cases (default 200)")
    parser.add_argument("--triples", type=int, default=50,
                        help="number of three-factor cases (default 50)")
    parser.add_argument("--max-order", type=int, default=8,
                        help="largest factor order for pairs (default 8)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    total_checked = total_mismatched = 0

    for label, count, orders in (
        ("pairs", args.pairs, 2),
        ("triples", args.triples, 3),
    ):
        checked = mismatched = 0
        for _ in range(count):
            top = args.max_order if orders == 2 else 4
            dims = [rng.randint(2, top) for _ in range(orders)]
            c, m = verify_tuple(rng, dims)
            checked += c
            mismatched += m
        print(f"{label}: {count} cases, {checked} vertex pairs checked, "
              f"{mismatched} mismatches")
        total_checked += checked
        total_mismatched += mismatched

    if total_mismatched:
        print(f"FAILED: {total_mismatched} mismatches out of {total_checked}")
        return 1
    print(f"OK: formula matched the explicit product on all "
          f"{total_checked} vertex pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
