"""Distances, diameters, and average distances of strong product digraphs."""

from .apsp import (
    UNREACHABLE,
    DistanceMatrix,
    all_pairs_distances,
    bfs_distances,
    diameter,
    distance_counts,
)
from .digraph import (
    Digraph,
    EdgeListDocument,
    build_digraph,
    is_strongly_connected,
    load_digraph,
    parse_edge_list,
    write_edge_list,
)
from .metrics import (
    MetricsReport,
    average_distance_product_n,
    product_distance_n,
    sigma_from_counts,
    sigma_naive_n,
)
from .product import (
    DEFAULT_MAX_PRODUCT_VERTICES,
    decode_label,
    encode_label,
    strong_product_n,
)

__all__ = [
    "DEFAULT_MAX_PRODUCT_VERTICES",
    "Digraph",
    "DistanceMatrix",
    "EdgeListDocument",
    "MetricsReport",
    "UNREACHABLE",
    "all_pairs_distances",
    "average_distance_product_n",
    "bfs_distances",
    "build_digraph",
    "decode_label",
    "diameter",
    "distance_counts",
    "encode_label",
    "is_strongly_connected",
    "load_digraph",
    "parse_edge_list",
    "product_distance_n",
    "sigma_from_counts",
    "sigma_naive_n",
    "strong_product_n",
    "write_edge_list",
]
