"""Metric substrate: spaces, points, Hungarian matching, and EMD."""

from .emd import emd, emd_k, emd_k_with_exclusions, emd_with_matching
from .matching import greedy_matching, hungarian
from .spaces import GridSpace, HammingSpace, MetricSpace, Point, point_tuples

__all__ = [
    "GridSpace",
    "HammingSpace",
    "MetricSpace",
    "Point",
    "emd",
    "emd_k",
    "emd_k_with_exclusions",
    "emd_with_matching",
    "greedy_matching",
    "hungarian",
    "point_tuples",
]
