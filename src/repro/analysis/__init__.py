"""Experiment-running helpers: statistics and table rendering."""

from .stats import Summary, success_rate, summarize, wilson_interval
from .tables import format_cell, format_table

__all__ = [
    "Summary",
    "success_rate",
    "summarize",
    "wilson_interval",
    "format_cell",
    "format_table",
]
