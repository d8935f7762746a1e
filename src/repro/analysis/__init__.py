"""The claims table (one row per reproduced experiment) and its rendering."""

from repro.analysis.claims import EXPERIMENTS, Experiment, select
from repro.analysis.experiments import fetches_with_gap
from repro.analysis.report import Result, Table, format_cell, render_series

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Result",
    "Table",
    "fetches_with_gap",
    "format_cell",
    "render_series",
    "select",
]
