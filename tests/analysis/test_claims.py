"""The E-series contract: every table `repro experiments` prints, pinned.

``tests/golden/experiment_tables.txt`` holds ``Table.render()`` of every
table of e1–e21 (E9's second table included), E22's rows and the three
ablations, in that order, separated by blank lines.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ablate_block_size,
    ablate_copy_budget,
    ablate_granularity,
)
from repro.analysis.report import Table
from repro.cli import EXPERIMENTS

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _e22_table() -> Table:
    sys.path.insert(0, str(BENCHMARKS))
    try:
        bench = importlib.import_module("bench_e22_fault_recovery")
    finally:
        sys.path.remove(str(BENCHMARKS))
    table = Table(
        title="E22: glitch rate vs fault rate under recovery "
              f"({bench.BLOCKS} blocks, retry budget 2 vs 0)",
        columns=[
            "transient", "defects", "fault rate",
            "glitch rate (recovered)", "glitch rate (budget 0)", "retries",
        ],
    )
    for (transient, defects), row in zip(
        bench.FAULT_MIX, bench.fault_recovery_sweep()
    ):
        table.add_row(
            transient, defects, row["fault_rate"],
            row["glitch_rate_recovered"], row["glitch_rate_budget0"],
            row["retries"],
        )
    return table


@pytest.mark.golden
def test_every_experiment_table_matches_its_golden(golden):
    tables = []
    for experiment_id in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
        result = EXPERIMENTS[experiment_id]()
        tables.append(result.table)
        if hasattr(result, "gc_behaviour"):
            tables.append(result.gc_behaviour)
    tables.append(_e22_table())
    for ablation in (
        ablate_granularity, ablate_copy_budget, ablate_block_size
    ):
        tables.append(ablation().table)
    golden(
        "experiment_tables.txt",
        "\n\n".join(table.render() for table in tables),
    )
