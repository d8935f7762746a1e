"""Parallel sweep runner: fan ``scale`` scenario grids across workers.

A sweep is an embarrassingly parallel map of the registered ``scale``
scenario (:mod:`repro.scenarios`) over a grid — every point owns its
drive and streams, so workers share nothing.  Workers hand back the
small picklable cell record (:func:`repro.expt.cell_from_run`), never
the run itself, and results always come back in grid order, so a
sweep's output is deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.errors import ParameterError
from repro.expt.runner import CellResult, cell_from_run, map_parallel
from repro.scenarios.loop import Scale

__all__ = ["SweepReport", "run_sweep", "scale_grid", "scale_row", "score"]


def score(scenario: Scale) -> CellResult:
    """Run one scale point unobserved; the cell is named by its label.

    Module-level (picklable) so :func:`run_sweep` can dispatch it to
    worker processes.
    """
    return cell_from_run(scenario.run(), cell_id=scenario.label)


def scale_row(cell: CellResult) -> Dict[str, object]:
    """The BENCH_PERF.json row shape of one scored scale point."""
    spec, metrics, perf = cell.spec, cell.metrics, cell.perf
    return {
        "name": cell.cell_id,
        "streams": spec["streams"],
        "blocks_per_stream": spec["blocks_per_stream"],
        "drive": spec["drive"],
        "arrivals": spec["arrivals"],
        "seed": spec["seed"],
        "wall_time_s": perf["wall_time_s"],
        "rounds": metrics["rounds"],
        "blocks_delivered": metrics["blocks_delivered"],
        "misses": metrics["misses"],
        "blocks_per_second": perf["blocks_per_second"],
        "streams_per_second": (
            spec["streams"] / max(perf["wall_time_s"], 1e-9)
        ),
    }


@dataclass(frozen=True)
class SweepReport:
    """All results of one sweep, in scenario order."""

    results: Tuple[CellResult, ...]
    workers: int
    parallel: bool
    wall_time_s: float

    @property
    def total_blocks(self) -> int:
        """Blocks delivered across every scenario."""
        return sum(r.metrics["blocks_delivered"] for r in self.results)

    @property
    def total_misses(self) -> int:
        """Deadline misses across every scenario."""
        return sum(r.metrics["misses"] for r in self.results)

    def table(self) -> Table:
        """Aligned text table of the sweep, one row per scenario."""
        table = Table(
            title=(
                f"perf sweep ({len(self.results)} scenarios, "
                f"{self.workers} worker(s), "
                f"{'parallel' if self.parallel else 'serial'})"
            ),
            columns=[
                "scenario", "streams", "blocks", "drive", "arrivals",
                "wall (s)", "blocks/s", "rounds", "misses",
            ],
        )
        for r in map(scale_row, self.results):
            table.add_row(
                r["name"], r["streams"], r["blocks_per_stream"],
                r["drive"], r["arrivals"], r["wall_time_s"],
                r["blocks_per_second"], r["rounds"], r["misses"],
            )
        return table

    def to_dict(self) -> dict:
        """JSON-ready mapping (the BENCH_PERF.json sweep shape)."""
        return {
            "workers": self.workers,
            "parallel": self.parallel,
            "wall_time_s": self.wall_time_s,
            "total_blocks": self.total_blocks,
            "total_misses": self.total_misses,
            "results": [scale_row(r) for r in self.results],
        }


def scale_grid(
    stream_counts: Sequence[int],
    blocks_per_stream: int,
    seeds: Sequence[int] = (0,),
    drives: Sequence[str] = ("testbed",),
    arrivals: Sequence[str] = ("uniform",),
    k: int = 4,
    buffer_capacity: int = 8,
) -> List[Scale]:
    """The cartesian scenario grid: seeds × arrivals × drives × sizes."""
    return [
        Scale(
            label=f"{drive}-{mode}-n{streams}-b{blocks_per_stream}-seed{seed}",
            streams=streams,
            blocks_per_stream=blocks_per_stream,
            k=k,
            buffer_capacity=buffer_capacity,
            seed=seed,
            drive=drive,
            arrivals=mode,
        )
        for drive in drives
        for mode in arrivals
        for seed in seeds
        for streams in stream_counts
    ]


def run_sweep(
    scenarios: Sequence[Scale],
    workers: Optional[int] = None,
) -> SweepReport:
    """Run every scenario; returns a :class:`SweepReport` in input order.

    ``workers=None`` picks ``min(len(scenarios), cpu_count)``; ``1``
    forces in-process execution (no pool, no pickling — handy under
    profilers and in tests).
    """
    if not scenarios:
        raise ParameterError("run_sweep needs at least one scenario")
    start = time.perf_counter()
    results, workers, parallel = map_parallel(score, scenarios, workers)
    return SweepReport(
        results=tuple(results),
        workers=workers,
        parallel=parallel,
        wall_time_s=time.perf_counter() - start,
    )
