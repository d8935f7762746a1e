"""Scale-up performance harness: sweeps and throughput scoring.

:mod:`repro.perf.sweep` fans grids of the registered ``scale`` scenario
(streams × blocks per stream × drive configuration; see
:mod:`repro.scenarios`) across worker processes.  It times how fast the
*simulator* chews through service rounds (blocks/sec of wall clock), not
the simulated continuity outcome, which each row carries alongside for
sanity checking.
"""

from repro.perf.sweep import (
    SweepReport,
    run_sweep,
    scale_grid,
    scale_row,
    score,
)

__all__ = ["SweepReport", "run_sweep", "scale_grid", "scale_row", "score"]
