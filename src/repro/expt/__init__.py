"""Config-driven experiment matrices with perf/SLO regression gates.

The ROADMAP's substrate item: declarative **workload × drive topology ×
cache × batching × seed** matrices (:mod:`repro.expt.config`), a runner
that fans the expanded cells over the perf sweep's ProcessPool and
writes structured results directories (:mod:`repro.expt.runner`), and a
gate that compares a results manifest against the committed baseline
with per-metric tolerances and fails tests on regression
(:mod:`repro.expt.gate`).  Driven by ``repro expt run|gate|diff``.
"""

from repro.expt.config import (
    CONFIG_SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentConfigError,
    MatrixCell,
    WorkloadSpec,
    canonical_json,
    config_hash,
    full_config,
    load_config,
    smoke_config,
)
from repro.expt.gate import (
    DEFAULT_TOLERANCES,
    GateReport,
    GateVerdict,
    Tolerance,
    diff_manifests,
    gate_manifest,
)
from repro.expt.runner import (
    MANIFEST_SCHEMA_VERSION,
    CellResult,
    MatrixReport,
    build_manifest,
    cell_from_run,
    run_cell,
    run_matrix,
    stable_json,
    validate_manifest,
    write_results,
)

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "MANIFEST_SCHEMA_VERSION",
    "DEFAULT_TOLERANCES",
    "ExperimentConfig",
    "ExperimentConfigError",
    "MatrixCell",
    "WorkloadSpec",
    "CellResult",
    "MatrixReport",
    "GateReport",
    "GateVerdict",
    "Tolerance",
    "build_manifest",
    "canonical_json",
    "cell_from_run",
    "config_hash",
    "diff_manifests",
    "full_config",
    "gate_manifest",
    "load_config",
    "run_cell",
    "run_matrix",
    "smoke_config",
    "stable_json",
    "validate_manifest",
    "write_results",
]
