"""Config-driven experiment matrices with a deterministic regression gate.

Declarative **workload × drive topology × cache × batching × seed**
matrices (:mod:`repro.expt.config`), a runner that fans the expanded
cells over worker processes and writes structured results directories
(:mod:`repro.expt.runner`), and a gate that compares a results
manifest's seed-deterministic metrics against the committed baseline
and fails tests on regression (:mod:`repro.expt.gate`).  Cells record
host time but no verdict reads it — wall-clock judgements belong to
``python -m bench compare``.  Driven by ``repro expt run|gate|diff``.
"""

from repro.expt.config import (
    CONFIG_SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentConfigError,
    MatrixCell,
    WorkloadSpec,
    canonical_json,
    config_hash,
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
    "canonical_json",
    "config_hash",
    "diff_manifests",
    "gate_manifest",
    "load_config",
    "run_cell",
    "run_matrix",
    "smoke_config",
    "stable_json",
    "validate_manifest",
    "write_results",
]
