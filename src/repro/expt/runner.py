"""Experiment-matrix runner: fan cells over workers, write results dirs.

:func:`run_matrix` expands an :class:`~repro.expt.config.ExperimentConfig`
and maps :func:`run_cell` — one registry lookup, one
:meth:`~repro.scenarios.Scenario.run` — over the cells through
:func:`map_parallel`, a ProcessPool fan-out.  A stream-count sweep is
just a matrix of ``scale`` rows.  The output is a structured results
directory::

    <out_dir>/
      matrix.json          # the manifest: config, hash, every cell
      cells/<cell_id>.json # one file per cell, stable-sorted JSON

Every JSON artifact is written with sorted keys, two-space indent, and a
trailing newline (:func:`stable_json`).  A cell record separates its
**metrics** — simulation outcomes that are byte-identical across runs
with the same seed (delivered blocks, misses, continuity/reject/cache
ratios, SLO breaches) — from its **perf** section (wall seconds and
blocks per wall-second), which is honest about being host- and
run-dependent.  The gate (:mod:`repro.expt.gate`) reads the metrics
only; ``expt diff`` prints both.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import scenarios
from repro.errors import ParameterError
from repro.expt.config import ExperimentConfig, MatrixCell
from repro.scenarios import METRIC_KEYS, PERF_KEYS

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "CellResult",
    "MatrixReport",
    "map_parallel",
    "run_cell",
    "run_matrix",
    "stable_json",
    "validate_manifest",
    "write_results",
]

#: Version of the manifest/cell record shape; bump on changes.
MANIFEST_SCHEMA_VERSION = 1

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def map_parallel(
    fn: Callable[[_ItemT], _ResultT],
    items: Sequence[_ItemT],
    workers: Optional[int] = None,
) -> Tuple[List[_ResultT], int, bool]:
    """Map a picklable *fn* over *items*, fanning across worker processes.

    The fan-out behind :func:`run_matrix`.  Returns ``(results, workers,
    parallel)`` with results in input order.  ``workers=None`` picks
    ``min(len(items), cpu_count)``; ``1`` forces in-process execution.
    Pool failures (sandboxed /dev/shm, fork limits) degrade to serial
    rather than failing the run.
    """
    if not items:
        raise ParameterError("map_parallel needs at least one item")
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    if workers is None:
        workers = min(len(items), os.cpu_count() or 1)
    workers = min(workers, len(items))
    parallel = workers > 1
    if parallel:
        try:
            with ProcessPoolExecutor(max_workers=workers) as executor:
                results = list(executor.map(fn, items))
        except (OSError, PermissionError):
            parallel = False
            results = [fn(item) for item in items]
    else:
        results = [fn(item) for item in items]
    return results, workers, parallel


def stable_json(value: object) -> str:
    """Sorted-key, indented JSON with a trailing newline.

    The one serialization every expt artifact uses, so identical data is
    identical bytes — the byte-stability contract the regression tests
    and the golden-file workflow rely on.
    """
    import json

    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class CellResult:
    """One executed cell: its spec, deterministic metrics, and timings."""

    cell_id: str
    kind: str
    golden: bool
    spec: Dict[str, object]
    metrics: Dict[str, Optional[float]]
    perf: Dict[str, float]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the per-cell file and manifest shape)."""
        return {
            "cell_id": self.cell_id,
            "kind": self.kind,
            "golden": self.golden,
            "spec": dict(self.spec),
            "metrics": dict(self.metrics),
            "perf": dict(self.perf),
        }


def run_cell(cell: MatrixCell) -> CellResult:
    """Execute one matrix cell (module-level, so workers can pickle it)
    and flatten the run into the small picklable record."""
    spec = cell.spec_dict()
    run = scenarios.get(cell.kind)(**spec).run()
    return CellResult(
        cell_id=cell.cell_id,
        kind=cell.kind,
        golden=cell.golden,
        spec=spec,
        metrics=run.metrics(),
        perf=run.perf(),
    )


@dataclass(frozen=True)
class MatrixReport:
    """A completed matrix run: the config plus every cell result."""

    config: ExperimentConfig
    cells: Tuple[CellResult, ...]
    workers: int
    parallel: bool
    wall_time_s: float

    def manifest_dict(self) -> Dict[str, object]:
        """The ``matrix.json`` manifest this run serializes to."""
        return {
            "kind": "expt_matrix",
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "name": self.config.name,
            "config": self.config.to_dict(),
            "config_hash": self.config.hash,
            "workers": self.workers,
            "parallel": self.parallel,
            "wall_time_s": self.wall_time_s,
            "cells": {
                cell.cell_id: cell.to_dict() for cell in self.cells
            },
        }


def run_matrix(
    config: ExperimentConfig,
    workers: Optional[int] = None,
) -> MatrixReport:
    """Expand *config* and run every cell, fanning across processes."""
    cells = config.expand()
    started = time.perf_counter()
    results, used_workers, parallel = map_parallel(
        run_cell, cells, workers
    )
    return MatrixReport(
        config=config,
        cells=tuple(results),
        workers=used_workers,
        parallel=parallel,
        wall_time_s=time.perf_counter() - started,
    )


def write_results(report: MatrixReport, out_dir) -> str:
    """Write the manifest + per-cell files; returns the manifest path."""
    from pathlib import Path

    out = Path(out_dir)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    for cell in report.cells:
        (cells_dir / f"{cell.cell_id}.json").write_text(
            stable_json(cell.to_dict())
        )
    manifest_path = out / "matrix.json"
    manifest_path.write_text(stable_json(report.manifest_dict()))
    return str(manifest_path)


def validate_manifest(manifest: object) -> Dict[str, object]:
    """Check a manifest against the schema; returns it or raises.

    Raises :class:`~repro.errors.ParameterError` with a message naming
    the offending key, so CI failures read as schema diagnoses rather
    than KeyErrors.
    """

    def fail(message: str) -> None:
        raise ParameterError(f"invalid expt manifest: {message}")

    if not isinstance(manifest, dict):
        fail(f"expected an object, got {type(manifest).__name__}")
    required = {
        "kind", "schema_version", "name", "config", "config_hash",
        "workers", "parallel", "wall_time_s", "cells",
    }
    missing = sorted(required - set(manifest))
    if missing:
        fail(f"missing key(s): {', '.join(missing)}")
    if manifest["kind"] != "expt_matrix":
        fail(f"kind must be 'expt_matrix', got {manifest['kind']!r}")
    if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
        fail(
            f"schema_version must be {MANIFEST_SCHEMA_VERSION}, "
            f"got {manifest['schema_version']!r}"
        )
    if not isinstance(manifest["config_hash"], str) or (
        not manifest["config_hash"].startswith("sha256:")
    ):
        fail("config_hash must be a 'sha256:...' string")
    cells = manifest["cells"]
    if not isinstance(cells, dict) or not cells:
        fail("cells must be a non-empty object")
    for cell_id, record in cells.items():
        if not isinstance(record, dict):
            fail(f"cell {cell_id} must be an object")
        cell_missing = sorted(
            {"cell_id", "kind", "golden", "spec", "metrics", "perf"}
            - set(record)
        )
        if cell_missing:
            fail(
                f"cell {cell_id} missing key(s): "
                f"{', '.join(cell_missing)}"
            )
        if record["cell_id"] != cell_id:
            fail(
                f"cell {cell_id} has mismatched cell_id "
                f"{record['cell_id']!r}"
            )
        metrics = record["metrics"]
        if not isinstance(metrics, dict):
            fail(f"cell {cell_id} metrics must be an object")
        metric_missing = sorted(set(METRIC_KEYS) - set(metrics))
        if metric_missing:
            fail(
                f"cell {cell_id} metrics missing: "
                f"{', '.join(metric_missing)}"
            )
        perf = record["perf"]
        if not isinstance(perf, dict) or (
            sorted(set(PERF_KEYS) - set(perf))
        ):
            fail(
                f"cell {cell_id} perf must carry "
                f"{', '.join(PERF_KEYS)}"
            )
        for key, value in {**metrics, **perf}.items():
            if value is None:
                continue
            if not isinstance(value, (int, float)) or (
                isinstance(value, bool)
            ):
                fail(
                    f"cell {cell_id} {key} must be numeric or null, "
                    f"got {value!r}"
                )
            if value != value:
                fail(f"cell {cell_id} {key} is NaN")
    return manifest
