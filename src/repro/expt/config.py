"""Declarative experiment-matrix configs: schema, validation, expansion.

An :class:`ExperimentConfig` describes a matrix of **workload preset ×
drive topology × cache size × batching on/off × seed** as plain data —
loadable from a dict or a JSON file under ``experiments/`` — and expands
deterministically into concrete :class:`MatrixCell` specs the runner
(:mod:`repro.expt.runner`) fans over worker processes.  The layout
mirrors muBench-style replication suites (SNIPPETS.md): topology and
scale live in declarative workmodel files, the runner maps each factor
combination onto an executable scenario.

A workload's ``kind`` is the name of a registered scenario
(:mod:`repro.scenarios`); the scenario class declares which parameters a
config may set and their matrix defaults (``matrix``), which axes it
consumes (``axes`` — e.g. the bare round loop takes *drives* and
*seeds*, the server front end *cache_blocks*, *batching* and *seeds*),
and its cell id, so a new scenario is a matrix kind with no edit here.

Every config carries a canonical SHA-256 ``config_hash`` so a results
manifest names exactly the matrix that produced it; two dicts with the
same content hash identically regardless of key order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro import scenarios
from repro.disk.factory import DRIVE_CONFIGS
from repro.errors import ParameterError

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "ExperimentConfigError",
    "ExperimentConfig",
    "MatrixCell",
    "WorkloadSpec",
    "canonical_json",
    "config_hash",
    "load_config",
    "smoke_config",
]

#: Version stamped into configs and manifests; bump on shape changes.
CONFIG_SCHEMA_VERSION = 2

#: The config axes, in expansion order.
AXES = ("drives", "cache_blocks", "batching", "seeds")


class ExperimentConfigError(ParameterError):
    """An experiment config violates the matrix schema."""


def canonical_json(value: object) -> str:
    """The canonical encoding hashes and stable files are built from."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_hash(value: Mapping) -> str:
    """SHA-256 of the canonical JSON encoding, ``sha256:<hex>``."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ExperimentConfigError(message)


def _int_list(raw: object, name: str, minimum: int = 0) -> Tuple[int, ...]:
    _require(
        isinstance(raw, (list, tuple)) and len(raw) > 0,
        f"{name} must be a non-empty list",
    )
    values = []
    for item in raw:
        _require(
            isinstance(item, int) and not isinstance(item, bool),
            f"{name} entries must be integers, got {item!r}",
        )
        _require(item >= minimum, f"{name} entries must be >= {minimum}")
        values.append(item)
    _require(
        len(set(values)) == len(values), f"{name} entries must be unique"
    )
    return tuple(values)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload preset of the matrix (a row of the workloads list).

    ``params`` holds the kind-specific sizing (streams, sessions, …) as
    an immutable sorted tuple of pairs so the spec stays hashable and
    pickles cleanly into worker processes.  ``golden`` marks the cell as
    an SLO-gated acceptance scenario: the gate refuses any SLO breach in
    a golden cell, whatever the baseline recorded.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    golden: bool = False

    def param_dict(self) -> Dict[str, object]:
        """The kind-specific parameters as a plain dict."""
        return dict(self.params)

    @staticmethod
    def from_dict(raw: Mapping, index: int) -> "WorkloadSpec":
        _require(
            isinstance(raw, Mapping),
            f"workloads[{index}] must be an object",
        )
        kind = raw.get("kind")
        _require(
            isinstance(kind, str) and kind in scenarios.REGISTRY,
            f"workloads[{index}].kind must be one of "
            f"{', '.join(sorted(scenarios.REGISTRY))}; got {kind!r}",
        )
        scenario = scenarios.get(kind)
        golden = raw.get("golden", False)
        _require(
            isinstance(golden, bool),
            f"workloads[{index}].golden must be a boolean",
        )
        params = {
            key: value
            for key, value in raw.items()
            if key not in ("kind", "golden")
        }
        unknown = sorted(set(params) - set(scenario.matrix))
        _require(
            not unknown,
            f"workloads[{index}] ({kind}) has unknown parameter(s): "
            f"{', '.join(unknown)}; allowed: "
            f"{', '.join(sorted(scenario.matrix))}",
        )
        try:
            scenario.from_spec({**scenario.matrix, **params})
        except ParameterError as error:
            raise ExperimentConfigError(
                f"workloads[{index}] ({kind}): {error}"
            ) from None
        return WorkloadSpec(
            kind=kind,
            params=tuple(sorted(params.items())),
            golden=golden,
        )


@dataclass(frozen=True)
class MatrixCell:
    """One fully-resolved point of the expanded matrix.

    The runner executes cells; the manifest and the per-cell result
    files carry the same ``spec`` dict verbatim, so a cell id is
    traceable back to the exact factor combination that produced it.
    """

    cell_id: str
    kind: str
    golden: bool
    spec: Tuple[Tuple[str, object], ...]

    def spec_dict(self) -> Dict[str, object]:
        """The resolved factor values as a plain dict."""
        return dict(self.spec)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment matrix (see the module docstring).

    Instances are frozen value objects; :meth:`expand` is pure and
    deterministic — the same config always yields the same cell list in
    the same order, which is what makes manifests comparable across
    runs, machines, and PRs.
    """

    name: str
    description: str
    workloads: Tuple[WorkloadSpec, ...]
    drives: Tuple[str, ...] = ("testbed",)
    cache_blocks: Tuple[int, ...] = (256,)
    batching: Tuple[bool, ...] = (True,)
    seeds: Tuple[int, ...] = (0,)
    schema_version: int = CONFIG_SCHEMA_VERSION
    source: Dict = field(default_factory=dict, compare=False)

    @staticmethod
    def from_dict(raw: Mapping) -> "ExperimentConfig":
        """Validate a plain mapping against the matrix schema."""
        _require(isinstance(raw, Mapping), "config must be an object")
        version = raw.get("schema_version")
        _require(
            version == CONFIG_SCHEMA_VERSION,
            f"schema_version must be {CONFIG_SCHEMA_VERSION}, "
            f"got {version!r}",
        )
        allowed_keys = {
            "schema_version", "name", "description", "axes", "workloads",
        }
        unknown = sorted(set(raw) - allowed_keys)
        _require(
            not unknown,
            f"unknown config key(s): {', '.join(unknown)}; allowed: "
            f"{', '.join(sorted(allowed_keys))}",
        )
        name = raw.get("name")
        _require(
            isinstance(name, str) and name.strip() != "",
            "name must be a non-empty string",
        )
        _require(
            all(c.isalnum() or c in "-_" for c in name),
            f"name must be alphanumeric/dash/underscore, got {name!r}",
        )
        description = raw.get("description", "")
        _require(
            isinstance(description, str), "description must be a string"
        )

        axes = raw.get("axes", {})
        _require(isinstance(axes, Mapping), "axes must be an object")
        unknown_axes = sorted(set(axes) - set(AXES))
        _require(
            not unknown_axes,
            f"unknown axes: {', '.join(unknown_axes)}; allowed: "
            f"{', '.join(AXES)}",
        )
        drives_raw = axes.get("drives", ["testbed"])
        _require(
            isinstance(drives_raw, (list, tuple)) and len(drives_raw) > 0,
            "axes.drives must be a non-empty list",
        )
        for drive in drives_raw:
            _require(
                drive in DRIVE_CONFIGS,
                f"axes.drives entry {drive!r} is not a known drive "
                f"config; known: {', '.join(sorted(DRIVE_CONFIGS))}",
            )
        _require(
            len(set(drives_raw)) == len(drives_raw),
            "axes.drives entries must be unique",
        )
        cache_raw = _int_list(
            axes.get("cache_blocks", [256]), "axes.cache_blocks", 0
        )
        batching_raw = axes.get("batching", [True])
        _require(
            isinstance(batching_raw, (list, tuple))
            and len(batching_raw) > 0
            and all(isinstance(b, bool) for b in batching_raw)
            and len(set(batching_raw)) == len(batching_raw),
            "axes.batching must be a non-empty list of unique booleans",
        )
        seeds_raw = _int_list(axes.get("seeds", [0]), "axes.seeds", 0)

        workloads_raw = raw.get("workloads")
        _require(
            isinstance(workloads_raw, (list, tuple))
            and len(workloads_raw) > 0,
            "workloads must be a non-empty list",
        )
        workloads = tuple(
            WorkloadSpec.from_dict(w, i)
            for i, w in enumerate(workloads_raw)
        )

        return ExperimentConfig(
            name=name,
            description=description,
            workloads=workloads,
            drives=tuple(drives_raw),
            cache_blocks=cache_raw,
            batching=tuple(batching_raw),
            seeds=seeds_raw,
            schema_version=version,
            source={key: raw[key] for key in sorted(raw)},
        )

    def to_dict(self) -> Dict[str, object]:
        """The config as canonical plain data (what gets hashed)."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "axes": {
                "drives": list(self.drives),
                "cache_blocks": list(self.cache_blocks),
                "batching": list(self.batching),
                "seeds": list(self.seeds),
            },
            "workloads": [
                {
                    "kind": spec.kind,
                    "golden": spec.golden,
                    **spec.param_dict(),
                }
                for spec in self.workloads
            ],
        }

    @property
    def hash(self) -> str:
        """Canonical content hash naming this exact matrix."""
        return config_hash(self.to_dict())

    def expand(self) -> List[MatrixCell]:
        """Deterministically expand the matrix into concrete cells.

        Workloads expand in declaration order; each kind consumes only
        the axes its scenario declares, so the expansion never emits two
        cells that would run the identical scenario.  Axis order within
        a workload is fixed (:data:`AXES`).  The ``golden`` mark binds
        only to a scenario's acceptance configuration.
        """
        cells: List[MatrixCell] = []
        for spec in self.workloads:
            scenario = scenarios.get(spec.kind)
            used = [axis for axis in AXES if axis in scenario.axes]
            for combo in itertools.product(
                *(getattr(self, axis) for axis in used)
            ):
                point = scenario(**{
                    **scenario.matrix,
                    **spec.param_dict(),
                    **{
                        scenario.axes[axis]: value
                        for axis, value in zip(used, combo)
                    },
                })
                cells.append(MatrixCell(
                    cell_id=point.cell_id(),
                    kind=spec.kind,
                    golden=spec.golden and point.acceptance(),
                    spec=tuple(sorted(point.spec().items())),
                ))
        seen: Dict[str, int] = {}
        for cell in cells:
            seen[cell.cell_id] = seen.get(cell.cell_id, 0) + 1
        duplicates = sorted(c for c, n in seen.items() if n > 1)
        _require(
            not duplicates,
            "matrix expansion produced duplicate cell id(s): "
            f"{', '.join(duplicates)} (two workloads resolve to the "
            "same scenario; drop one)",
        )
        return cells


def load_config(path_or_dict) -> ExperimentConfig:
    """Load and validate a config from a mapping or a JSON file path."""
    if isinstance(path_or_dict, Mapping):
        return ExperimentConfig.from_dict(path_or_dict)
    try:
        with open(path_or_dict, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ExperimentConfigError(
            f"experiment config not found: {path_or_dict}"
        ) from None
    except json.JSONDecodeError as error:
        raise ExperimentConfigError(
            f"experiment config {path_or_dict} is not valid JSON: {error}"
        ) from None
    return ExperimentConfig.from_dict(raw)


#: The smoke matrix — tiny, seconds-fast, still multi-kind — behind
#: ``repro expt run --smoke`` and the committed gate baseline.  Larger
#: matrices are files: ``--config experiments/full.json``.
SMOKE_CONFIG_DICT: Dict = {
    "schema_version": CONFIG_SCHEMA_VERSION,
    "name": "smoke",
    "description": (
        "Tiny end-to-end matrix for CI gating: one scale cell per "
        "drive, server-hot with cache on/off, and a three-node "
        "cluster failover cell."
    ),
    "axes": {
        "drives": ["testbed"],
        "cache_blocks": [0, 256],
        "batching": [True],
        "seeds": [0],
    },
    "workloads": [
        {
            "kind": "scale",
            "streams": 4,
            "blocks_per_stream": 16,
            "arrivals": "uniform",
        },
        {
            "kind": "server-hot",
            "sessions": 4,
            "strands": 2,
            "seconds": 1.0,
            "golden": True,
        },
        {
            "kind": "cluster-scale",
            "nodes": 3,
            "sessions": 12,
            "titles": 4,
            "seconds": 1.0,
            "per_node_streams": 8,
            "chunks": 3,
            "kill_node": 1,
            "kill_chunk": 1,
            "golden": True,
        },
    ],
}


def smoke_config() -> ExperimentConfig:
    """The validated builtin smoke matrix."""
    return ExperimentConfig.from_dict(SMOKE_CONFIG_DICT)
