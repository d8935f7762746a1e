"""Runner contracts: determinism, results layout, manifest validation."""

import json

import pytest

from repro.errors import ParameterError
from repro.expt import (
    ExperimentConfig,
    run_cell,
    run_matrix,
    smoke_config,
    stable_json,
    validate_manifest,
    write_results,
)
from repro.expt.runner import METRIC_KEYS, PERF_KEYS, map_parallel
from repro.scenarios import get
from repro.scenarios.base import _ratio


@pytest.fixture(scope="module")
def smoke_report():
    # One serial smoke-matrix run shared across this module's tests;
    # workers=1 keeps it deterministic and avoids fork cost per test.
    return run_matrix(smoke_config(), workers=1)


class TestStableJson:
    def test_sorted_indented_trailing_newline(self):
        text = stable_json({"b": 1, "a": {"z": 2, "y": 3}})
        assert text == (
            '{\n  "a": {\n    "y": 3,\n    "z": 2\n  },\n  "b": 1\n}\n'
        )

    def test_identical_data_identical_bytes(self):
        a = {"x": [1, 2], "y": None}
        b = {"y": None, "x": [1, 2]}
        assert stable_json(a) == stable_json(b)


class TestRatioGuard:
    def test_plain_ratio(self):
        assert _ratio(3.0, 4.0) == 0.75

    def test_zero_denominator_is_none(self):
        assert _ratio(1.0, 0.0) is None

    def test_nan_inputs_are_none(self):
        assert _ratio(float("nan"), 1.0) is None
        assert _ratio(1.0, float("nan")) is None


class TestRunCell:
    def test_every_smoke_cell_carries_full_metric_set(self, smoke_report):
        for cell in smoke_report.cells:
            assert set(cell.metrics) == set(METRIC_KEYS)
            assert set(PERF_KEYS) <= set(cell.perf)

    def test_metrics_deterministic_across_runs(self, smoke_report):
        again = run_matrix(smoke_config(), workers=1)
        first = {c.cell_id: c.metrics for c in smoke_report.cells}
        second = {c.cell_id: c.metrics for c in again.cells}
        assert first == second
        # byte-level: the metrics sections serialize identically.
        assert stable_json(first) == stable_json(second)

    def test_scale_cell_matches_direct_scenario_run(self, smoke_report):
        [cell] = [c for c in smoke_report.cells if c.kind == "scale"]
        direct = get("scale")(label="direct", **cell.spec).run().metrics()
        assert cell.metrics == direct

    def test_unknown_kind_rejected(self, smoke_report):
        from repro.expt import MatrixCell

        with pytest.raises(ParameterError, match="unknown scenario"):
            run_cell(MatrixCell(
                cell_id="x", kind="quantum", golden=False, spec=(),
            ))


class TestParallelFanOut:
    """A stream-count sweep is a matrix of ``scale`` rows; this is the
    one place the pool runs with more than one worker."""

    @staticmethod
    def _sweep():
        return ExperimentConfig.from_dict({
            "schema_version": 2,
            "name": "sweep",
            "axes": {"seeds": [0, 1]},
            "workloads": [
                {"kind": "scale", "streams": n, "blocks_per_stream": 12}
                for n in (2, 3)
            ],
        })

    def test_serial_and_parallel_agree(self):
        config = self._sweep()
        serial = run_matrix(config, workers=1)
        parallel = run_matrix(config, workers=2)
        assert not serial.parallel and serial.workers == 1
        assert parallel.workers == 2
        order = [cell.cell_id for cell in config.expand()]
        assert [c.cell_id for c in serial.cells] == order
        assert [c.cell_id for c in parallel.cells] == order
        assert stable_json([c.metrics for c in serial.cells]) == (
            stable_json([c.metrics for c in parallel.cells])
        )

    def test_empty_sweep_rejected(self):
        with pytest.raises(ParameterError, match="at least one item"):
            map_parallel(run_cell, [])
        with pytest.raises(ParameterError, match="workers must be >= 1"):
            run_matrix(self._sweep(), workers=0)


class TestResultsLayout:
    def test_write_results_structure(self, smoke_report, tmp_path):
        manifest_path = write_results(smoke_report, tmp_path / "out")
        manifest = json.loads(open(manifest_path).read())
        validate_manifest(manifest)
        assert manifest["name"] == "smoke"
        assert manifest["config_hash"] == smoke_config().hash
        cell_files = sorted(
            p.name for p in (tmp_path / "out" / "cells").iterdir()
        )
        assert cell_files == sorted(
            f"{c}.json" for c in manifest["cells"]
        )
        # per-cell files carry the same record as the manifest entry.
        for cell_id, record in manifest["cells"].items():
            on_disk = json.loads(
                (tmp_path / "out" / "cells" / f"{cell_id}.json")
                .read_text()
            )
            assert on_disk == record

    def test_manifest_is_byte_stable_given_same_metrics(
        self, smoke_report, tmp_path
    ):
        write_results(smoke_report, tmp_path / "a")
        write_results(smoke_report, tmp_path / "b")
        assert (
            (tmp_path / "a" / "matrix.json").read_bytes()
            == (tmp_path / "b" / "matrix.json").read_bytes()
        )


class TestValidateManifest:
    def _valid(self):
        metrics = {key: None for key in METRIC_KEYS}
        return {
            "kind": "expt_matrix",
            "schema_version": 1,
            "name": "v",
            "config": {},
            "config_hash": "sha256:00",
            "workers": 1,
            "parallel": False,
            "wall_time_s": 0.0,
            "cells": {
                "c": {
                    "cell_id": "c",
                    "kind": "scale",
                    "golden": False,
                    "spec": {},
                    "metrics": metrics,
                    "perf": {
                        "wall_time_s": 0.1,
                        "blocks_per_second": 1.0,
                    },
                }
            },
        }

    def test_valid_manifest_passes(self):
        validate_manifest(self._valid())

    def test_non_dict_rejected(self):
        with pytest.raises(ParameterError, match="expected an object"):
            validate_manifest([1, 2])

    def test_missing_top_level_key_named(self):
        bad = self._valid()
        del bad["config_hash"]
        with pytest.raises(ParameterError, match="config_hash"):
            validate_manifest(bad)

    def test_wrong_kind_rejected(self):
        bad = self._valid()
        bad["kind"] = "bench"
        with pytest.raises(ParameterError, match="expt_matrix"):
            validate_manifest(bad)

    def test_wrong_schema_version_rejected(self):
        bad = self._valid()
        bad["schema_version"] = 9
        with pytest.raises(ParameterError, match="schema_version"):
            validate_manifest(bad)

    def test_bad_hash_prefix_rejected(self):
        bad = self._valid()
        bad["config_hash"] = "md5:00"
        with pytest.raises(ParameterError, match="sha256"):
            validate_manifest(bad)

    def test_empty_cells_rejected(self):
        bad = self._valid()
        bad["cells"] = {}
        with pytest.raises(ParameterError, match="non-empty"):
            validate_manifest(bad)

    def test_cell_missing_metric_named(self):
        bad = self._valid()
        del bad["cells"]["c"]["metrics"]["misses"]
        with pytest.raises(ParameterError, match="misses"):
            validate_manifest(bad)

    def test_mismatched_cell_id_rejected(self):
        bad = self._valid()
        bad["cells"]["c"]["cell_id"] = "other"
        with pytest.raises(ParameterError, match="mismatched"):
            validate_manifest(bad)

    def test_non_numeric_metric_rejected(self):
        bad = self._valid()
        bad["cells"]["c"]["metrics"]["misses"] = "three"
        with pytest.raises(ParameterError, match="numeric or null"):
            validate_manifest(bad)

    def test_nan_metric_rejected(self):
        bad = self._valid()
        bad["cells"]["c"]["perf"]["wall_time_s"] = float("nan")
        with pytest.raises(ParameterError, match="NaN"):
            validate_manifest(bad)
