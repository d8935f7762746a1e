"""End-to-end matrix gate: smoke run vs the committed baseline.

This is the ISSUE's acceptance test, marked ``matrix``: running the
smoke experiment matrix must gate cleanly against
``tests/baselines/matrix_baseline.json``, a synthetic regression of a
deterministic metric must fail the gate with a typed verdict naming the
offending cell and metric, and no host-time value may move a verdict.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.expt import (
    gate_manifest,
    run_matrix,
    smoke_config,
    validate_manifest,
    write_results,
)
from repro.scenarios import METRIC_KEYS

pytestmark = pytest.mark.matrix

ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = ROOT / "tests" / "baselines" / "matrix_baseline.json"


@pytest.fixture(scope="module")
def baseline():
    manifest = json.loads(BASELINE_PATH.read_text())
    return validate_manifest(manifest)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    report = run_matrix(smoke_config(), workers=1)
    out = tmp_path_factory.mktemp("matrix") / "smoke"
    path = write_results(report, out)
    return validate_manifest(json.loads(Path(path).read_text()))


def test_committed_baseline_matches_current_config(baseline):
    assert baseline["config_hash"] == smoke_config().hash, (
        "the smoke matrix config changed but the committed baseline was "
        "not regenerated; run `repro expt run --smoke --regen-baseline`"
    )


def test_smoke_matrix_gates_clean_against_baseline(manifest, baseline):
    report = gate_manifest(manifest, baseline)
    assert report.passed, report.render()
    # every cell of the baseline was exercised.
    gated_cells = {v.cell for v in report.verdicts}
    assert set(baseline["cells"]) <= gated_cells


def test_golden_cells_present_and_breach_free(manifest):
    golden = {
        record["kind"]: record
        for record in manifest["cells"].values()
        if record["golden"]
    }
    # One acceptance cell each: server hot-strand and cluster failover.
    assert set(golden) == {"server-hot", "cluster-scale"}
    for record in golden.values():
        assert record["metrics"]["slo_breaches"] == 0
    cluster = golden["cluster-scale"]["metrics"]
    assert cluster["handoffs"] >= 1
    assert cluster["handoff_clean_ratio"] >= 0.9


def test_injected_miss_regression_fails_gate(manifest, baseline):
    regressed = copy.deepcopy(manifest)
    victim = sorted(regressed["cells"])[0]
    regressed["cells"][victim]["metrics"]["misses"] += 1
    report = gate_manifest(regressed, baseline)
    assert not report.passed
    [failure] = report.failures
    assert (failure.cell, failure.metric) == (victim, "misses")
    assert failure.kind == "exact"
    assert failure.observed == failure.baseline + 1
    assert "deterministic metric drifted" in failure.detail
    rendered = report.render()
    assert "FAIL" in rendered
    assert victim in rendered and "misses" in rendered


@pytest.mark.parametrize("factor", [0.0, 10.0])
def test_gate_reads_no_host_time(manifest, baseline, factor):
    # Wall-clock collapse or windfall: same verdicts, same check count.
    # Host time is `python -m bench compare`'s to judge, not this gate's.
    honest = gate_manifest(manifest, baseline)
    skewed = copy.deepcopy(manifest)
    skewed["wall_time_s"] *= factor
    for record in skewed["cells"].values():
        for key in record["perf"]:
            record["perf"][key] *= factor
    report = gate_manifest(skewed, baseline)
    assert report.passed, report.render()
    assert report.to_dict()["verdicts"] == honest.to_dict()["verdicts"]
    assert len(report.verdicts) == len(honest.verdicts) > 0
    assert {v.metric for v in report.verdicts} <= set(METRIC_KEYS)


def test_injected_slo_breach_in_golden_cell_fails_gate(
    manifest, baseline
):
    breached = copy.deepcopy(manifest)
    golden_id = next(
        cell_id for cell_id, record in breached["cells"].items()
        if record["golden"]
    )
    breached["cells"][golden_id]["metrics"]["slo_breaches"] = 1
    report = gate_manifest(breached, baseline)
    assert not report.passed
    failure = next(
        v for v in report.failures if v.metric == "slo_breaches"
    )
    assert failure.cell == golden_id
    assert failure.kind == "max" and failure.limit == 0.0
