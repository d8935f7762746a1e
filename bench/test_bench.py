"""Self-test of the benchmark: ``python -m pytest bench -q``.

Outside the tier-1 ``testpaths``: it checks the benchmark, not the
program.  Everything runs at ``--smoke`` sizes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench import ROOT, catalog, compare

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAULT_FREE = ("cluster_hot", "server_cold", "lifecycle_overload")


def bench(*args, cwd=ROOT):
    # No inherited PYTHONPATH: the benchmark finds src/ by itself, and
    # the bare-directory test must not find it at all.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "bench", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def smoke_all(directory, seed):
    started = time.perf_counter()
    done = bench(
        "run", "--smoke", "--seed", seed,
        "--out", directory / "result.json", "--out-dir", directory,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((directory / "result.json").read_text()), elapsed


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """The same seed twice, then another seed: (first, again, other)."""
    runs = []
    for label, seed in (("a", 11), ("b", 11), ("c", 12)):
        runs.append(smoke_all(tmp_path_factory.mktemp(label), seed))
    return runs


def test_manifest_repeats_the_catalog(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "-m", "bench", "run"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert manifest["workloads"] == [
        {"name": name, "why": why} for name, why in catalog.WORKLOADS.items()
    ]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.CONTRACT_E2E
    ]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in catalog.PER_LAYER
    ]


def test_names_units_and_limits(manifest):
    names = [entry["name"] for entry in manifest["workloads"]]
    names += [entry["name"] for entry in manifest["end_to_end"]]
    names += [entry["name"] for entry in manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in manifest["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["per_layer"]) <= 128
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_covers_every_workload_and_metric(smoke_runs):
    result, elapsed = smoke_runs[0]
    assert elapsed < 30
    assert list(result["workloads"]) == list(catalog.WORKLOADS)
    for name, report in result["workloads"].items():
        assert report["correct"], report["violations"]
        wanted = [m for m in catalog.END_TO_END if name in m.workloads]
        assert list(report["metrics"]) == [m.name for m in wanted]
        for metric in wanted:
            entry = report["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert entry["kind"] == metric.kind
            assert isinstance(entry["value"], (int, float))
        if name in FAULT_FREE:
            assert report["failed"] == 0
            assert report["metrics"]["failed_ops_share"]["value"] == 0


def test_same_seed_repeats_exactly_and_another_seed_does_not(smoke_runs):
    (first, _), (again, _), (other, _) = smoke_runs
    for name in catalog.WORKLOADS:
        a, b, c = (run["workloads"][name] for run in (first, again, other))
        assert a["sim_digest"] == b["sim_digest"]
        assert a["sim"] == b["sim"]
        for metric in catalog.END_TO_END:
            if metric.kind == catalog.EXACT and metric.name in a["metrics"]:
                assert (
                    a["metrics"][metric.name]["value"]
                    == b["metrics"][metric.name]["value"]
                )
        assert a["sim_digest"] != c["sim_digest"]


def test_compare_agrees_with_itself_and_catches_a_regression(smoke_runs):
    (first, _), (again, _), (other, _) = smoke_runs
    _lines, bad = compare.compare(first, first)
    assert not bad
    # Same seed, other run: simulated values equal; timing may wander
    # at smoke sizes, so only the exact rows are checked here.
    lines, _bad = compare.compare(first, again)
    assert not any(compare.DIFFERENT in line for line in lines)
    lines, bad = compare.compare(first, other)
    assert bad and any(
        "sim_digest" in line and compare.DIFFERENT in line for line in lines
    )
    slower = json.loads(json.dumps(first))
    entry = slower["workloads"]["server_cold"]["metrics"]["blocks_per_s"]
    entry["value"] /= 2
    entry["samples"] = [sample / 2 for sample in entry["samples"]]
    lines, bad = compare.compare(first, slower)
    assert bad
    assert any(
        "blocks_per_s" in line and compare.REGRESSED in line for line in lines
    )


def test_driver_line_has_exactly_the_contract(manifest, tmp_path):
    done = bench(
        "run", "--workload", "lifecycle_overload", "--seed", 3,
        "--seconds", 1, "--trace", 0, "--smoke", "--out-dir", tmp_path,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == [
        entry["name"] for entry in manifest["end_to_end"]
    ]
    for entry in manifest["end_to_end"]:
        got = line["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"] and got["value"] != 0


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_traced_pass_yields_spans_and_layer_metrics(manifest, tmp_path, name):
    done = bench(
        "run", "--workload", name, "--smoke", "--trace", 1,
        "--out", tmp_path / "report.json", "--out-dir", tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(line["metrics"]) == [
        entry["name"] for entry in manifest["per_layer"]
    ]
    assert all(
        isinstance(entry["value"], (int, float))
        for entry in line["metrics"].values()
    )
    assert line["metrics"]["trace.self_time_residual"]["value"] < 0.01
    assert line["metrics"]["trace.missing_targets"]["value"] == 0
    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert trace["spans"] and trace["spans_dropped"] == 0
    assert all(span is not None for span in trace["spans"])
    report = json.loads((tmp_path / "report.json").read_text())
    shares = sum(layer["share"] for layer in report["layers"].values())
    assert abs(shares - 1.0) < 0.01


def test_a_renamed_target_is_listed_not_fatal(monkeypatch, tmp_path):
    from bench import harness, stack

    gone = "repro.rope.server:MultimediaRopeServer.playback_plan"
    resolve = stack.resolve
    monkeypatch.setattr(
        stack, "resolve",
        lambda path: None if path == gone else resolve(path),
    )
    report = harness.trace_pass("server_cold", 5, True, tmp_path)
    assert report["correct"]
    assert report["missing_targets"] == ["MultimediaRopeServer.playback_plan"]
    assert report["metrics"]["rope.plan_calls"]["value"] is None
    assert report["metrics"]["rope.plan_s"]["value"] is None
    assert report["metrics"]["rounds.run_calls"]["value"] > 0
    line = json.loads(harness.contract_line(report))
    assert line["metrics"]["rope.plan_calls"]["value"] == 0
    assert line["metrics"]["trace.missing_targets"]["value"] == 1


def test_without_the_program_it_fails_before_any_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = bench(
        "run", "--workload", "server_cold", "--seed", 1, "--seconds", 1,
        "--trace", 0, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
