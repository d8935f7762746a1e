"""The trace-export leg of the scenario registry contract.

Every registered scenario that runs observed (:mod:`repro.scenarios`;
the rest of the contract is ``tests/test_scenario_contract.py``), at
``--smoke`` size, must export a Perfetto-loadable Chrome trace that is
byte-identical across two same-seed runs and differs once the seed
changes — the determinism contract the golden-trace workflow and
docs/OBSERVABILITY rely on.  A scenario added under
``src/repro/scenarios/`` is picked up here with no edit.
"""

import json

import pytest

from repro.cli import main
from repro.scenarios import REGISTRY

pytestmark = pytest.mark.trace

#: ``scale`` is the bare loop with observability off (an empty trace);
#: the same loop traced is pinned by ``tests/obs/test_export_digests.py``.
PRESETS = sorted(set(REGISTRY) - {"scale"})


def _export(tmp_path, scenario, seed, tag, *extra):
    target = tmp_path / f"{scenario}-{tag}.json"
    code = main([
        "trace-export", "--scenario", scenario, "--smoke",
        "--seed", str(seed), "--out", str(target), *extra,
    ])
    assert code == 0
    return target


@pytest.mark.parametrize("scenario", PRESETS)
class TestPreset:
    def test_export_is_perfetto_loadable(self, scenario, tmp_path):
        target = _export(tmp_path, scenario, seed=0, tag="load")
        document = json.loads(target.read_text())
        # The keys Perfetto/chrome://tracing require to render.
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events, f"{scenario} exported an empty trace"
        for event in events:
            assert {"ph", "pid", "tid", "name"} <= set(event)
        # Complete events carry timestamps and durations.
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, f"{scenario} exported no span events"
        assert all("ts" in e and "dur" in e for e in spans)

    def test_same_seed_exports_identical_bytes(self, scenario, tmp_path):
        first = _export(tmp_path, scenario, seed=7, tag="a")
        second = _export(tmp_path, scenario, seed=7, tag="b")
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_changes_the_trace(self, scenario, tmp_path):
        base = _export(tmp_path, scenario, seed=0, tag="s0")
        other = _export(tmp_path, scenario, seed=1, tag="s1")
        assert base.read_bytes() != other.read_bytes()

    def test_profile_flag_adds_counter_tracks(self, scenario, tmp_path):
        def phases(*extra):
            target = _export(tmp_path, scenario, 0, "p" + "".join(extra), *extra)
            events = json.loads(target.read_text())["traceEvents"]
            return {event["ph"] for event in events}

        assert phases() == {"M", "X"}
        assert phases("--profile") == {"M", "X", "C"}


def test_presets_are_distinct_workloads(tmp_path):
    # No two scenarios may collapse into the same trace.
    payloads = {
        scenario: _export(tmp_path, scenario, 0, "x").read_bytes()
        for scenario in PRESETS
    }
    assert len(set(payloads.values())) == len(PRESETS)
