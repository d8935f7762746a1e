"""The scenario registry contract, for every registered scenario.

Whatever ``src/repro/scenarios/`` registers must, at ``smoke()`` size:
build from a plain spec dict, survive pickling, run byte-deterministically
(snapshot *and* metrics) per seed, report exactly ``METRIC_KEYS`` /
``PERF_KEYS``, expand as an experiment-matrix ``kind``, be accepted
by all four CLI views, and — profiled — report a cost profile that *is*
its drives' and caches' own statistics.  (The trace-export determinism
leg lives in ``tests/obs/test_trace_export_presets.py``, parametrised
the same way.)

``TestAddingAScenario`` is the "one file, one decorator, nothing else"
claim: a throwaway scenario registered from this module goes through
the same checks, ``run_cell``, a matrix config and every CLI view with
zero edits to ``cli.py``, ``expt/runner.py`` or ``expt/config.py``.
"""

import dataclasses
import json
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.expt import ExperimentConfig, ExperimentConfigError, run_matrix
from repro.expt.runner import run_cell
from repro.rope import Media, build_rope_server
from repro.scenarios import (
    METRIC_KEYS,
    PERF_KEYS,
    REGISTRY,
    Scenario,
    ScenarioRun,
    get,
    register,
)
from repro.scenarios.server import record_strands
from repro.service import PlaybackSession

NAMES = sorted(REGISTRY)

#: Scenarios whose *workload* draws nothing from the seed: it only
#: names the trace-id space, so snapshots agree across seeds (their
#: traces still differ — see the trace-export leg).
UNSEEDED_WORKLOADS = {"steady", "server-steady"}

VIEWS = ("run", "obs-report", "profile", "trace-export")


def _observed(scenario):
    return scenario.run(scenario.observability())


def _outcome(run):
    """Everything deterministic a run reports, minus its parameters."""
    record = run.to_dict()
    del record["params"]
    return run.snapshot(), json.dumps(record, sort_keys=True)


def check_builds_from_plain_data(cls):
    smoke = cls.smoke()
    spec = dataclasses.asdict(smoke)
    assert cls.from_spec(spec) == smoke
    assert cls.from_spec({}, smoke=True) == smoke
    # CLI text parses to the same typed values.
    text = {key: str(value) for key, value in spec.items()}
    assert cls.from_spec(text, text=True) == smoke
    assert "seed" in cls.field_types()
    with pytest.raises(ParameterError, match="valid parameters"):
        cls.from_spec({"no_such_parameter": 1})
    with pytest.raises(ParameterError, match="seed must be int"):
        cls.from_spec({"seed": "zero"})
    assert pickle.loads(pickle.dumps(smoke)) == smoke
    with pytest.raises(dataclasses.FrozenInstanceError):
        smoke.seed = 1


def check_runs_deterministically(cls, seeded):
    first, second = _observed(cls.smoke()), _observed(cls.smoke())
    assert isinstance(first, ScenarioRun)
    assert first.scenario == cls.smoke()
    assert first.snapshot() == second.snapshot()
    assert first.metrics() == second.metrics()
    assert _outcome(first) == _outcome(second)
    assert tuple(first.metrics()) == METRIC_KEYS
    assert set(PERF_KEYS) <= set(first.perf())
    assert first.perf()["wall_time_s"] == first.wall_s > 0
    assert first.healthy()
    json.loads(first.snapshot())
    other = _observed(cls.smoke(seed=cls.smoke().seed + 1))
    # (server-hot's seed only jitters arrivals inside the batching
    # window: its per-session result moves, its snapshot does not.)
    assert (_outcome(other) != _outcome(first)) == seeded
    # run() with no observer means the same default preset.
    assert cls.smoke().run().metrics() == first.metrics()


def check_is_a_matrix_kind(cls):
    config = ExperimentConfig.from_dict({
        "schema_version": 2,
        "name": "contract",
        "axes": {"seeds": [3]},
        "workloads": [{"kind": cls.name, "golden": True}],
    })
    [cell] = config.expand()
    point = cls.from_matrix(**{
        field: getattr(config, axis)[0]
        for axis, field in cls.axes.items()
    })
    assert point.seed == 3
    assert cell.kind == cls.name
    assert cell.cell_id == point.cell_id()
    assert cell.spec_dict() == point.spec()
    assert set(cell.spec_dict()) == (
        set(cls.matrix) | set(cls.axes.values())
    )
    assert cls(**cell.spec_dict()) == point
    with pytest.raises(ExperimentConfigError, match="unknown param"):
        ExperimentConfig.from_dict({
            "schema_version": 2,
            "name": "contract",
            "workloads": [{"kind": cls.name, "no_such_parameter": 1}],
        })


def _mechanisms(stack):
    """``(node id or None, drive, its cache front end or None)`` for each
    mechanism under a run's *stack*: a cluster, a media server, a rope
    server or the bare drive."""
    if hasattr(stack, "nodes"):  # MediaCluster
        return [
            (node.node_id, *_mechanisms(node.server)[0][1:])
            for node in stack.nodes
        ]
    if hasattr(stack, "mrs"):  # MediaServer
        cached = stack._drive if stack.cache is not None else None
        return [(None, stack.mrs.msm.drive, cached)]
    if hasattr(stack, "msm"):  # MultimediaRopeServer
        return [(None, stack.msm.drive, None)]
    return [(None, stack, None)]  # scale's bare drive


def check_profile_is_a_view_of_the_stats(obs, stack):
    """Conservation: ``per_drive`` *equals* each drive's ``DriveStats``
    and ``CacheStats`` (every stack here attaches its drives at birth, so
    the deltas are the counters), ``per_node`` is the sum of the node's
    drives plus the fault delay written for it, shares sum to 1."""
    profile = obs.snapshot_dict()["profile"]
    per_drive, per_node = {}, {}
    for node_id, drive, cached in _mechanisms(stack):
        stats, rows = drive.stats, {}
        if drive.charged_accesses:
            assert drive.charged_accesses >= stats.operations > 0
            rows["seek"] = {
                "ops": drive.charged_accesses,
                "cost_s": stats.seek_time + stats.rotation_time,
            }
            rows["transfer"] = {
                "ops": drive.charged_accesses, "cost_s": stats.transfer_time,
            }
        if cached is not None and cached.cache.stats.accesses:
            rows["cache_lookup"] = {
                "ops": cached.cache.stats.accesses,
                "cost_s": cached.cache.stats.hits * cached.hit_time,
            }
        if rows:
            per_drive[drive.profile_label] = rows
            if node_id is not None:
                per_node[node_id] = rows
    assert per_drive
    assert profile["per_drive"] == per_drive
    assert {
        node_id: {
            phase: row for phase, row in rows.items()
            if phase != "fault_recovery"
        }
        for node_id, rows in profile["per_node"].items()
    } == per_node
    for phase, total in profile["phases"].items():
        rows = [
            table[phase] for table in profile["per_drive"].values()
            if phase in table
        ]
        if phase != "fault_recovery":
            assert total["ops"] == sum(row["ops"] for row in rows)
            assert total["cost_s"] == pytest.approx(
                sum(row["cost_s"] for row in rows), rel=1e-9
            )
    shares = sum(row["share"] for row in profile["phases"].values())
    assert abs(shares - 1.0) <= 1e-9
    assert profile["phases"]["seek"]["cost_s"] + (
        profile["phases"]["transfer"]["cost_s"]
    ) == pytest.approx(obs.profiler.drive_busy_time(), rel=1e-9)


def check_every_cli_view_accepts_it(name, capsys):
    for view in VIEWS:
        argv = [view, "--scenario", name, "--smoke", "--seed", "5"]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.strip(), argv
        assert main(argv + ["--json"]) == 0, argv
        first = capsys.readouterr().out
        assert main(argv + ["--json"]) == 0, argv
        assert capsys.readouterr().out == first, argv
        json.loads(first)
    # --set reaches the dataclass; --seed is shorthand for --set seed=.
    assert main(["run", "--scenario", name, "--smoke", "--json",
                 "--set", "seed=11"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["seed"] == 11


@pytest.mark.parametrize("name", NAMES)
class TestRegisteredScenario:
    def test_builds_from_plain_data(self, name):
        check_builds_from_plain_data(get(name))

    def test_runs_deterministically(self, name):
        check_runs_deterministically(
            get(name), seeded=name not in UNSEEDED_WORKLOADS
        )

    def test_is_a_matrix_kind(self, name):
        check_is_a_matrix_kind(get(name))

    def test_every_cli_view_accepts_it(self, name, capsys):
        check_every_cli_view_accepts_it(name, capsys)

    def test_profile_is_a_view_of_the_stats(self, name):
        scenario = get(name).smoke()
        obs = scenario.observability(profile=True)
        check_profile_is_a_view_of_the_stats(obs, scenario.run(obs).stack)

    def test_profile_view_attributes_the_whole_run(self, name, capsys):
        assert main([
            "profile", "--scenario", name, "--smoke", "--json",
        ]) == 0
        section = json.loads(capsys.readouterr().out)
        shares = sum(p["share"] for p in section["phases"].values())
        assert abs(shares - 1.0) <= 1e-9
        assert section["total_ops"] > 0

    def test_obs_report_view_carries_the_profile(self, name, capsys):
        assert main([
            "obs-report", "--scenario", name, "--smoke", "--json",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert {"metrics", "spans", "slo", "profile"} <= set(snapshot)
        assert main(["obs-report", "--scenario", name, "--smoke"]) == 0
        assert "== profile ==" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["cluster-stranded", "cluster-node-reject"])
def test_profile_is_a_view_of_the_stats_on_the_cluster_request_fixtures(
    name,
):
    from tests.obs.test_export_digests import run_request_fixture

    obs, cluster, _outcome = run_request_fixture(name, profile=True)
    check_profile_is_a_view_of_the_stats(obs, cluster)


def test_registry_holds_the_seven_canonical_scenarios():
    assert NAMES == [
        "cluster-scale", "fault", "scale", "server-fault", "server-hot",
        "server-steady", "steady",
    ]
    for name in NAMES:
        assert get(name).name == name
        assert issubclass(get(name), Scenario)
    with pytest.raises(ParameterError, match="unknown scenario"):
        get("warp-drive")
    with pytest.raises(ParameterError, match="already registered"):
        register(get("steady"))


def test_smoke_is_a_sizing_not_a_second_scenario():
    cluster = get("cluster-scale")
    assert cluster().kill_node is None
    assert cluster.smoke().kill_node == 1
    assert cluster.smoke(nodes=5).nodes == 5
    # The matrix default is the four-node failover acceptance run.
    assert cluster.from_matrix().spec() == {**cluster.matrix, "seed": (
        cluster().seed
    )}


@dataclass(frozen=True)
class Throwaway(Scenario):
    """One viewer plays *clips* short clips (odd seeds: longer ones)."""

    name = "throwaway"
    smoke_sizing = {"clips": 1}
    matrix = {"clips": 2}

    clips: int = 2

    def cell_id(self):
        return f"throwaway-c{self.clips}-seed{self.seed}"

    def run(self, obs=None):
        started = time.perf_counter()
        obs = obs if obs is not None else self.observability()
        mrs = build_rope_server(obs=obs)
        ropes = record_strands(
            mrs, self.clips, 1.0 + self.seed % 2, ["viewer"], "throwaway"
        )
        plays = [mrs.play("viewer", r, media=Media.VIDEO) for r in ropes]
        result = PlaybackSession(mrs).run(plays)
        return ScenarioRun(
            self, obs, result, time.perf_counter() - started, stack=mrs
        )


class TestAddingAScenario:
    @pytest.fixture(autouse=True)
    def registered(self):
        register(Throwaway)
        yield
        del REGISTRY[Throwaway.name]

    def test_it_meets_the_registry_contract(self, capsys):
        check_builds_from_plain_data(Throwaway)
        check_runs_deterministically(Throwaway, seeded=True)
        check_is_a_matrix_kind(Throwaway)
        check_every_cli_view_accepts_it("throwaway", capsys)
        obs = Throwaway.smoke().observability(profile=True)
        check_profile_is_a_view_of_the_stats(
            obs, Throwaway.smoke().run(obs).stack
        )

    def test_run_cell_and_run_matrix_need_no_edits(self):
        config = ExperimentConfig.from_dict({
            "schema_version": 2,
            "name": "throwaway",
            "axes": {"seeds": [0, 1]},
            "workloads": [{"kind": "throwaway", "clips": 1}],
        })
        cells = config.expand()
        assert [c.cell_id for c in cells] == [
            "throwaway-c1-seed0", "throwaway-c1-seed1",
        ]
        result = run_cell(cells[0])
        assert result.kind == "throwaway"
        assert result.spec == {"clips": 1, "seed": 0}
        assert result.metrics["misses"] == 0
        assert result.metrics["blocks_delivered"] > 0
        report = run_matrix(config, workers=1)
        assert report.cells[0].metrics == result.metrics

    def test_it_is_gone_again_afterwards(self):
        # (autouse fixture teardown is what this guards, one test late)
        assert "throwaway" in REGISTRY
        assert "throwaway" not in NAMES
