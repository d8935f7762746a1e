"""Unit tests for the command-line interface."""

import json

import pytest

from repro.analysis import EXPERIMENTS
from repro.cli import build_parser, main


class TestProfiles:
    def test_lists_all_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "testbed-1991" in out
        assert "hdtv-2.5gbit" in out
        assert "fast-array-1995" in out
        assert "Mbit" in out


class TestPolicy:
    def test_default_profile(self, capsys):
        assert main(["policy"]) == 0
        out = capsys.readouterr().out
        assert "video: granularity" in out
        assert "pipelined l_ds bound" in out

    def test_unknown_profile_raises(self, capsys):
        """Both commands build the testbed stack, so neither takes a
        ``--profile`` it could only half honour."""
        for command in ("policy", "demo"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--profile", "testbed-1991"])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --profile" in captured.err


class TestExperiments:
    IDS = [row.id for row in EXPERIMENTS]

    def test_registry_covers_all_experiments(self):
        assert self.IDS == [
            *(f"e{n}" for n in range(1, 23)), "a1", "a2", "a3",
        ]

    def test_single_experiment(self, capsys):
        assert main(["experiments", "e7"]) == 0
        out = capsys.readouterr().out
        assert "HDTV" in out
        assert "e7 · §3 HDTV worked example · shape ✓: " in out

    def test_multiple_experiments(self, capsys):
        assert main(["experiments", "e2", "e5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "read-ahead" in out
        assert out.count("shape ✓") == 2

    def test_ids_are_case_insensitive(self, capsys):
        assert main(["experiments", "E3"]) == 0
        assert "e3 · " in capsys.readouterr().out

    def test_unknown_id_fails_cleanly(self, capsys):
        assert main(["experiments", "e2", "e99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown experiment id(s): e99; known: "
            f"{', '.join(self.IDS)}\n"
        )


class TestDemo:
    def test_demo_runs_continuously(self, capsys):
        assert main(["demo", "--seconds", "4"]) == 0
        out = capsys.readouterr().out
        assert "recorded rope" in out
        assert "misses 0" in out


def _run_json(capsys, scenario, *extra, code=0):
    """`repro run --scenario S ... --json` parsed."""
    assert main(["run", "--scenario", scenario, *extra, "--json"]) == code
    return json.loads(capsys.readouterr().out)


def _sets(**overrides):
    return [
        arg for key, value in overrides.items()
        for arg in ("--set", f"{key}={value}")
    ]


class TestServe:
    def test_serve_small_scenario(self, capsys):
        assert main([
            "run", "--scenario", "server-hot",
            *_sets(sessions=6, strands=2, seconds=1),
        ]) == 0
        out = capsys.readouterr().out
        assert "6 admitted" in out
        assert "2 batches" in out

    def test_serve_json_is_the_serve_result_shape(self, capsys):
        payload = _run_json(
            capsys, "server-hot", *_sets(sessions=4, strands=2, seconds=1)
        )
        assert payload["scenario"] == "server-hot"
        assert payload["params"]["sessions"] == 4
        assert payload["healthy"] is True
        result = payload["result"]
        assert result["admitted"] == 4
        assert result["continuous_sessions"] == 4
        assert result["cache_stats"]["hits"] > 0
        assert len(result["sessions"]) == 4

    def test_serve_compare_batched_beats_per_request(self, capsys):
        sizing = _sets(sessions=8, strands=2, seconds=1)
        batched = _run_json(capsys, "server-hot", *sizing)
        per_request = _run_json(
            capsys, "server-hot", *sizing,
            *_sets(cache_blocks=0, batching="false"),
        )
        assert per_request["params"]["batching"] is False
        assert batched["result"]["continuous_sessions"] > (
            per_request["result"]["continuous_sessions"]
        )

    def test_serve_smoke_emits_snapshot(self, capsys):
        assert main([
            "obs-report", "--scenario", "server-hot", "--smoke", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload
        assert payload["metrics"]["counters"]["server.batches"] > 0

    def test_serve_no_cache_disables_batching(self, capsys):
        # the admitted subset still plays without misses: exit code 0
        payload = _run_json(
            capsys, "server-hot",
            *_sets(sessions=4, strands=2, seconds=1, cache_blocks=0),
        )["result"]
        assert payload["cache_stats"] == {}
        assert payload["batches"] == 4
        # Without the cache there is no batching: per-request admission
        # fills the controller and overload rejects the tail.
        assert payload["admitted"] < 4
        assert payload["sessions"][-1]["state"] == "rejected"


class TestCluster:
    def test_cluster_smoke_emits_snapshot(self, capsys):
        assert main([
            "obs-report", "--scenario", "cluster-scale", "--smoke",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["metrics"]["counters"]
        assert counters["cluster.handoffs_total"] >= 1
        assert counters["cluster.handoffs_total"] == (
            counters["cluster.handoffs_clean"]
        )

    def test_cluster_json_reports_bounds_and_placement(self, capsys):
        payload = _run_json(
            capsys, "cluster-scale",
            *_sets(nodes=3, sessions=8, titles=4, per_node_streams=8,
                   seconds=1),
        )
        assert payload["result"]["admitted"] == 8
        assert payload["result"]["continuous_sessions"] == 8
        assert payload["metrics"]["handoffs"] == 0
        assert payload["bounds"]["full_catalog"] == 24
        assert set(payload["result"]["placement"]) == {
            "T01", "T02", "T03", "T04",
        }

    def test_cluster_failover_hands_off_cleanly(self, capsys):
        payload = _run_json(
            capsys, "cluster-scale",
            *_sets(nodes=4, sessions=32, titles=8, seconds=2,
                   per_node_streams=24, chunks=4, kill_node=1),
        )
        metrics = payload["metrics"]
        assert metrics["handoffs"] >= 1
        assert metrics["handoff_clean_ratio"] > 0.9
        assert metrics["continuity_ratio"] == 1.0

    def test_smoke_run_rejects_nothing_and_hands_off_all_clean(self, capsys):
        # The CI smoke gate is stricter than healthy()'s >0.9 bar.
        result = _run_json(capsys, "cluster-scale", "--smoke")["result"]
        assert result["admitted"] == result["continuous_sessions"] == 12
        assert result["rejects"] == []
        assert result["handoffs"]
        assert all(record["clean"] for record in result["handoffs"])

    def test_summary_reports_handoffs_and_bounds(self, capsys):
        assert main(["run", "--scenario", "cluster-scale", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "12 admitted, 12 continuous" in out
        assert "clean (ratio 1.00)" in out
        assert "bounds: full-catalog 24 streams" in out


class TestParameterErrors:
    """Every bad scenario parameter ends in one `error:` line, exit 2."""

    @staticmethod
    def _error(capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize(
        "view", ["run", "obs-report", "profile", "trace-export"]
    )
    def test_unknown_set_key_names_the_valid_fields(self, capsys, view):
        line = self._error(capsys, [
            view, "--scenario", "steady", "--set", "nodes=9",
        ])
        assert "unknown parameter 'nodes'" in line
        assert "seconds, requests, k" in line

    def test_wrong_type_names_the_expected_type(self, capsys):
        line = self._error(capsys, [
            "run", "--scenario", "cluster-scale", "--smoke",
            "--set", "nodes=many",
        ])
        assert "nodes must be int" in line and "'many'" in line
        assert "per_node_streams" in line

    def test_float_for_an_int_field_is_rejected(self, capsys):
        line = self._error(capsys, [
            "run", "--scenario", "steady", "--set", "requests=2.5",
        ])
        assert "requests must be int" in line

    def test_malformed_set_is_rejected(self, capsys):
        line = self._error(capsys, [
            "run", "--scenario", "steady", "--set", "seconds",
        ])
        assert "KEY=VALUE" in line

    def test_out_of_domain_value_is_a_typed_error(self, capsys):
        line = self._error(capsys, [
            "run", "--scenario", "scale", "--smoke",
            "--set", "drive=floppy",
        ])
        assert "unknown drive config" in line

    def test_more_replicas_than_nodes_is_a_typed_error(self, capsys):
        # Used to end in a ValueError traceback (bench Finding 12).
        line = self._error(capsys, [
            "run", "--scenario", "cluster-scale", "--smoke",
            "--set", "nodes=1",
        ])
        assert "min_replicas 2 exceeds the node count 1" in line

    def test_profile_timers_without_json_is_not_silently_ignored(
        self, capsys
    ):
        line = self._error(capsys, [
            "obs-report", "--scenario", "steady", "--smoke",
            "--profile-timers",
        ])
        assert "--json" in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace-export", "--scenario", "scale", "--smoke", "--profile",
             "--out"],
            ["trace-export", "--scenario", "steady", "--smoke", "--out"],
        ],
        ids=["profile", "trace-export"],
    )
    def test_unwritable_output_path_is_refused_before_the_run(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # Used to run the scenario, then die with a bare FileNotFoundError.
        from repro.scenarios import get

        monkeypatch.setattr(
            get(argv[2]), "run",
            lambda *a, **k: pytest.fail("the scenario ran first"),
        )
        target = tmp_path / "no" / "such" / "directory" / "x.json"
        line = self._error(capsys, argv + [str(target)])
        assert str(target) in line

    def test_smoke_sizing_honours_set_overrides(self, capsys):
        # `repro cluster --smoke --nodes 9` used to drop the 9 silently.
        payload = _run_json(
            capsys, "cluster-scale", "--smoke", "--set", "nodes=4"
        )
        assert payload["params"]["nodes"] == 4
        assert payload["params"]["sessions"] == 12
        assert len(payload["result"]["nodes"]) == 4

    @pytest.mark.parametrize("argv", [
        ["serve", "--smoke"],
        ["cluster", "--failover"],
        ["obs-report", "--scenario", "steady", "--faults"],
        ["obs-report", "--scenario", "steady", "--cluster"],
        ["obs-report", "--scenario", "fault", "--head-failure-at-op", "3"],
        ["profile", "--preset", "scale"],
        ["run", "--scenario", "cluster-scale", "--nodes", "9"],
        ["run", "--scenario", "server-hot", "--no-cache"],
        ["run", "--scenario", "warp-drive"],
        ["run"],
    ])
    def test_removed_spellings_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_optional_field_parses_none_and_int(self, capsys):
        payload = _run_json(
            capsys, "cluster-scale", "--smoke", "--set", "kill_node=none"
        )
        assert payload["params"]["kill_node"] is None
        assert payload["metrics"]["handoffs"] == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @staticmethod
    def _subcommand_options(name):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        sub = subparsers.choices[name]
        return {
            option
            for action in sub._actions
            for option in action.option_strings
        }

    def test_scenario_commands_share_seed_and_json_options(self):
        for name in (
            "demo", "obs-report", "run", "trace-export", "profile",
        ):
            options = self._subcommand_options(name)
            assert "--seed" in options, name
            assert "--json" in options, name

    VIEWS = ("run", "obs-report", "profile", "trace-export")

    def test_profile_flags_present(self):
        options = self._subcommand_options("profile")
        assert "--top" in options
        # One shared trio replaced the preset and sizing flags.
        for name in self.VIEWS:
            options = self._subcommand_options(name)
            assert {"--scenario", "--set", "--smoke"} <= options, name
            assert not options & {
                "--preset", "--streams", "--blocks", "--faults",
                "--cluster", "--failover", "--no-cache", "--no-batch",
                "--head-failure-at-op", "--nodes", "--sessions",
            }, name

    def test_obs_report_gained_cluster_and_top(self):
        # The cluster report is a --scenario choice now, not a flag.
        parser = build_parser()
        args = parser.parse_args([
            "obs-report", "--scenario", "cluster-scale", "--top", "3",
        ])
        assert (args.scenario, args.top) == ("cluster-scale", 3)

    def test_cluster_failover_flags_present(self):
        # Every former `repro cluster` sizing/failover flag is a typed
        # --set key of the one cluster scenario.
        from repro.scenarios import get

        fields = get("cluster-scale").field_types()
        for key in (
            "nodes", "sessions", "titles", "per_node_streams",
            "min_replicas", "chunks", "kill_node", "kill_chunk",
        ):
            assert key in fields, key
        assert type(None) in fields["kill_node"]

    def test_scenario_choices_come_from_the_registry(self):
        from repro.scenarios import REGISTRY

        parser = build_parser()
        for view in self.VIEWS:
            for name in REGISTRY:
                args = parser.parse_args([view, "--scenario", name])
                assert args.scenario == name


class TestTraceExport:
    def test_json_output_is_a_chrome_trace(self, capsys):
        assert main([
            "trace-export", "--scenario", "steady", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["clock"] == "simulated"
        phases = {event["ph"] for event in document["traceEvents"]}
        assert phases == {"M", "X"}

    def test_export_is_deterministic(self, capsys):
        payloads = []
        for _ in range(2):
            assert main([
                "trace-export", "--scenario", "steady", "--json",
            ]) == 0
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]

    def test_out_writes_perfetto_loadable_file(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main([
            "trace-export", "--scenario", "steady",
            "--out", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote {target}" in out
        document = json.loads(target.read_text())
        assert document["traceEvents"]

    def test_summary_mentions_viewer_without_out(self, capsys):
        assert main(["trace-export", "--scenario", "steady"]) == 0
        assert "perfetto" in capsys.readouterr().out


class TestProfile:
    def test_smoke_exits_zero_with_one_line(self, capsys):
        assert main(["profile", "--scenario", "scale", "--smoke"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out.splitlines()) == 1
        assert "hottest" in out

    def test_json_is_byte_deterministic(self, capsys):
        payloads = []
        for _ in range(2):
            assert main([
                "profile", "--scenario", "scale", "--smoke", "--json",
            ]) == 0
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]
        section = json.loads(payloads[0])
        shares = sum(
            stat["share"] for stat in section["phases"].values()
        )
        assert abs(shares - 1.0) <= 1e-9

    def test_steady_preset_prints_cost_centers(self, capsys):
        assert main([
            "profile", "--scenario", "steady", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost centers" in out
        assert "transfer" in out

    def test_trace_out_writes_counter_tracks(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        assert main([
            "trace-export", "--scenario", "scale", "--smoke", "--profile",
            "--out", str(target),
        ]) == 0
        document = json.loads(target.read_text())
        counter_events = [
            event for event in document["traceEvents"]
            if event["ph"] == "C"
        ]
        assert counter_events
        assert all(
            event["name"].startswith("profile.")
            for event in counter_events
        )

    def test_obs_report_cluster_preset(self, capsys):
        assert main([
            "obs-report", "--scenario", "cluster-scale", "--smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster.handoffs_total" in out
        # The federated report carries the per-node profile rollup.
        assert "== profile ==" in out
        assert "node node-00" in out


class TestExtensionExperimentsViaCli:
    def test_extension_experiment_runs(self, capsys):
        assert main(["experiments", "e13"]) == 0
        out = capsys.readouterr().out
        assert "variable-rate" in out

    def test_ablations_are_rows_printed_after_e22(self, capsys):
        assert main(["experiments", "a2"]) == 0
        assert "copy budget" in capsys.readouterr().out
        assert TestExperiments.IDS[-4:] == ["e22", "a1", "a2", "a3"]
