"""CI/tooling regressions: benchmark smoke mode, markers, lint config.

The benchmark smoke job is the "benches can't silently rot" guard: it
executes every ``benchmarks/bench_*.py`` end to end with tiny workloads
in a subprocess, exactly as CI would.  The other tests pin the pytest
marker registry, the ruff configuration, ``scripts/check.sh``, that the
docs name only commands the CLI has, and — one table,
``TestRetiredNames`` — that what the simplicity PRs deleted stays
deleted.
"""

import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

def _run_pytest(args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "pytest", *args, "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def _lines_naming(pattern, entries, suffixes, skip=()):
    """``path:line: text`` of every line matching *pattern* in the files
    with one of *suffixes* under *entries* (relative paths in *skip*
    excepted)."""
    hits = []
    for entry in entries:
        root = ROOT / entry
        for path in [root] if root.is_file() else sorted(root.rglob("*")):
            relative = str(path.relative_to(ROOT))
            if (
                path.suffix not in suffixes
                or not path.is_file() or relative in skip
            ):
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    hits.append(f"{relative}:{number}: {line.strip()}")
    return hits


class TestBenchmarkSmoke:
    def test_smoke_mode_runs_every_bench(self):
        result = _run_pytest(
            ["benchmarks", "--smoke", "--benchmark-disable"]
        )
        output = result.stdout + result.stderr
        assert result.returncode == 0, output
        assert "passed" in output
        # Every benchmark module was collected (none silently skipped).
        collected = _run_pytest(
            ["benchmarks", "--smoke", "--collect-only", "-q",
             "--benchmark-disable"]
        )
        bench_files = sorted(
            path.name for path in (ROOT / "benchmarks").glob("bench_*.py")
        )
        for name in bench_files:
            assert name in collected.stdout, (
                f"{name} not collected by the smoke job"
            )

    def test_smoke_run_emits_observability_snapshot(self):
        result = _run_pytest(
            ["benchmarks/bench_micro_ops.py", "--smoke",
             "--benchmark-disable"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "observability snapshot" in result.stdout
        assert '"metrics"' in result.stdout


class TestMarkers:
    def test_golden_marker_selects_golden_tests(self):
        result = _run_pytest(
            ["tests/obs", "-m", "golden", "--collect-only", "-q"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "test_golden_traces" in result.stdout

    def test_markers_are_registered(self):
        config = tomllib.loads((ROOT / "pyproject.toml").read_text())
        markers = config["tool"]["pytest"]["ini_options"]["markers"]
        for name in (
            "chaos", "cluster", "fuzz", "golden", "perf", "profile",
            "server", "trace",
        ):
            assert any(m.startswith(f"{name}:") for m in markers), name

    def test_every_used_marker_is_declared(self):
        # The drift guard: applying an unregistered mark anywhere in
        # the tree would otherwise only surface as a warning.
        builtin = {
            "parametrize", "skip", "skipif", "xfail", "usefixtures",
            "filterwarnings",
        }
        config = tomllib.loads((ROOT / "pyproject.toml").read_text())
        declared = {
            m.split(":", 1)[0]
            for m in config["tool"]["pytest"]["ini_options"]["markers"]
        }
        pattern = re.compile(r"pytest\.mark\.([A-Za-z_]\w*)")
        used = {}
        for directory in ("tests", "benchmarks"):
            for path in (ROOT / directory).rglob("*.py"):
                for name in pattern.findall(path.read_text()):
                    used.setdefault(name, path.relative_to(ROOT))
        undeclared = {
            name: str(path)
            for name, path in sorted(used.items())
            if name not in builtin and name not in declared
        }
        assert not undeclared, (
            f"markers used but not declared in pyproject: {undeclared}"
        )

    def test_server_marker_selects_server_tests(self):
        result = _run_pytest(
            ["tests/server", "-m", "server", "--collect-only", "-q"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "test_media_server" in result.stdout
        assert "test_batch_admission" in result.stdout
        assert "test_cache_equivalence" in result.stdout

    def test_trace_marker_selects_tracing_tests(self):
        result = _run_pytest(
            ["tests", "-m", "trace", "--collect-only", "-q"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "test_tracing" in result.stdout
        assert "test_slo" in result.stdout
        assert "test_trace_integration" in result.stdout

    def test_cluster_marker_selects_cluster_tests(self):
        result = _run_pytest(
            ["tests/cluster", "-m", "cluster", "--collect-only", "-q"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "test_router" in result.stdout
        assert "test_failover" in result.stdout
        assert "test_bounds" in result.stdout

    def test_perf_marker_selects_perf_tests(self):
        result = _run_pytest(
            ["tests/perf", "-m", "perf", "--collect-only", "-q"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "test_operation_counts" in result.stdout
        assert "test_equivalence" in result.stdout

    def test_profile_marker_selects_profiler_tests(self):
        result = _run_pytest(
            ["tests/obs", "-m", "profile", "--collect-only", "-q"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "test_profiling" in result.stdout


class TestServeSmoke:
    def test_serve_smoke_emits_valid_obs_snapshot(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "obs-report", "--scenario",
             "server-hot", "--smoke", "--json"],
            cwd=ROOT, capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        snapshot = json.loads(result.stdout)
        counters = snapshot["metrics"]["counters"]
        assert counters["server.batches"] > 0
        assert counters["server.sessions_opened"] > 0
        assert counters["cache.hits"] > 0
        assert snapshot["audit"], "no admission audit entries"


class TestPublicSurface:
    #: The documented top-level surface (docs/API.md): message types,
    #: the two deployment front ends, and the library submodules.
    DOCUMENTED_ALL = [
        "ClusterServeResult",
        "HandoffRecord",
        "Media",
        "MediaCluster",
        "MediaServer",
        "NodeServeResult",
        "NodeStatus",
        "OpenSessionRequest",
        "OpenSessionResponse",
        "PauseRequest",
        "PlayRequest",
        "RejectReason",
        "ResumeRequest",
        "ServeResult",
        "SessionState",
        "SessionStatus",
        "StopRequest",
        "analysis",
        "api",
        "cluster",
        "config",
        "core",
        "disk",
        "errors",
        "faults",
        "fs",
        "media",
        "obs",
        "rope",
        "server",
        "service",
        "sim",
        "units",
        "__version__",
    ]

    def test_facade_all_matches_documented_surface_exactly(self):
        import repro

        assert list(repro.__all__) == self.DOCUMENTED_ALL

    def test_every_all_entry_resolves(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_no_deprecation_shim_remains(self):
        import repro

        assert not hasattr(repro, "__getattr__"), (
            "the PEP 562 alias shim was removed in 2.0; nothing should "
            "reintroduce module-level __getattr__"
        )

    #: Every parameter of the service stack's constructors and builders
    #: (``self`` aside): a new option is a visible diff here, and none is
    #: added unless a ROADMAP item says so (59 -> 41 when the options no
    #: caller set became the values they always had).
    SIGNATURES = {
        ("repro.fs", "MultimediaStorageManager"):
            "drive video audio video_device audio_device general_admission obs",
        ("repro.service", "PlaybackSession"): "server recovery obs",
        ("repro.server", "MediaServer"):
            "mrs batch_window cache_blocks requeue_limit recovery obs",
        ("repro.service", "RoundRobinService"):
            "drive k_schedule recovery on_head_failure obs order after_turns",
        ("repro.obs", "Observability"): "enabled seed",
        ("repro.service", "play_single"):
            "fetches drive read_ahead buffer_capacity recovery",
        ("repro.disk", "DriveArray.parameters"): "",
        ("repro.cluster", "build_cluster"):
            "nodes titles seconds per_node_streams min_replicas clients obs "
            "warm fault_plan",
        ("repro.cluster.node", "build_node"): "node_id capacity obs",
    }

    def test_service_stack_signatures_are_pinned(self):
        import importlib
        import inspect

        for (module, qualname), expected in self.SIGNATURES.items():
            target = importlib.import_module(module)
            for name in qualname.split("."):
                target = getattr(target, name)
            names = [
                name for name in inspect.signature(target).parameters
                if name != "self"
            ]
            assert names == expected.split(), (qualname, names)


class TestLintConfig:
    def test_ruff_config_present_and_scoped(self):
        config = tomllib.loads((ROOT / "pyproject.toml").read_text())
        ruff = config["tool"]["ruff"]
        assert ruff["target-version"] == "py39"
        select = ruff["lint"]["select"]
        assert "F" in select  # pyflakes family is the baseline

    def test_facade_reexports_are_lint_exempt(self):
        config = tomllib.loads((ROOT / "pyproject.toml").read_text())
        ignores = config["tool"]["ruff"]["lint"]["per-file-ignores"]
        assert "F401" in ignores["src/repro/__init__.py"]


class TestVersion:
    def test_version_is_single_sourced_from_the_package(self):
        import repro

        config = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert "version" not in config["project"]
        assert config["project"]["dynamic"] == ["version"]
        dynamic = config["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


class TestNoTrackedScratchArtifacts:
    def test_gitignore_covers_results(self):
        ignored = (ROOT / ".gitignore").read_text().splitlines()
        assert "bench/out/" in ignored


class TestOneWallClockAuthority:
    """`python -m bench run|compare` judges host time.  The surface that
    existed for another answer is gone and may not drift back in, code or
    prose."""

    #: What the retired surface was called, wherever it was mentioned.
    RETIRED = re.compile(
        r"perf-sweep|perf_sweep|BENCH_PERF|bench_perf_scale|repro\.perf"
        r"|relative_drop|obs-overhead|obs_overhead"
    )
    #: Tests that name a retired thing in order to refuse it.
    GUARDS = {"tests/test_tooling.py"}
    SEARCHED = (
        "src", "tests", "docs", "benchmarks", "scripts", "README.md",
    )
    TEXT_SUFFIXES = {".py", ".md", ".json", ".sh", ".toml", ".txt"}

    def test_nothing_names_the_retired_surface(self):
        hits = _lines_naming(
            self.RETIRED, self.SEARCHED, self.TEXT_SUFFIXES, self.GUARDS
        )
        assert not hits, "\n".join(hits)

    def test_perf_sweep_is_an_invalid_choice(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["perf-sweep"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'perf-sweep'" in capsys.readouterr().err

    def test_docs_name_only_commands_the_cli_has(self):
        import argparse

        from repro.cli import build_parser

        [subparsers] = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        # `python -m repro X …` or a backticked `repro X …`; `X|Y|Z`
        # names several commands at once.
        pattern = re.compile(r"(?:python3? -m |`)repro ([a-z][a-z|-]*)")
        documents = [
            ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        ]
        named = 0
        for document in documents:
            for match in pattern.finditer(document.read_text()):
                for command in match.group(1).split("|"):
                    named += 1
                    assert command in subparsers.choices, (
                        f"{document.relative_to(ROOT)} names "
                        f"`repro {command}`, which the CLI does not have"
                    )
        assert named >= 40, "the pattern stopped matching the docs"


class TestCheckScript:
    def test_check_script_exists_and_is_executable(self):
        script = ROOT / "scripts" / "check.sh"
        assert script.exists(), "scripts/check.sh missing"
        assert os.access(script, os.X_OK), (
            "scripts/check.sh is not executable"
        )

    def test_check_script_runs_every_gate(self):
        # Lint, tier-1 tests, the cluster and profiler smoke runs, and
        # the every-registered-scenario smoke loop must all appear; a
        # check.sh that quietly drops one is a CI hole.
        text = (ROOT / "scripts" / "check.sh").read_text()
        assert "ruff" in text
        assert "pytest" in text
        assert "run --scenario cluster-scale --smoke" in text
        assert "profile --scenario scale --smoke" in text
        assert 'run --scenario "$scenario" --smoke' in text
        # The claims table: non-zero on any red shape verdict.
        assert "python -m repro experiments >/dev/null" in text
        assert "repro.scenarios" in text, (
            "the smoke loop must enumerate the registry, not a list"
        )
        # The repository benchmark: its smoke run exits non-zero on a
        # violated correctness or sim_digest check; then its self-test.
        assert "python3 -m bench run --smoke" in text
        assert "python -m pytest bench -q" in text
        # Every recorded mutant still killed by its test.
        assert "python scripts/mutants.py" in text
        # The state machines again, at the soak profile's longer budget.
        assert "python -m pytest -x -q -m fuzz --hypothesis-profile=soak" in text
        assert "set -euo pipefail" in text


class TestCensus:
    """``scripts/census.py`` traces every non-test entry point; its list
    cannot go stale against the registry, the examples or the bench."""

    @staticmethod
    def _census():
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "census", ROOT / "scripts" / "census.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_entry_points_name_every_scenario_example_and_workload(self):
        import repro.scenarios
        from bench import catalog

        census = self._census()
        labels = {label for label, *_ in census.entry_points("scratch")}
        for scenario in repro.scenarios.REGISTRY:
            for view in ("run", "obs-report", "profile", "trace-export"):
                assert f"{view} {scenario}" in labels, (view, scenario)
        for example in (ROOT / "examples").glob("*.py"):
            assert f"examples/{example.name}" in labels, example.name
        for workload in catalog.WORKLOADS:
            for trace in ("0", "1"):
                assert f"bench {workload} --trace {trace}" in labels, workload
        assert {"experiments", "demo", "profiles", "policy"} <= labels

    def test_census_is_opt_in(self):
        assert "census" not in (ROOT / "scripts" / "check.sh").read_text()


class TestBenchmarkPins:
    """Names `bench/` pins must keep resolving (bench/README.md).

    The benchmark wraps these from outside and reports a vanished one
    only as a quiet ``trace.missing_targets`` in its next run; here a
    rename fails tier-1 instead.
    """

    def test_every_trace_target_resolves(self):
        from bench import stack
        from bench.trace import TARGETS

        assert len(TARGETS) >= 40
        missing = [
            target.path for target in TARGETS
            if stack.resolve(target.path) is None
        ]
        assert not missing, f"bench/trace.py targets vanished: {missing}"

    def test_stack_module_imports_and_builds(self):
        # Importing bench.stack resolves every `from repro... import`
        # it pins; building one server exercises the attribute pins.
        from bench import stack

        built = stack.build_server()
        assert built.capacity >= 1
        assert set(stack.counters(built)) >= {"drive.reads", "rpc.calls"}


class TestRecorderSeam:
    """The stack's only observability dependency is the recorder.

    ``repro.obs.recorder`` alone names metrics, profiler phases, spans,
    audit decisions and timeline stages; the six
    block-path and five request-path modules report *what happened* and
    import nothing else from ``repro.obs`` (the router also re-exports
    the ``CLUSTER_SLOS`` objective set, which ``bench/`` imports from it).
    """

    HOT_PATH = (
        "service/rounds.py", "service/playback.py", "service/besteffort.py",
        "disk/drive.py", "disk/cache.py", "faults/recovery.py",
        "server/media_server.py", "server/batching.py", "cluster/router.py",
        "service/rpc.py", "fs/storage_manager.py",
    )
    REEXPORTS = {("cluster/router.py", "repro.obs.slo"): ["CLUSTER_SLOS"]}

    @staticmethod
    def _sink_names():
        from repro.obs import PHASES, BlockStage
        from repro.obs.recorder import EVENTS, FAULTS

        names = set(PHASES) | {stage.value for stage in BlockStage}
        for _source, sinks in EVENTS.values():
            names.update(token.partition(":")[2] for token in sinks.split())
        for counters, span, _reason in FAULTS.values():
            names.update(counters)
            names.add(span)
        return names - {""}

    def test_hot_path_imports_only_the_recorder_from_obs(self):
        import ast

        for relative in self.HOT_PATH:
            tree = ast.parse((ROOT / "src/repro" / relative).read_text())
            for node in ast.walk(tree):
                modules = []
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                    allowed = self.REEXPORTS.get((relative, node.module))
                    if [alias.name for alias in node.names] == allowed:
                        continue
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                for module in modules:
                    if module.startswith("repro.obs"):
                        assert module == "repro.obs.recorder", (
                            f"{relative} imports {module}"
                        )

    def test_hot_path_names_no_metric_phase_span_stage_or_tag(self):
        import ast

        names = self._sink_names()
        assert {"disk.seek_s", "seek", "service.block", "consumed",
                "fault.skip", "server.request", "rpc.<method>",
                "msm.admit", "cluster.handoff", "server.batches", "admit",
                "revalidate"} <= names
        for relative in self.HOT_PATH:
            tree = ast.parse((ROOT / "src/repro" / relative).read_text())
            literals = {
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            }
            assert not literals & names, (
                f"{relative} names sinks itself: {sorted(literals & names)}"
            )

    def test_observability_doc_table_matches_the_recorder_table(self):
        from repro.obs.recorder import EVENTS

        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        section = text.split("## The seam", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`"):
                documented[cells[0].strip("`")] = (
                    cells[1], cells[2].replace("`", "")
                )
        assert documented == {
            event: (source, " ".join(sinks.split()))
            for event, (source, sinks) in EVENTS.items()
        }

    def test_every_event_is_a_recorder_method(self):
        from repro.obs.recorder import EVENTS, ServiceRecorder

        for event in EVENTS:
            assert callable(getattr(ServiceRecorder, event)), event


class TestOneLedgerOfModeledTime:
    """The cost profile is a view of ``DriveStats`` / ``CacheStats``
    (ISSUE 19): nothing on the per-block path writes to the profiler,
    and the round loop carries one number for it, each stream's folded
    turn cost, which the recorder hands over once the run is over."""

    def test_only_attach_turn_round_and_fault_events_feed_the_profile(self):
        from repro.obs.recorder import EVENTS, sinks

        feeds = {
            event: sinks(event, "phase") + sinks(event, "profile")
            for event in EVENTS
        }
        assert {event: names for event, names in feeds.items() if names} == {
            "drive_attached": ["seek", "transfer"],
            "cache_attached": ["cache_lookup"],
            "fault": ["fault_recovery"],
            "run_end": ["per_stream"],
            "round_end": ["checkpoint"],
        }
        from repro.obs import PHASES

        assert sorted(PHASES) == sorted(
            phase for event in EVENTS for phase in sinks(event, "phase")
        )

    def test_per_block_reports_do_not_touch_the_profiler(self):
        import inspect

        from repro.obs.recorder import ServiceRecorder

        for event in ("drive_access", "cache_read", "block_begin",
                      "block_end", "round_served", "_score"):
            source = inspect.getsource(getattr(ServiceRecorder, event))
            assert "_prof" not in source, event

    def test_the_write_path_names_are_gone(self):
        from repro.obs import CostProfiler, Observability

        assert not hasattr(CostProfiler(), "enabled")
        with pytest.raises(TypeError):
            CostProfiler(enabled=True)
        with pytest.raises(TypeError):
            Observability().enable_profiler(CostProfiler())
        rounds = (ROOT / "src/repro/service/rounds.py").read_text()
        assert "scanned" not in rounds
        assert "deadline_queries" not in rounds

    def test_a_profiled_run_calls_the_profiler_per_stream(
        self, monkeypatch
    ):
        from repro.obs import CostProfiler
        from repro.obs.recorder import ServiceRecorder
        from repro.scenarios import get

        calls = {}

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name, member in vars(CostProfiler).items():
            if callable(member) and not name.startswith("_"):
                counted(CostProfiler, name)
        for name in vars(ServiceRecorder):
            if not name.startswith("_"):
                counted(ServiceRecorder, name)
        scenario = get("scale")(streams=6, blocks_per_stream=40, seed=3)
        run = scenario.run(scenario.observability(profile=True))
        assert run.metrics()["blocks_delivered"] == 240
        rounds = run.result.rounds
        # No recorder call per turn or per block: a stream's turns fold
        # their cost on the stream, handed over once per stream.
        recorded = {name: calls.pop(name) for name in list(calls)
                    if name in vars(ServiceRecorder)}
        assert recorded["round_end"] == rounds < 240
        assert recorded["round_begin"] == recorded["round_served"] <= rounds
        assert recorded["stream_opened"] == 6 and recorded["run_end"] == 1
        # The drive reports each access's seek (a histogram needs each).
        assert recorded.pop("drive_access") == 240
        assert set(recorded) == {
            "drive_attached", "stream_opened", "round_begin", "round_served",
            "round_end", "run_end",
        }
        assert calls == {
            "watch_drive": 1,
            "stream_cost": 6,
            "fold_stream": 6,
            "checkpoint": rounds,
        }


class TestOneRegistry:
    """A node scope is a label on the shared observer (ISSUE 20): there
    is no second, node-local copy of any metric, and nothing that
    existed to write, read or merge one."""

    RETIRED = re.compile(
        r"_Paired|ScopedRegistry|merge_snapshots|node_snapshot_dicts"
        r"|merged_node_snapshot_dict"
    )

    def test_nothing_names_the_retired_federation(self):
        hits = _lines_naming(self.RETIRED, ("src", "docs"), {".py", ".md"})
        assert not hits, "\n".join(hits)

    def test_profiling_is_the_cost_profiler_alone(self):
        import ast

        tree = ast.parse((ROOT / "src/repro/obs/profiling.py").read_text())
        classes = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        assert classes == ["CostProfiler"]

    def test_the_recorder_scopes_nothing(self):
        recorder = (ROOT / "src/repro/obs/recorder.py").read_text()
        assert ".scoped(" not in recorder


class TestColumnarPlans:
    def test_only_the_rope_server_constructs_block_fetches(self):
        """Plans are columns; a per-block object exists only where
        ``FetchColumns`` materialises one on request."""
        import ast

        builders = sorted(
            str(path.relative_to(ROOT / "src/repro"))
            for path in (ROOT / "src").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", ""))
            == "BlockFetch"
        )
        assert set(builders) == {"rope/server.py"}, builders

    def test_a_media_server_plans_at_one_site(self):
        """Every plan the server package reads is built by
        ``MediaServer._fetches``, once per (rope, interval, media) in a
        ``serve`` call; a second site would plan per member again."""
        sites = {
            path.name: path.read_text().count("playback.fetch_sequence(")
            for path in (ROOT / "src/repro/server").rglob("*.py")
        }
        assert sum(sites.values()) == 1, sites


class TestPackageLayers:
    def test_fs_imports_nothing_from_rope_at_module_level(self):
        """The MSM sits below the MRS.  The one ``repro.rope`` import
        under ``fs/`` is striped storage's function-level
        ``FetchColumns``."""
        import ast

        def rope_imports(root):
            return {
                id(node) for node in ast.walk(root)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name.startswith("repro.rope") for name in [
                        getattr(node, "module", None) or "",
                        *(alias.name for alias in node.names),
                    ]
                )
            }

        sites = []
        for path in sorted((ROOT / "src/repro/fs").rglob("*.py")):
            tree = ast.parse(path.read_text())
            module_level = rope_imports(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and rope_imports(node):
                    sites.append((path.name, node.name))
                    module_level -= rope_imports(node)
            sites += [(path.name, "<module>")] * len(module_level)
        assert sites == [("striped.py", "playback_fetches")], sites


class TestOneWritePath:
    """Each write-path decision is written once (ISSUE 18).

    Chain placement is ``Allocator.allocate_strand``; a strand comes into
    being in the MSM's one writer; slots are taken and returned by
    ``repro.disk`` and the storage managers only; slot↔cylinder
    arithmetic lives in ``disk/geometry.py`` (the reference) and
    ``disk/drive.py`` (the copy everything calls).
    """

    SRC = ROOT / "src/repro"
    LAYERS = ("fs", "rope", "service", "cluster", "server")

    @classmethod
    def _sites(cls, matches, folders=None):
        """``{relative path: [enclosing function, ...]}`` of the AST nodes
        *matches* accepts, over *folders* of ``src/repro`` (default all)."""
        import ast

        roots = [cls.SRC / f for f in folders] if folders else [cls.SRC]
        found = {}
        for root in roots:
            for path in sorted(root.rglob("*.py")):
                tree = ast.parse(path.read_text())
                for scope in ast.walk(tree):
                    if not isinstance(scope, (ast.FunctionDef, ast.Module)):
                        continue
                    for node in ast.iter_child_nodes(scope):
                        stack = [node]
                        while stack:
                            inner = stack.pop()
                            if isinstance(inner, ast.FunctionDef):
                                continue  # visited as its own scope
                            if matches(inner):
                                found.setdefault(
                                    str(path.relative_to(cls.SRC)), []
                                ).append(getattr(scope, "name", "<module>"))
                            stack.extend(ast.iter_child_nodes(inner))
        return found

    @staticmethod
    def _calls(*names):
        import ast

        def matches(node):
            return isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", "")
            ) in names

        return matches

    @staticmethod
    def _freemap_calls(*methods):
        """``<anything>.freemap.<method>(...)`` / ``freemap.<method>(...)``."""
        import ast

        def matches(node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in methods):
                return False
            owner = node.func.value
            return getattr(owner, "attr", getattr(owner, "id", "")) in (
                "freemap", "_freemaps"
            ) or (isinstance(owner, ast.Subscript) and getattr(
                owner.value, "attr", "") == "_freemaps")

        return matches

    def test_only_the_msm_writer_constructs_strands(self):
        sites = self._sites(self._calls("Strand"), self.LAYERS)
        assert sites == {"fs/storage_manager.py": ["_write_strand"]}, sites

    def test_chain_placement_is_written_once(self):
        sites = self._sites(
            self._calls("allocate_first", "allocate_after", "_chain")
        )
        assert set(sites) == {"disk/allocation.py"}, sites
        assert set(sites["disk/allocation.py"]) == {
            "allocate_strand",   # a head, then one chain
            "_chain",            # the baselines' chain, a hop at a time
            # The placer's hop is its chain loop's one-hop case;
            # RandomAllocator's every block is a head.
            "allocate_after",
        }, sites

    def test_only_disk_and_the_storage_managers_take_or_return_slots(self):
        sites = self._sites(
            self._freemap_calls("allocate", "release", "claim")
        )
        outside_disk = {
            path: sorted(set(functions))
            for path, functions in sites.items()
            if not path.startswith("disk/")
        }
        assert outside_disk == {
            "fs/storage_manager.py": [
                "_release", "_write_strand", "relocate_strand",
            ],
            "fs/striped.py": ["delete_strand"],
            # E8's disk-ageing fixture: filler slots no strand owns.
            "analysis/experiments.py": ["e8_edit_copy"],
        }, outside_disk

    @staticmethod
    def _writes(attribute):
        """``<anything>.<attribute> = …`` (plain, augmented or annotated)
        and ``<attribute>=…`` passed to a constructor."""
        import ast

        def matches(node):
            if isinstance(node, ast.keyword):
                return node.arg == attribute
            targets = getattr(node, "targets", None) or [
                getattr(node, "target", None)
            ]
            return isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ) and any(
                isinstance(target, ast.Attribute) and target.attr == attribute
                for target in targets
            )

        return matches

    def test_the_controller_has_one_caller_and_a_slot_one_holder(self):
        """ISSUE 22: the MSM's admit/release door is the controller's only
        caller; the media server takes a slot or pins in ``_acquire`` and
        gives them back in ``_vacate``; an MRS request's slot is written
        by the MRS alone."""
        callers = _lines_naming(
            re.compile(r"\.admission\.(admit|release)\("), ("src",), {".py"},
            skip=("src/repro/fs/storage_manager.py",),
        )
        assert not callers, "\n".join(callers)
        for verbs, function in (
            (("admit", "pin"), "_acquire"), (("release", "unpin"), "_vacate")
        ):
            takes = self._sites(self._calls(*verbs), ["server"])
            assert takes == {
                "server/media_server.py": [function, function]
            }, takes
        writers = {
            path: sorted(set(functions)) for path, functions in
            self._sites(self._writes("admission_id"), self.LAYERS).items()
        }
        assert writers == {
            "server/media_server.py": ["_acquire"],
            "rope/server.py": ["_play_request", "_release", "record"],
        }, writers

    def test_a_node_is_loaded_and_unloaded_in_one_place_each(self):
        """A node's load is its own live set: no count of its sessions is
        kept beside it, and the opens routed to it go to its run in one
        place."""
        assert not self._sites(self._writes("active"), ["cluster"])
        sites = self._sites(self._writes("_pending"), ["cluster"])
        assert {path: sorted(names) for path, names in sites.items()} == {
            "cluster/node.py": ["__init__", "_submit"],
        }, sites

    def test_slot_cylinder_arithmetic_lives_in_geometry_and_drive(self):
        readers = sorted(
            str(path.relative_to(self.SRC))
            for path in self.SRC.rglob("*.py")
            if "sectors_per_cylinder" in path.read_text()
        )
        assert readers == ["disk/drive.py", "disk/geometry.py"], readers


class TestRetiredNames:
    """What simplicity PRs deleted stays deleted, with no alias: one row
    per retired file (a path from the repo root) or dotted name."""

    RETIRED = [
        # ISSUE 16: plans are columns.
        "repro.rope.MultimediaRopeServer._track_fetches",
        # ISSUE 17: one wall-clock authority.
        "src/repro/perf", "repro.perf", "benchmarks/bench_perf_scale.py",
        "BENCH_PERF.json", "BENCH_PERF.matrix.json",
        "experiments/smoke.json", "tests/perf/test_sweep.py",
        # ISSUE 18: one write path.
        "repro.fs.MultimediaStorageManager.copy_blocks_near",
        "repro.disk.ConstrainedScatterAllocator._slot_window",
        "src/repro/service/recording.py", "src/repro/sim/engine.py",
        "repro.sim.Engine", "repro.service.simulate_recording",
        "repro.errors.ContinuityViolation",
        # ISSUE 19: one ledger of modeled time.
        "repro.obs.profiling._ScopedProfiler",
        "repro.obs.recorder.ServiceRecorder._charge",
        "repro.obs.CostProfiler.record", "repro.obs.CostProfiler.reset",
        "repro.obs.CostProfiler.scoped",
        # ISSUE 21: one claims table.
        *(f"repro.analysis.experiments.E{n}Result" for n in range(1, 13)),
        *(f"repro.analysis.extensions.E{n}Result" for n in range(13, 22)),
        "repro.analysis.ablations.AblationResult",
        "repro.sim.SweepSeries", "repro.sim.metrics.SweepSeries",
        "repro.analysis.default_msm",
        "repro.analysis.experiments.default_msm",
        "repro.analysis.e1_architectures", "repro.cli.EXPERIMENTS",
        "benchmarks/bench_ablations.py",
        *(f"benchmarks/bench_{name}.py" for name in (
            "e1_architectures", "e2_k_vs_n", "e3_transition",
            "e4_allocation", "e5_buffering", "e6_mixed_media", "e7_hdtv",
            "e8_edit_copy", "e9_rope_ops", "e10_silence", "e11_symbols",
            "e12_prototype", "e13_variable_rate", "e14_scan_ordering",
            "e15_reorganization", "e16_variable_speed", "e17_striping",
            "e18_antijitter", "e19_unified_server", "e20_heterogeneous_k",
            "e21_record_play", "e22_fault_recovery",
        )),
        # ISSUE 22: one lease per physical stream.
        "repro.server.media_server.MediaServer._hand_over",
        "repro.server.media_server.MediaServer._release_resources",
        "repro.server.media_server.MediaServer._finalize_request",
        "repro.rope.MultimediaRopeServer._descriptor_for",
        # ISSUE 23: one round loop.
        "repro.service.ScanOrderService", "repro.service.MixedRoundService",
        "repro.service.UnifiedService", "repro.service.probe_round_times",
        "repro.service.RoundTimeProbe",
        "repro.service.rounds.RoundRobinService._extra_work_pending",
        "repro.obs.recorder.ServiceRecorder.block_scored",
        # ISSUE 24: one column per delivered block.
        "repro.service.rounds.StreamState.deliveries",
        "repro.service.rounds.StreamState._elapsed_playback",
        "repro.service.rounds.StreamState._next_deadline",
        "repro.service.rounds.RoundRobinService._deliver",
        "repro.service.rounds.RoundRobinService._rescore",
        "repro.sim.metrics.ContinuityMetrics._lateness_samples",
        # One value, no option; the sim log is the observer's.
        "repro.disk.DriveArray.failed_members",
        "repro.disk.DriveArray.surviving_heads",
        "repro.obs.Observability._sim_tracers",
        # One wake time per stream, and a lookup no caller made.
        "repro.service.rounds.RoundRobinService._note_head_failure",
        "repro.service.rounds.StreamState._duration_floor",
        "repro.api.ClusterServeResult.node_result",
        # One cursor answer per turn; a cache hit is one lookup.
        "repro.service.rounds.StreamState.consumed_at",
        "repro.service.rounds.StreamState.buffered_at",
        "repro.service.rounds.StreamState.finished",
        "repro.disk.cache.CachedDrive._read",
        # One admission controller; per-request k is its mode.
        "src/repro/core/general_admission.py",
        "repro.core.general_admission",
        "repro.core.GeneralAdmissionController",
        "repro.core.GeneralAdmissionDecision",
        "repro.core.AdmissionController.parameters",
        # One pass per strand: a recording is placed and indexed in bulk.
        "repro.fs.Strand.append_block", "repro.fs.Strand.append_silence",
        "repro.fs.StrandIndex.append",
        "repro.fs.StrandIndex._current_secondary_entry_grow",
        "repro.fs.PrimaryBlock.append",
        "repro.disk.FreeMap.free_in_window",
        "repro.disk.FreeMap.last_free_in_window",
        # One fold per landed block: consumption is a bisect of `ends`.
        "repro.sim.metrics.consumed_prefix",
        "repro.service.rounds.StreamState._consumed_count",
        "repro.service.rounds.StreamState._consumed_end",
        "repro.disk.drive.SimulatedDrive._sample_latency",
        # One deterministic contract: the smoke matrix is a golden.
        "repro.expt", "src/repro/expt",
        "tests/baselines/matrix_baseline.json", "experiments/full.json",
        "docs/MATRIX.md", "repro.scenarios.PERF_KEYS",
        "repro.scenarios.Scenario.from_matrix",
        "repro.scenarios.Scenario.spec", "repro.scenarios.Scenario.cell_id",
        "repro.scenarios.Scenario.acceptance",
        "repro.scenarios.Scenario.perf", "repro.scenarios.ScenarioRun.perf",
        "repro.scenarios.ScenarioRun.wall_s",
        # The timeline reads the columns: it is a per-session tally.
        "repro.obs.TimelineEvent",
        "repro.obs.SessionTimeline.record", "repro.obs.SessionTimeline.events",
        "repro.obs.SessionTimeline.validate", "repro.obs.SessionTimeline.render",
        "repro.obs.SpanTracer.samples_block",
        # Pay for what changed: an edit measures the seams it creates,
        # and a cached read is one frame.
        "repro.disk.CachedDrive._probe", "repro.disk.CachedDrive._miss",
        "repro.disk.BlockCache._next_victim",
        "repro.rope.ScatteringRepairer._track_of",
        "repro.rope.SeamCheck.segment_index",
        "repro.rope.operations._covers_all",
        # A round costs only the turns it serves: the loop's wakes are the
        # ones its turns hand back.
        "repro.service.rounds.StreamState._consume_state",
        "repro.service.rounds.StreamState.next_consumption_time",
        "repro.service.rounds._wake_of",
        "repro.service.rounds.check_k_override",
        # Watching is not walking: a recorder folds a stream's turns and
        # reads the cache's own counts instead of being called per block.
        "repro.obs.recorder.ServiceRecorder.cache_probe",
        "repro.obs.recorder.ServiceRecorder.cache_evicted",
        "repro.obs.recorder.ServiceRecorder.turn_end",
        "repro.obs.CostProfiler.attribute_stream",
        "repro.disk.cache.CachedDrive._fill",
        # Decide the island: modules nothing in the package called, and
        # the image module moved above the MSM it images.
        "src/repro/workload", "repro.workload",
        "src/repro/media/clock.py", "repro.media.clock",
        "repro.media.MediaClock", "repro.fs.persist",
        # One oracle: the loop's frozen parent copies became the round
        # model, and each pure function's copy a written spec.
        "tests/reference.py", "tests/perf/test_cursor_props.py",
        "tests/analysis/test_experiments.py", "tests/analysis/test_ablations.py",
        "tests.perf.test_equivalence.ReferenceStreamState",
        "tests.disk.test_cache_reference.ReferenceCache",
        "tests.disk.test_cache_reference.ReferenceCachedDrive",
        "tests.obs.test_timeline_reference.EventTimeline",
        # One copy of each §3.1 mechanism: one display time, one stripe
        # timing, one scorer, one silence count; and the code no stack
        # reaches — a head loss on the one-head drive freezes admission.
        "src/repro/media/devices.py", "repro.media.devices",
        "repro.media.DisplayDevice", "repro.media.DeviceBuffer",
        "repro.media.CaptureDevice", "tests/media/test_devices.py",
        "repro.disk.DriveArray.stripe", "repro.disk.DriveArray.read_batch",
        "repro.disk.DriveArray.read_striped_run",
        "repro.sim.metrics.ContinuityMetrics.record_delivery",
        "repro.sim.metrics.ContinuityMetrics.record_skip",
        "repro.service.RecordStream.retire", "repro.service.RecordStream.metrics",
        "repro.fs.AudioBlockPlan.stats", "repro.fs.SilenceStats",
        "repro.fs.silence.SilenceStats",
        "repro.disk.drive_with_freemap", "repro.disk.factory.drive_with_freemap",
        "repro.media.silence_fraction", "repro.media.audio.silence_fraction",
        "repro.rope.build_rope_server(profile)",
        # The sim event log leaves: spans and counters are the only event
        # record, and the names no caller but their own tests reached.
        "src/repro/sim/trace.py", "repro.sim.trace", "repro.sim.Tracer",
        "repro.sim.TraceEvent",
        "repro.obs.Observability.attach_sim_tracer",
        "repro.obs.Observability.timed",
        "repro.obs.recorder._LOGGING", "repro.obs.recorder._INJECT",
        "repro.obs.recorder.ServiceRecorder._log",
        "repro.obs.recorder.ServiceRecorder.turn_begin",
        "repro.obs.recorder.ServiceRecorder.playback_started",
        "repro.obs.recorder.ServiceRecorder.text_completed",
        "repro.obs.recorder.ServiceRecorder.stream_opened(admitted_round)",
        "repro.obs.recorder.ServiceRecorder.fault(detail)",
        "repro.obs.recorder.ServiceRecorder(sim)",
        "repro.config.get_profile", "repro.disk.CHS", "repro.disk.geometry.CHS",
        "repro.disk.DiskGeometry.to_chs", "repro.disk.DiskGeometry.to_lba",
        "repro.fs.Strand.unit_offset_of",
        # One simulator: Figs. 1–3 and trick play run on the round loop.
        "repro.service.playback._replay",
        "repro.service.simulate_sequential", "repro.service.simulate_pipelined",
        "repro.service.simulate_concurrent",
        "repro.service.simulate_variable_speed",
        "repro.service.simulate_variable_speed(switch_penalty)",
        "repro.service.VariableSpeedResult",
        "src/repro/service/variable_speed.py", "repro.service.variable_speed",
        "tests/analysis/test_e17.py", "tests/analysis/test_e18.py",
        # A recording is columns, not objects: no block or entry object
        # per stored block, and an index block's room is the fan-out.
        "repro.fs.Strand.extend(contents)", "repro.fs.Strand._check_mutable",
        "repro.fs.MultimediaStorageManager._write_strand(contents)",
        "repro.rope.persist._block_from_json",
        "repro.fs.PrimaryBlock.capacity", "repro.fs.PrimaryBlock.is_full",
        "repro.fs.SecondaryBlock.capacity", "repro.fs.SecondaryBlock.is_full",
        "repro.fs.HeaderBlock.secondary_count",
        # Keep what the traffic runs: second copies of an answer the
        # stack already gives, switches no caller set, helpers nothing
        # called.
        "repro.core.check", "repro.core.continuity.check",
        "repro.core.ContinuityVerdict", "repro.core.continuity.ContinuityVerdict",
        "repro.core.buffers_required", "repro.core.continuity.buffers_required",
        "repro.core.buffering.plan", "repro.core.BufferPlan",
        "repro.core.buffering.BufferPlan",
        "repro.cluster.router._PendingHandoff",
        "repro.service.PlaybackSession.run(k_schedule)",
        "repro.service.PlaybackSession._request_id_of",
        "repro.server.group_into_batches(enabled)",
        "repro.cli._write_json",
        "repro.units.bits", "repro.units.megabytes", "repro.units.gigabytes",
        "repro.units.kilobits", "repro.units.bits_to_bytes",
        "repro.units.bits_per_second", "repro.units.megabytes_per_second",
        "repro.units.seconds", "repro.units.microseconds", "repro.units.minutes",
        "repro.units.MEBI", "repro.units.GIBI",
        # Captured video is a column: the lines it needed came from
        # helpers that only their own tests entered, and one nothing did.
        "repro.analysis.render_series", "repro.analysis.report.render_series",
        "repro.cluster.demand_from_counters",
        "repro.cluster.placement.demand_from_counters",
        "repro.cluster.PlacementMap.to_dict",
        # Warm by state: a lookup nothing called, and one only tests did.
        "repro.cluster.ClusterNode.holds", "repro.cluster.PlacementMap.titles_on",
        # The write path pays per call: a codec answers a capture's size
        # column, and the write path's names only their own tests entered.
        *(f"repro.media.{codec}.{method}"
          for codec in ("Codec", "FixedRateCodec", "DifferencingCodec")
          for method in ("compressed_bits", "mean_compressed_bits")),
        "repro.media.generate_frames", "repro.media.frames.generate_frames",
        "repro.media.frames._capture",
        "repro.fs.Strand.is_finalized", "repro.fs.Strand.blocks",
        "repro.fs.Strand.block_playback_duration",
        "repro.fs.striped.StripedStrand.block_playback_duration",
        # One live set: an open is decided at its arrival on one resumable
        # loop, so the epoch's plumbing leaves, and so do the rope
        # server's PAUSE / RESUME, which no entry point reached.
        "repro.server.media_server.MediaServer._run_epoch",
        "repro.service.PlaybackSession.run(admissions)",
        "repro.service.PlaybackSession.run(fetches)",
        "repro.service.PlaybackSession._stream_for",
        "repro.rope.MultimediaRopeServer.pause",
        "repro.rope.MultimediaRopeServer.resume",
        "repro.rope.RequestState.PAUSED", "repro.rope.RequestState.PAUSED_RELEASED",
        # Second names of an answer the data already gives, which only
        # their own tests read.
        "repro.sim.metrics.ContinuityMetrics.glitches",
        "repro.rope.server.PlaybackPlan.video_duration",
        "repro.rope.server.PlaybackPlan.audio_duration",
        "repro.server.batching.RequestBatch.followers",
        "repro.rope.structures.MultimediaRope.has_video",
        "repro.rope.structures.MultimediaRope.has_audio",
        "repro.service.besteffort.TextRequest.remaining",
        "repro.rope.intervals.Segment.correspondence",
        "repro.rope.editor.EditingSession.names",
        "repro.disk.drive.DriveStats.operations",
        "repro.disk.drive.DriveStats.reset",
        "repro.core.admission.TransitionPlan.rounds_required",
        "repro.fs.silence.AudioBlockPlan.stored_count",
        "repro.fs.silence.AudioBlockPlan.silent_count",
        "repro.fs.reorganize.ReorganizationReport.moved_anything",
        "repro.disk.cache.CacheStats.accesses",
        "repro.disk.layout.Placement.min_gap",
        "repro.disk.layout.Placement.within",
        # A census paying for one plan per shared read: more second
        # names of what the fields give, and a count nothing called.
        "repro.faults.plan.FaultPlan.count",
        "repro.core.variable_rate.BlockSizeProfile.variability",
        "repro.disk.layout.Placement.block_count",
        "repro.core.granularity.PlacementPolicy.scattering_window",
        "repro.core.editing_bounds.SeamRepairBound.copies",
        # One timeline per serve: a request is submitted at its arrival.
        "repro.server.media_server._Epoch.reach",
        "repro.server.media_server._Epoch.apply",
        # The cluster runs on its nodes' own timelines: one run per node
        # per serve, kills at their time, no chunk epochs.
        "repro.cluster.router.MediaCluster._chunk_interval",
        "repro.cluster.router.MediaCluster._serve_chunk",
        "repro.cluster.router.MediaCluster._merge_chunk",
        "repro.cluster.router.MediaCluster._apply_kills",
        "repro.cluster.router.MediaCluster._kill_node",
        "repro.cluster.router.MediaCluster._place",
        "repro.cluster.router.MediaCluster._leave",
        "repro.api.HandoffRecord.at_chunk", "repro.api.ClusterServeResult.chunks",
        "repro.obs.recorder.ServiceRecorder.chunk_served",
        "repro.obs.recorder.ServiceRecorder.handed_off(chunk)",
        # No saved image: no entry point saved or loaded one, and the
        # placement golden hashes its own statement of the state.
        "src/repro/rope/persist.py", "repro.rope.persist",
        "repro.rope.dump_image", "repro.rope.load_image",
        "repro.rope.save_file", "repro.rope.load_file",
        "repro.rope.IMAGE_VERSION", "repro.errors.ImageError",
        "repro.fs.MultimediaStorageManager.restore_strands",
    ]
    #: Retired instance attributes, which no import can resolve.
    RETIRED_ATTRIBUTES = re.compile(
        r"_seen_sessions|_sim_tracers|\bsim_log\b|_head_lost|_subject\b"
        r"|\.logging\b|\._contents\b|\._drive\b|self\.t0\b|self\.reached\b"
        r"|\bnode\.active\b"
    )

    @classmethod
    def _exists(cls, name):
        """Whether *name* — a path from the repo root, a dotted module /
        attribute chain (a dataclass field counts as an attribute of its
        class), or ``callable(parameter)`` — still resolves."""
        import functools
        import importlib
        import inspect

        if "/" in name or name.endswith(".json"):
            return (ROOT / name).exists()
        if name.endswith(")"):
            target, parameter = name[:-1].split("(")
            if not cls._exists(target):
                return False
            # Resolving *target* imported each module on its path.
            root, *path = target.split(".")
            function = functools.reduce(getattr, path, importlib.import_module(root))
            return parameter in inspect.signature(function).parameters
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            for attribute in parts[cut:]:
                if attribute in getattr(target, "__dataclass_fields__", ()):
                    return True
                if not hasattr(target, attribute):
                    return False
                target = getattr(target, attribute)
            return True
        return False

    @pytest.mark.parametrize("name", RETIRED)
    def test_is_gone(self, name):
        assert not self._exists(name), f"{name} is back"

    def test_expt_is_an_invalid_choice(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["expt"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'expt'" in capsys.readouterr().err

    def test_profile_trace_out_is_an_unrecognized_option(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "--scenario", "scale", "--trace-out", "x.json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --trace-out" in capsys.readouterr().err

    def test_a_cluster_tallies_its_sessions_as_a_server_does(self):
        """``ServeResult`` and ``ClusterServeResult`` share one session
        tally and define none of it themselves."""
        from repro.api import ClusterServeResult, ServeResult

        tally = {"admitted", "continuous_sessions", "total_misses", "status_of"}
        bases = {ServeResult.__bases__, ClusterServeResult.__bases__}
        assert len(bases) == 1 and len(next(iter(bases))) == 1, bases
        for cls in (ServeResult, ClusterServeResult):
            assert not tally & set(vars(cls)), cls.__name__
            assert tally <= set(vars(cls.__bases__[0])), cls.__name__

    def test_no_source_names_a_retired_attribute(self):
        hits = _lines_naming(self.RETIRED_ATTRIBUTES, ("src",), {".py"})
        assert not hits, "\n".join(hits)

    def test_src_has_one_round_loop(self):
        """`_run_round` is defined once, on a class nothing derives from."""
        import ast

        loops, derived = [], []
        for path in (ROOT / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name == "_run_round":
                    loops.append(path.name)
                if isinstance(node, ast.ClassDef) and any(
                    "RoundRobinService" in ast.unparse(base)
                    for base in node.bases
                ):
                    derived.append(node.name)
        assert loops == ["rounds.py"] and not derived, (loops, derived)

    def test_src_has_one_admission_controller(self):
        """Of the classes defining both ``admit`` and ``release``, the
        storage manager is the RPC door onto its controller; the only
        other is ``AdmissionController``."""
        import ast

        both = []
        for path in (ROOT / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and {"admit", "release"} <= {
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }:
                    both.append(node.name)
        assert sorted(both) == [
            "AdmissionController", "MultimediaStorageManager"
        ], both

    def test_src_scores_a_playback_in_one_place(self):
        """``ContinuityMetrics.score`` is the one scorer: no block is
        scored one at a time anywhere, and it is called by the loop and
        by the RECORD side (its ``written`` column) alone.  §3.1's
        play-out fold is written once, in the loop; the recorder and
        trick play read its ``ends``, and nothing re-folds them."""
        from repro.sim.metrics import ContinuityMetrics

        scoring = re.compile(r"\.record_(delivery|skip)\(")
        sites = _lines_naming(scoring, ("src",), {".py"})
        assert not sites, "\n".join(sites)
        methods = sorted(
            name for name, value in vars(ContinuityMetrics).items()
            if callable(value) and not name.startswith("_")
        )
        assert methods == ["score", "summary"], methods
        folds = _lines_naming(
            re.compile(r"^\s*[^#\s].*max\(.*\) \+ durations\["), ("src",),
            {".py"},
        )
        assert [hit.split(":")[0] for hit in folds] == [
            "src/repro/service/rounds.py",
        ], "\n".join(folds)
        calls = _lines_naming(
            re.compile(r"^\s*[^#\s].*\.score\("), ("src",), {".py"}
        )
        assert [hit.split(":")[0] for hit in calls] == [
            "src/repro/service/mixed_rounds.py",
            "src/repro/service/rounds.py",
        ], "\n".join(calls)

    def test_the_check_can_tell_present_from_gone(self):
        for name in ("repro.analysis.Table.cell", "repro.obs.recorder",
                     "benchmarks/bench_experiments.py",
                     "repro.service.rounds.StreamState.ready",
                     "repro.sim.metrics.ContinuityMetrics.score",
                     "repro.rope.build_rope_server(obs)"):
            assert self._exists(name), name


class TestReferencesAreNotSubclasses:
    """A fast path is checked against the round model or a written spec,
    never against a subclass of the code it checks: a defect in a shared
    base would pass on both sides."""

    ALLOWED = {
        # Instruments, not references: they count a seek curve's calls.
        ("tests/perf/test_operation_counts.py", "CountingSeek"),
        ("tests/perf/test_operation_counts.py", "CountingTableSeek"),
        # An extension point's own contract test: a scenario is added by
        # subclassing ``Scenario``.
        ("tests/test_scenario_contract.py", "Throwaway"),
    }

    def test_no_test_class_subclasses_a_repro_class(self):
        import ast

        found = set()
        for path in sorted((ROOT / "tests").rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (
                    node.module or ""
                ).startswith("repro"):
                    names |= {alias.asname or alias.name for alias in node.names}
                if isinstance(node, ast.Import):
                    names |= {
                        (alias.asname or alias.name).split(".")[0]
                        for alias in node.names if alias.name.startswith("repro")
                    }
            found |= {
                (path.relative_to(ROOT).as_posix(), node.name)
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                and any(ast.unparse(b).split(".")[0] in names for b in node.bases)
            }
        assert found == self.ALLOWED, sorted(found ^ self.ALLOWED)


class TestSourceSize:
    #: `src/` physical lines, as measured, once the saved file-system
    #: image left (20,566 before).  ROADMAP aim 2: the count trends
    #: *down* — lower this when a PR deletes code, never raise it to
    #: make room.
    SRC_LINE_CEILING = 20226
    #: `src/repro/obs/` alone, measured when the sim event log left
    #: (2,838 before): the largest package in `src/`, pinned on its own.
    OBS_LINE_CEILING = 2737

    @staticmethod
    def _lines(root):
        return sum(
            len(path.read_text().splitlines()) for path in root.rglob("*.py")
        )

    def test_src_line_count_stays_under_the_ceiling(self):
        total = self._lines(ROOT / "src")
        assert total <= self.SRC_LINE_CEILING, (
            f"src/ grew to {total} physical lines (ceiling "
            f"{self.SRC_LINE_CEILING}); delete before you add"
        )

    def test_obs_line_count_stays_under_its_ceiling(self):
        total = self._lines(ROOT / "src" / "repro" / "obs")
        assert total <= self.OBS_LINE_CEILING, (
            f"src/repro/obs/ grew to {total} physical lines (ceiling "
            f"{self.OBS_LINE_CEILING}); delete before you add"
        )
