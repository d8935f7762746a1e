"""CI/tooling regressions: benchmark smoke mode, markers, lint config.

The benchmark smoke job is the "benches can't silently rot" guard: it
executes every ``benchmarks/bench_*.py`` end to end with tiny workloads
in a subprocess, exactly as CI would.  The other tests pin the pytest
marker registry, the ruff configuration, the experiment-matrix smoke
entry points (``repro expt``, ``scripts/check.sh``), that the docs name
only commands the CLI has, and — one table, ``TestRetiredNames`` — that
what the simplicity PRs deleted stays deleted.
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
            "chaos", "cluster", "golden", "matrix", "perf", "profile",
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

    def test_matrix_marker_selects_matrix_tests(self):
        result = _run_pytest(
            ["tests/expt", "-m", "matrix", "--collect-only", "-q"]
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "test_matrix_e2e" in result.stdout

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
        "workload",
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
        assert "results/" in ignored
        assert "bench/out/" in ignored


class TestOneWallClockAuthority:
    """`python -m bench run|compare` judges host time; `repro expt`
    gates seed-deterministic metrics.  The surface that existed for the
    other answer is gone and may not drift back in, code or prose."""

    #: What the retired surface was called, wherever it was mentioned.
    RETIRED = re.compile(
        r"perf-sweep|perf_sweep|BENCH_PERF|bench_perf_scale|repro\.perf"
        r"|relative_drop|obs-overhead|obs_overhead"
    )
    #: Tests that name a retired thing in order to refuse it.
    GUARDS = {"tests/test_tooling.py", "tests/expt/test_gate.py"}
    SEARCHED = (
        "src", "tests", "docs", "benchmarks", "scripts", "experiments",
        "README.md",
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


class TestExptSmoke:
    def test_expt_smoke_run_completes_and_manifest_validates(
        self, tmp_path
    ):
        from repro.expt import smoke_config, validate_manifest

        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        out = tmp_path / "smoke"
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "expt", "run",
                "--smoke", "--out", str(out),
            ],
            cwd=ROOT, capture_output=True, text=True, env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "expt run 'smoke'" in result.stdout
        manifest = validate_manifest(
            json.loads((out / "matrix.json").read_text())
        )
        assert manifest["config_hash"] == smoke_config().hash

        gate = subprocess.run(
            [
                sys.executable, "-m", "repro", "expt", "gate",
                "--manifest", str(out / "matrix.json"),
            ],
            cwd=ROOT, capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert gate.returncode == 0, gate.stdout + gate.stderr
        assert "PASS" in gate.stdout


class TestCheckScript:
    def test_check_script_exists_and_is_executable(self):
        script = ROOT / "scripts" / "check.sh"
        assert script.exists(), "scripts/check.sh missing"
        assert os.access(script, os.X_OK), (
            "scripts/check.sh is not executable"
        )

    def test_check_script_runs_every_gate(self):
        # Lint, tier-1 tests, the smoke matrix gate, the cluster and
        # profiler smoke runs, and the every-registered-scenario smoke
        # loop must all appear; a check.sh that quietly drops one is a
        # CI hole.
        text = (ROOT / "scripts" / "check.sh").read_text()
        assert "ruff" in text
        assert "pytest" in text
        assert "expt run --smoke" in text
        assert "expt gate" in text
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
        assert "set -euo pipefail" in text


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
    audit decisions, timeline stages and sim-trace tags; the six
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
        for events, counters, span, _reason in FAULTS.values():
            names.update(tag for tag, _template in events)
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
                "fault.skip", "buffer-full", "server.request", "rpc.<method>",
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
    and the round loop carries no number that exists only for it."""

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
            "turn_end": ["per_stream"],
            "round_end": ["checkpoint"],
        }
        from repro.obs import PHASES

        assert sorted(PHASES) == sorted(
            phase for event in EVENTS for phase in sinks(event, "phase")
        )

    def test_per_block_reports_do_not_touch_the_profiler(self):
        import inspect

        from repro.obs.recorder import ServiceRecorder

        for event in ("drive_access", "cache_probe", "block_begin",
                      "block_end", "round_served", "run_end", "_score"):
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

    def test_a_profiled_run_calls_the_profiler_per_turn_not_per_block(
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
        counted(ServiceRecorder, "turn_end")
        scenario = get("scale")(streams=6, blocks_per_stream=40, seed=3)
        run = scenario.run(scenario.observability(profile=True))
        blocks = run.metrics()["blocks_delivered"]
        turns = calls.pop("turn_end")
        assert blocks == 240 and turns < blocks / 2
        assert calls == {
            "watch_drive": 1,
            "attribute_stream": turns,
            "checkpoint": run.result.rounds,
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


class TestOneWritePath:
    """Each write-path decision is written once (ISSUE 18).

    Chain placement is ``Allocator.allocate_strand``; a strand comes into
    being in the MSM's one writer (and persist's decoder); slots are
    taken and returned by ``repro.disk`` and the storage managers only;
    slot↔cylinder arithmetic lives in ``disk/geometry.py`` (the
    reference) and ``disk/drive.py`` (the copy everything calls).
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

    def test_only_the_msm_writer_and_persist_construct_strands(self):
        sites = self._sites(self._calls("Strand"), self.LAYERS)
        assert sites == {
            "fs/storage_manager.py": ["_write_strand"],
            "fs/persist.py": ["_strand_from_json"],
        }, sites

    def test_chain_placement_is_written_once(self):
        sites = self._sites(self._calls("allocate_first", "allocate_after"))
        assert set(sites) == {"disk/allocation.py"}, sites
        assert set(sites["disk/allocation.py"]) == {
            "allocate_strand",   # the one chain loop
            "allocate_after",    # RandomAllocator: every block is a head
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
                "restore_strands",
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
            "rope/server.py": ["_play_request", "_release", "record",
                               "resume"],
        }, writers

    def test_a_node_is_loaded_and_unloaded_in_one_place_each(self):
        sites = self._sites(self._writes("active"), ["cluster"])
        assert {path: sorted(names) for path, names in sites.items()} == {
            "cluster/node.py": ["__init__"],
            "cluster/router.py": ["_leave", "_place"],
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
    ]
    #: Retired instance attributes, which no import can resolve.
    RETIRED_ATTRIBUTES = re.compile(r"_seen_sessions")

    @staticmethod
    def _exists(name):
        """Whether *name* — a path from the repo root, or a dotted module
        / attribute chain (a dataclass field counts as an attribute of its
        class) — still resolves."""
        import importlib

        if "/" in name or name.endswith(".json"):
            return (ROOT / name).exists()
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

    def test_src_scores_a_playback_in_one_place(self):
        """Outside ``ContinuityMetrics`` (whose ``score`` is the one
        scorer) a block is scored at one site at most — the RECORD
        side's ``retire`` — and the consumption fold is not re-written
        where ``consumed_prefix`` is to be called."""
        scoring = re.compile(r"\.record_(delivery|skip)\(")
        sites = _lines_naming(
            scoring, ("src",), {".py"}, skip=("src/repro/sim/metrics.py",)
        )
        assert len(sites) <= 1, "\n".join(sites)
        folds = _lines_naming(
            re.compile(r"max\(elapsed,"),
            ("src/repro/obs", "src/repro/service/variable_speed.py"), {".py"},
        )
        assert not folds, "\n".join(folds)

    def test_the_check_can_tell_present_from_gone(self):
        for name in ("repro.analysis.Table.cell", "repro.obs.recorder",
                     "benchmarks/bench_experiments.py",
                     "repro.service.rounds.StreamState.ready",
                     "repro.sim.metrics.ContinuityMetrics.score"):
            assert self._exists(name), name


class TestSourceSize:
    #: `src/` physical lines, as measured, after the round loop's
    #: per-block record became one column (ISSUE 24; 24,063 before).
    #: ROADMAP aim 2: the count trends *down* — lower this when a PR
    #: deletes code, never raise it to make room.
    SRC_LINE_CEILING = 24062

    def test_src_line_count_stays_under_the_ceiling(self):
        total = sum(
            len(path.read_text().splitlines())
            for path in (ROOT / "src").rglob("*.py")
        )
        assert total <= self.SRC_LINE_CEILING, (
            f"src/ grew to {total} physical lines (ceiling "
            f"{self.SRC_LINE_CEILING}); delete before you add"
        )
