"""CLI contract for ``repro expt run|gate|diff``."""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.expt import stable_json, validate_manifest

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "tests" / "baselines" / "matrix_baseline.json"


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One CLI smoke run shared by the module: (out_dir, manifest)."""
    out = tmp_path_factory.mktemp("cli") / "smoke"
    code = main([
        "expt", "run", "--smoke", "--out", str(out), "--workers", "1",
    ])
    assert code == 0
    manifest = json.loads((out / "matrix.json").read_text())
    return out, validate_manifest(manifest)


class TestRun:
    def test_requires_smoke_or_config(self):
        with pytest.raises(SystemExit, match="--smoke or --config"):
            main(["expt", "run"])

    def test_rejects_both_smoke_and_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{}")
        with pytest.raises(SystemExit, match="either"):
            main([
                "expt", "run", "--smoke", "--config", str(config),
            ])

    def test_smoke_run_writes_results_dir(self, smoke_run, capsys):
        out, manifest = smoke_run
        assert manifest["name"] == "smoke"
        assert (out / "cells").is_dir()

    def test_summary_names_cells(self, smoke_run, tmp_path, capsys):
        out = tmp_path / "again"
        main([
            "expt", "run", "--smoke", "--out", str(out),
            "--workers", "1",
        ])
        stdout = capsys.readouterr().out
        assert "expt run 'smoke'" in stdout
        assert "scale-testbed-uniform-n4-b16-seed0" in stdout
        assert f"wrote {out / 'matrix.json'}" in stdout

    def test_json_flag_prints_manifest(self, tmp_path, capsys):
        out = tmp_path / "json"
        main([
            "expt", "run", "--smoke", "--out", str(out),
            "--workers", "1", "--json",
        ])
        manifest = json.loads(capsys.readouterr().out)
        validate_manifest(manifest)

    @staticmethod
    def _mini_config(tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({
            "schema_version": 2,
            "name": "mini",
            "workloads": [{
                "kind": "scale", "streams": 2, "blocks_per_stream": 8,
            }],
        }))
        return path

    def test_config_file_run(self, tmp_path, capsys):
        out = tmp_path / "mini-out"
        code = main([
            "expt", "run", "--config", str(self._mini_config(tmp_path)),
            "--out", str(out), "--workers", "1",
        ])
        assert code == 0
        manifest = json.loads((out / "matrix.json").read_text())
        assert manifest["name"] == "mini"
        assert list(manifest["cells"]) == [
            "scale-testbed-uniform-n2-b8-seed0"
        ]

    def test_regen_baseline_writes_stable_manifest(
        self, tmp_path, capsys
    ):
        out = tmp_path / "regen"
        baseline = tmp_path / "nested" / "baseline.json"
        code = main([
            "expt", "run", "--smoke", "--out", str(out),
            "--workers", "1", "--regen-baseline",
            "--baseline", str(baseline),
        ])
        assert code == 0
        data = json.loads(baseline.read_text())
        validate_manifest(data)
        # the baseline is stable_json-encoded byte for byte.
        assert baseline.read_text() == stable_json(data)
        assert f"regenerated baseline {baseline}" in (
            capsys.readouterr().out
        )


    def test_regen_baseline_with_config_needs_explicit_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        # The default path is the *smoke* matrix's committed baseline; a
        # --config run must never land there by omission.
        monkeypatch.chdir(tmp_path)
        code = main([
            "expt", "run", "--config", str(self._mini_config(tmp_path)),
            "--workers", "1", "--regen-baseline",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: --regen-baseline with --config")
        assert "--baseline FILE" in line
        # Refused before anything ran: no results dir, no baseline.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.json"]

    def test_regen_baseline_with_config_and_explicit_baseline(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "mini-baseline.json"
        code = main([
            "expt", "run", "--config", str(self._mini_config(tmp_path)),
            "--workers", "1", "--regen-baseline",
            "--baseline", str(baseline),
        ])
        assert code == 0
        assert json.loads(baseline.read_text())["name"] == "mini"
        assert not (tmp_path / "tests").exists()

    def test_regen_baseline_with_smoke_defaults_to_committed_path(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "expt", "run", "--smoke", "--workers", "1",
            "--regen-baseline",
        ])
        assert code == 0
        written = tmp_path / "tests" / "baselines" / "matrix_baseline.json"
        assert json.loads(written.read_text())["name"] == "smoke"


class TestGate:
    def test_gate_passes_against_committed_baseline(
        self, smoke_run, capsys
    ):
        out, _ = smoke_run
        code = main([
            "expt", "gate", "--manifest", str(out / "matrix.json"),
            "--baseline", str(BASELINE),
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "PASS" in stdout

    def test_gate_fails_with_nonzero_exit_and_named_cell(
        self, smoke_run, tmp_path, capsys
    ):
        out, manifest = smoke_run
        regressed = copy.deepcopy(manifest)
        victim = sorted(regressed["cells"])[0]
        regressed["cells"][victim]["metrics"]["misses"] = 999
        bad_path = tmp_path / "regressed.json"
        bad_path.write_text(stable_json(regressed))
        code = main([
            "expt", "gate", "--manifest", str(bad_path),
            "--baseline", str(BASELINE),
        ])
        stdout = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in stdout
        assert victim in stdout and "misses" in stdout

    def test_gate_json_output(self, smoke_run, capsys):
        out, _ = smoke_run
        code = main([
            "expt", "gate", "--manifest", str(out / "matrix.json"),
            "--baseline", str(BASELINE), "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["checks"] > 0

    def test_gate_verbose_prints_table(self, smoke_run, capsys):
        out, _ = smoke_run
        main([
            "expt", "gate", "--manifest", str(out / "matrix.json"),
            "--baseline", str(BASELINE), "--verbose",
        ])
        stdout = capsys.readouterr().out
        assert "cell" in stdout and "metric" in stdout

    def test_missing_manifest_has_guidance(self, tmp_path):
        with pytest.raises(SystemExit, match="expt run --smoke"):
            main([
                "expt", "gate",
                "--manifest", str(tmp_path / "nope.json"),
                "--baseline", str(BASELINE),
            ])

    def test_missing_baseline_suggests_regen(self, smoke_run, tmp_path):
        out, _ = smoke_run
        with pytest.raises(SystemExit, match="--regen-baseline"):
            main([
                "expt", "gate",
                "--manifest", str(out / "matrix.json"),
                "--baseline", str(tmp_path / "nope.json"),
            ])


class TestDiff:
    def test_diff_runs_clean(self, smoke_run, capsys):
        out, _ = smoke_run
        code = main([
            "expt", "diff", "--manifest", str(out / "matrix.json"),
            "--baseline", str(BASELINE),
        ])
        assert code == 0
        assert "expt diff" in capsys.readouterr().out

    def test_diff_json_shape(self, smoke_run, capsys):
        out, manifest = smoke_run
        code = main([
            "expt", "diff", "--manifest", str(out / "matrix.json"),
            "--baseline", str(BASELINE), "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["cells"]) == set(manifest["cells"])


class TestParser:
    def test_expt_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["expt"])

    def test_help_mentions_expt(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "expt" in capsys.readouterr().out
