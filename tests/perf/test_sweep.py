"""Unit tests for the parallel sweep runner and its CLI command."""

import json

import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.perf import run_sweep, scale_grid, scale_row, score
from repro.scenarios.loop import Scale

pytestmark = pytest.mark.perf


def _stable(result):
    """Result fields that must be reproducible (timings excluded)."""
    row = scale_row(result)
    row.pop("wall_time_s")
    row.pop("blocks_per_second")
    row.pop("streams_per_second")
    return row


class TestScenario:
    def test_deterministic_across_runs(self):
        scenario = Scale(
            label="det", streams=5, blocks_per_stream=30, seed=2,
        )
        assert _stable(score(scenario)) == _stable(score(scenario))

    def test_delivers_every_block(self):
        scenario = Scale(
            label="full", streams=4, blocks_per_stream=25,
            arrivals="staggered",
        )
        result = scale_row(score(scenario))
        assert result["blocks_delivered"] == 4 * 25
        assert result["rounds"] > 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            Scale(label="bad", streams=0, blocks_per_stream=1)
        with pytest.raises(ParameterError):
            Scale(
                label="bad", streams=1, blocks_per_stream=1,
                drive="floppy",
            )
        with pytest.raises(ParameterError):
            Scale(
                label="bad", streams=1, blocks_per_stream=1,
                arrivals="sideways",
            )


class TestGrid:
    def test_cartesian_size_and_names(self):
        grid = scale_grid(
            [2, 4], 10, seeds=(0, 1, 2), drives=("testbed", "fast"),
            arrivals=("uniform", "staggered"),
        )
        assert len(grid) == 2 * 3 * 2 * 2
        names = [s.label for s in grid]
        assert len(set(names)) == len(names)


class TestSweep:
    def test_serial_and_parallel_agree(self):
        grid = scale_grid([2, 3], 12, seeds=(0, 1))
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=2)
        assert not serial.parallel
        assert [r.cell_id for r in serial.results] == [s.label for s in grid]
        assert [_stable(r) for r in serial.results] == (
            [_stable(r) for r in parallel.results]
        )

    def test_empty_sweep_rejected(self):
        with pytest.raises(ParameterError):
            run_sweep([])
        with pytest.raises(ParameterError):
            run_sweep(scale_grid([1], 1), workers=0)


class TestCli:
    def test_perf_sweep_table(self, capsys):
        assert main([
            "perf-sweep", "--streams", "2", "--blocks", "10",
            "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "perf sweep" in out
        assert "blocks/s" in out

    def test_perf_sweep_json(self, capsys):
        assert main([
            "perf-sweep", "--streams", "2", "3", "--blocks", "8",
            "--workers", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parallel"] is False
        assert len(payload["results"]) == 2
        assert payload["results"][0]["blocks_delivered"] == 2 * 8
