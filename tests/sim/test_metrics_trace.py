"""Unit tests for continuity metrics."""

import pytest

from repro.sim.metrics import ContinuityMetrics


def scored(ready, deadlines):
    """*ready* scored against *deadlines*, with no play-out column."""
    metrics = ContinuityMetrics()
    metrics.score(ready, deadlines, (), high_water_from=len(ready))
    return metrics


class TestContinuityMetrics:
    def test_on_time_blocks(self):
        metrics = scored([0.5, 1.0], [2.0, 1.0])
        assert metrics.continuous
        assert metrics.misses == 0
        assert metrics.miss_ratio == 0.0
        assert metrics.blocks_delivered == 2

    def test_late_blocks_counted(self):
        metrics = scored([1.5, 3.0], [1.0, 2.0])
        assert not metrics.continuous
        assert metrics.misses == 2
        assert metrics.max_lateness == pytest.approx(1.0)
        assert metrics.total_lateness == pytest.approx(1.5)
        assert metrics.miss_ratio == 1.0

    def test_jitter_peak_to_peak(self):
        metrics = scored([0.5, 2.3], [1.0, 2.0])  # -0.5, +0.3
        assert metrics.jitter == pytest.approx(0.8)

    def test_mean_lateness(self):
        metrics = scored([0.9, 2.1], [1.0, 2.0])
        assert metrics.mean_lateness == pytest.approx(0.0)

    def test_empty_metrics(self):
        metrics = ContinuityMetrics()
        assert metrics.continuous
        assert metrics.miss_ratio == 0.0
        assert metrics.jitter == 0.0
        assert metrics.mean_lateness == 0.0

