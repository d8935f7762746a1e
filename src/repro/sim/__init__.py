"""Simulation substrate: the continuity scorer."""

from repro.sim.metrics import ContinuityMetrics

__all__ = ["ContinuityMetrics"]
