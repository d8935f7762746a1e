"""Simulation substrate: continuity metrics and the event trace."""

from repro.sim.metrics import ContinuityMetrics
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "ContinuityMetrics",
    "TraceEvent",
    "Tracer",
]
