"""The bare §3.4 service loop at chosen scale points.

``scale`` builds :class:`~repro.service.rounds.StreamState` plans
directly (seeded strided slot placement) instead of recording media
through the rope server: the point is to load the round loop and the
drive model — the hot paths — with exactly controlled block counts.  It
runs a fixed k with no admission control, so it promises delivery, not
continuity: the unobserved-loop microbench behind the op-count and
equivalence tests, not a throughput measurement (that is
``python -m bench run``, on loads admission accepted).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.disk.drive import SimulatedDrive
from repro.disk.factory import DRIVE_CONFIGS, build_drive_config
from repro.errors import ParameterError
from repro.obs.observer import Observability
from repro.rope.server import FetchColumns
from repro.scenarios.base import Scenario, ScenarioRun, register
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.service.session import SessionResult

ARRIVALS = ("uniform", "staggered")


@register
@dataclass(frozen=True)
class Scale(Scenario):
    """*streams* concurrent requests of *blocks_per_stream* blocks each.

    ``arrivals="staggered"`` joins streams in admission order over the
    early playback, loading the mid-run admission path; *label* prefixes
    the stream ids (it shows in per-stream profile rollups).
    """

    name = "scale"
    smoke_sizing = {
        "streams": 4, "blocks_per_stream": 16, "label": "profile-smoke",
    }

    seed: int = 0
    streams: int = 1000
    blocks_per_stream: int = 1000
    k: int = 4
    buffer_capacity: int = 8
    drive: str = "testbed"
    arrivals: str = "uniform"
    #: Playback seconds per block (the testbed's ~4-frame block at 30 fps).
    block_seconds: float = 4 / 30.0
    label: str = "profiled-scale"

    def __post_init__(self) -> None:
        self._require_counts("streams", "blocks_per_stream", "k")
        if self.drive not in DRIVE_CONFIGS:
            raise ParameterError(
                f"unknown drive config {self.drive!r}; known: "
                f"{', '.join(sorted(DRIVE_CONFIGS))}"
            )
        if self.arrivals not in ARRIVALS:
            raise ParameterError(
                f"unknown arrivals mode {self.arrivals!r}; known: "
                f"{', '.join(ARRIVALS)}"
            )
        if not 0 < self.block_seconds < math.inf:
            raise ParameterError(
                "block_seconds must be positive and finite, got "
                f"{self.block_seconds}"
            )

    def observability(self, profile: bool = False) -> Observability:
        """Off, so the loop is timed bare; profiling wants every access
        and as little else as possible."""
        if profile:
            return Observability.for_profiling(seed=self.seed)
        return Observability(enabled=False)

    def profile_section(self, run: ScenarioRun) -> Dict[str, object]:
        """The point's parameters and loop totals ride along with the
        attribution."""
        metrics = run.metrics()
        return {
            "params": {
                key: getattr(self, key) for key in (
                    "arrivals", "blocks_per_stream", "buffer_capacity",
                    "drive", "k", "seed", "streams",
                )
            },
            "rounds": metrics["rounds"],
            "blocks_delivered": metrics["blocks_delivered"],
            "misses": metrics["misses"],
            **super().profile_section(run),
        }

    def build_streams(
        self, drive: SimulatedDrive
    ) -> Tuple[List[StreamState], List[Admission]]:
        """Materialize the streams against a concrete drive."""
        rng = random.Random(self.seed)
        total_slots, blocks = drive.slots, range(self.blocks_per_stream)
        initial: List[StreamState] = []
        admissions: List[Admission] = []
        for i in range(self.streams):
            base = rng.randrange(total_slots)
            stride = rng.randrange(1, 9)
            stream = StreamState(
                request_id=f"{self.label}-s{i:05d}",
                fetches=FetchColumns.uniform(
                    ((base + j * stride) % total_slots for j in blocks),
                    drive.block_bits, self.block_seconds,
                ),
                buffer_capacity=self.buffer_capacity,
            )
            if self.arrivals == "staggered" and i > 0:
                # Spread joins over the early playback, one every 2k
                # blocks' worth, capped so late joiners still overlap the
                # initial cohort.
                join = min(2 * i, 4 * self.k) * self.k * self.block_seconds
                admissions.append(Admission(join, stream))
            else:
                initial.append(stream)
        return initial, admissions

    def run(self, obs: Optional[Observability] = None) -> ScenarioRun:
        obs = obs if obs is not None else self.observability()
        mechanism = build_drive_config(self.drive)
        mechanism.profile_label = self.drive
        if obs.profiler is not None:
            # The profile is read off the stats of the drives attached.
            mechanism.attach_observer(obs)
        initial, admissions = self.build_streams(mechanism)
        service = RoundRobinService(
            mechanism, lambda _round, _n: self.k, obs=obs
        )
        metrics = service.run(initial, admissions, max_rounds=10_000_000)
        return ScenarioRun(
            scenario=self,
            obs=obs,
            result=SessionResult(
                metrics=metrics, rounds=service.rounds_run, k_used=self.k
            ),
            stack=mechanism,
        )

    def healthy(self, run: ScenarioRun) -> bool:
        """No admission test accepted this fixed-k load: it promises
        delivery, not continuity."""
        return all(m.blocks_delivered for m in run.result.metrics.values())
