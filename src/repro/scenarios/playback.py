"""Single-drive playback through the rope server: ``steady`` and ``fault``.

The two observed baselines behind the ``tests/golden`` snapshots: a
continuity-clean run, and one playback over a drive with scripted
faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.obs.observer import Observability
from repro.rope import Media, MultimediaRopeServer, build_rope_server
from repro.scenarios.base import (
    Scenario,
    ScenarioRun,
    record_video,
    register,
)
from repro.service import PlaybackSession


def _record_plays(
    mrs: MultimediaRopeServer, requests: int, seconds: float, source: str
) -> List[str]:
    """Each of *requests* users records a clip and opens a PLAY on it."""
    return [
        mrs.play(
            f"user-{i}",
            record_video(mrs, f"user-{i}", seconds, f"{source}-{i}"),
            media=Media.VIDEO,
        )
        for i in range(requests)
    ]


@register
@dataclass(frozen=True)
class Steady(Scenario):
    """*requests* healthy video playbacks, round-robin.

    No faults, no admission rejections — the baseline whose snapshot
    shows what a continuity-clean run looks like (every session
    conserved, zero ``fault.*`` counters, slack comfortably positive).
    The workload is unseeded; *seed* only names the trace-id space.
    """

    name = "steady"
    smoke_sizing = {"seconds": 1.0}

    seconds: float = 4.0
    requests: int = 2
    k: int = 4

    def run(self, obs: Optional[Observability] = None) -> ScenarioRun:
        started = time.perf_counter()
        obs = obs if obs is not None else self.observability()
        mrs = build_rope_server(obs=obs)
        play_ids = _record_plays(mrs, self.requests, self.seconds, "steady")
        result = PlaybackSession(mrs).run(play_ids, k=self.k)
        return ScenarioRun(
            self, obs, result, time.perf_counter() - started, stack=mrs
        )


@register
@dataclass(frozen=True)
class Fault(Scenario):
    """One playback over a drive with scripted faults.

    Transients recover inside the retry budget (``fault.retries`` /
    ``fault.recovered_reads``), media defects each become exactly one
    skip (``fault.skips`` and a ``skipped`` terminal in the timeline),
    and an optional head failure degrades service and leaves a
    ``revalidate`` entry in the admission audit log.
    """

    name = "fault"
    smoke_sizing = {"seconds": 2.0}

    seconds: float = 6.0
    transient: int = 4
    defects: int = 2
    retry_budget: int = 2
    k: int = 4
    head_failure_at_op: Optional[int] = None

    def run(self, obs: Optional[Observability] = None) -> ScenarioRun:
        started = time.perf_counter()
        obs = obs if obs is not None else self.observability()
        mrs = build_rope_server(obs=obs)
        play_ids = _record_plays(mrs, 1, self.seconds, "faulted")
        plan = FaultPlan.random(
            seed=self.seed,
            slots=[
                fetch.slot
                for fetch in mrs.playback_plan(play_ids[0]).video
                if fetch.slot is not None
            ],
            transient=self.transient,
            defects=self.defects,
            head_failure_at_op=self.head_failure_at_op,
        )
        mrs.msm.drive.attach_injector(FaultInjector(plan))
        session = PlaybackSession(
            mrs, recovery=RecoveryPolicy(retry_budget=self.retry_budget)
        )
        result = session.run(play_ids, k=self.k)
        return ScenarioRun(
            self, obs, result, time.perf_counter() - started, stack=mrs
        )
