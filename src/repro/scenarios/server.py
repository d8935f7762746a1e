"""MediaServer workloads: ``server-steady``, ``server-hot``, ``server-fault``.

The headline is ``server-hot``: the testbed disk admits only
``n_max = 3`` concurrent video streams per-request, yet the server
sustains 50 concurrent sessions over 5 hot strands — the warm-up epochs
leave every hot block resident, so the follow-up wave is batched and
cache-admitted without consuming any disk-round budget.  Run it with
``cache_blocks=0, batching=False`` for the per-request baseline.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api import OpenSessionRequest
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.obs.observer import Observability
from repro.rope import Media, MultimediaRopeServer
from repro.scenarios.base import (
    Scenario,
    ScenarioRun,
    record_video,
    register,
)
from repro.server.media_server import build_media_server


def record_strands(
    mrs: MultimediaRopeServer,
    strands: int,
    seconds: float,
    clients: Sequence[str],
    source: str,
) -> List[str]:
    """Record *strands* video ropes, playable by every listed client."""
    return [
        record_video(mrs, "librarian", seconds, f"{source}-{i}", clients)
        for i in range(strands)
    ]


def _open(client: str, rope_id: str, arrival: float = 0.0):
    return OpenSessionRequest(
        client_id=client, rope_id=rope_id, arrival=arrival,
        media=Media.VIDEO,
    )


@register
@dataclass(frozen=True)
class ServerSteady(Scenario):
    """Each client plays its own rope, no sharing.

    Every open is a batch of one and holds a real admission slot — the
    baseline snapshot a continuity-clean multi-tenant epoch produces.
    The workload is unseeded; *seed* only names the trace-id space.
    """

    name = "server-steady"
    smoke_sizing = {"seconds": 1.0}

    seconds: float = 3.0
    clients: int = 2

    def run(self, obs: Optional[Observability] = None) -> ScenarioRun:
        started = time.perf_counter()
        obs = obs if obs is not None else self.observability()
        server = build_media_server(obs)
        clients = [f"client-{i}" for i in range(self.clients)]
        rope_ids = record_strands(
            server.mrs, self.clients, self.seconds, clients, "steady"
        )
        result = server.serve(
            [_open(client, rope) for client, rope in zip(clients, rope_ids)]
        )
        return ScenarioRun(
            self, obs, result, time.perf_counter() - started, stack=server
        )


@register
@dataclass(frozen=True)
class ServerHot(Scenario):
    """Many concurrent viewers of few strands (the acceptance scenario).

    Warm-up epochs (one viewer per strand, run one at a time so the
    3-stream testbed disk admits each) leave every hot block resident in
    the cache.  The hot wave — *sessions* opens over *strands* ropes,
    arriving as seeded jitter inside half the batching window — is then
    batched per strand and **cache-admitted**: zero controller slots,
    zero disk reads, every session continuous.  ``batching=False`` runs
    with a zero window (every request its own batch).
    """

    name = "server-hot"
    sampled = True
    smoke_sizing = {"sessions": 6, "strands": 2, "seconds": 1.0}
    matrix = {**smoke_sizing, "batch_window": 0.25}
    axes = {
        "cache_blocks": "cache_blocks", "batching": "batching",
        "seeds": "seed",
    }

    sessions: int = 50
    strands: int = 5
    seconds: float = 2.0
    warm: bool = True
    cache_blocks: int = 512
    batch_window: float = 0.25
    batching: bool = True

    def __post_init__(self) -> None:
        self._require_counts("sessions", "strands")

    def cell_id(self) -> str:
        return (
            f"server-hot-s{self.sessions}x{self.strands}"
            f"-c{self.cache_blocks}"
            f"-batch{'on' if self.batching else 'off'}-seed{self.seed}"
        )

    def acceptance(self) -> bool:
        # Cache-off / batch-off variants are degraded baselines that
        # reject by §3.4 design.
        return self.cache_blocks > 0 and self.batching

    def run(self, obs: Optional[Observability] = None) -> ScenarioRun:
        started = time.perf_counter()
        obs = obs if obs is not None else self.observability()
        window = self.batch_window if self.batching else 0.0
        server = build_media_server(
            obs, cache_blocks=self.cache_blocks, batch_window=window
        )
        clients = [f"client-{i}" for i in range(self.sessions)]
        rope_ids = record_strands(
            server.mrs, self.strands, self.seconds,
            clients + ["warmer"], "hot",
        )
        warmups = ()
        if self.warm and self.cache_blocks > 0:
            warmups = tuple(
                server.serve([_open("warmer", rope_id)])
                for rope_id in rope_ids
            )
        rng = random.Random(self.seed)
        result = server.serve([
            _open(
                client, rope_ids[i % len(rope_ids)],
                rng.uniform(0.0, window / 2.0),
            )
            for i, client in enumerate(clients)
        ])
        return ScenarioRun(
            self, obs, result, time.perf_counter() - started,
            stack=server, warmups=warmups,
        )


@register
@dataclass(frozen=True)
class ServerFault(Scenario):
    """One leader + follower batch over a faulted drive.

    The batch plays a strand whose slots carry scripted transients and
    media defects.  The leader's recovered reads populate the cache
    (followers hit them); faulted reads never do — a defect skips on the
    leader *and* on the follower, because a failed read is never
    resident.  The snapshot pins the fault counters, the cache counters,
    and the audit trail together.
    """

    name = "server-fault"
    smoke_sizing = {"seconds": 1.0}

    seconds: float = 3.0
    transient: int = 4
    defects: int = 2
    retry_budget: int = 2

    def run(self, obs: Optional[Observability] = None) -> ScenarioRun:
        started = time.perf_counter()
        obs = obs if obs is not None else self.observability()
        server = build_media_server(
            obs, recovery=RecoveryPolicy(retry_budget=self.retry_budget)
        )
        clients = ["client-0", "client-1"]
        [rope_id] = record_strands(
            server.mrs, 1, self.seconds, clients, "faulted"
        )
        msm = server.mrs.msm
        plan = FaultPlan.random(
            seed=self.seed,
            slots=[
                slot
                for segment in server.mrs.get_rope(rope_id).segments
                for slot in msm.get_strand(segment.video.strand_id).slots()
                if slot is not None
            ],
            transient=self.transient,
            defects=self.defects,
        )
        msm.drive.attach_injector(FaultInjector(plan))
        result = server.serve([
            _open(client, rope_id, 0.01 * i)
            for i, client in enumerate(clients)
        ])
        return ScenarioRun(
            self, obs, result, time.perf_counter() - started, stack=server
        )
