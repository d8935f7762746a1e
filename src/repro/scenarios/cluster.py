"""The sharded-VoD workload: ``cluster-scale``.

1000+ concurrent sessions over a Zipf catalog sharded on N nodes, every
session continuous at steady state (each node warms its replicas, so
the hot waves are batched and cache-admitted exactly like
``server-hot``).  With ``kill_node`` set, that node dies mid-stream by
a :class:`~repro.faults.FaultPlan` and its sessions hand off to
surviving replicas; the acceptance bar is >90% of affected sessions
resuming without a continuity break (also the ``handoff-clean`` SLO).
Every run carries the distributed-VoD analytical bounds
(:mod:`repro.cluster.bounds`) next to the measured numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.api import Media, OpenSessionRequest
from repro.cluster.bounds import bounds_for_placement
from repro.cluster.router import build_cluster
from repro.errors import ParameterError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs.observer import Observability
from repro.obs.slo import CLUSTER_SLOS
from repro.scenarios.base import Scenario, ScenarioRun, register


@register
@dataclass(frozen=True)
class ClusterScale(Scenario):
    """*sessions* popularity-weighted opens over *titles* on *nodes*.

    Title choice and arrival jitter both come from one seeded RNG;
    arrivals land inside half the batching window so each node sees its
    per-title viewers as one admission batch.  ``kill_node`` (an index,
    or None for no failure) dies ``kill_chunk / chunks`` of the way into
    the sessions' interval, and every session it was still sending
    re-opens there on the least-loaded surviving replica.
    """

    name = "cluster-scale"
    sampled = True
    #: Small enough for scripts/check.sh, yet placement, routing, a node
    #: kill and clean handoff all happen.
    smoke_sizing = {
        "nodes": 3, "sessions": 12, "titles": 4, "seconds": 1.0,
        "per_node_streams": 8, "chunks": 3, "kill_node": 1,
        "kill_chunk": 1,
    }
    nodes: int = 20
    sessions: int = 1000
    titles: int = 40
    seconds: float = 1.0
    per_node_streams: int = 75
    min_replicas: int = 2
    chunks: int = 1
    kill_node: Optional[int] = None
    kill_chunk: int = 2

    def __post_init__(self) -> None:
        # Sizes the stack itself refuses (nodes, titles, chunks, a
        # kill_node off the cluster) fail typed when it is built.
        self._require_counts("sessions")
        if self.kill_node is not None and not (
            1 <= self.kill_chunk < self.chunks
        ):
            # The kill falls strictly inside the sessions' interval.
            raise ParameterError(
                f"kill_chunk must be in [1, {self.chunks}), got "
                f"{self.kill_chunk}"
            )

    def observability(self, profile: bool = False) -> Observability:
        """Sampled observability with the cluster objective set."""
        obs = Observability.for_scale(seed=self.seed)
        obs.enable_slos(CLUSTER_SLOS)
        if profile:
            obs.enable_profiler()
        return obs

    def healthy(self, run: ScenarioRun) -> bool:
        """Every admitted session continuous, handoffs mostly clean."""
        result = run.result
        ratio = result.handoff_clean_ratio
        return result.continuous_sessions == result.admitted and (
            ratio is None or ratio > 0.9
        )

    def run(self, obs: Optional[Observability] = None) -> ScenarioRun:
        obs = obs if obs is not None else self.observability()
        plan = None
        if self.kill_node is not None:
            plan = FaultPlan([
                FaultSpec(
                    kind=FaultKind.HEAD_FAILURE,
                    at_op=self.kill_chunk,
                    drive_index=self.kill_node,
                )
            ], seed=self.seed)
        cluster, catalog = build_cluster(
            nodes=self.nodes,
            titles=self.titles,
            seconds=self.seconds,
            per_node_streams=self.per_node_streams,
            min_replicas=self.min_replicas,
            clients=[f"client-{i}" for i in range(self.sessions)],
            obs=obs,
            fault_plan=plan,
        )
        window = cluster.nodes[0].server.batch_window
        rng = random.Random(self.seed)
        weights = [title.popularity for title in catalog]
        requests = []
        demand: Dict[str, int] = {}
        for i in range(self.sessions):
            title = rng.choices(catalog, weights=weights)[0]
            requests.append(OpenSessionRequest(
                client_id=f"client-{i}",
                rope_id=title.title_id,
                arrival=rng.uniform(0.0, window / 2.0),
                media=Media.VIDEO,
            ))
            demand[title.title_id] = demand.get(title.title_id, 0) + 1
        result = cluster.serve(requests, chunks=self.chunks)
        bounds = bounds_for_placement(
            cluster.placement,
            nodes=self.nodes,
            per_node_streams=self.per_node_streams,
            per_node_titles=self.titles,
            demand=demand,
        )
        return ScenarioRun(
            self, obs, result, bounds=bounds, stack=cluster
        )
