"""End-to-end service sessions: MRS requests → round service → metrics.

This is the wiring layer the §5 prototype calls "the file system": it
takes PLAY requests admitted by the rope server, flattens them to
playback plans, builds the §3.4 round-robin service with the admission
controller's k, runs the simulation, and returns per-request continuity
metrics.  A staged transition is a per-round k,
``RoundRobinService(drive, staged_k_schedule(k_old, steps))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.buffering import buffers_for_average_continuity
from repro.errors import HeadFailureError, ParameterError
from repro.faults.recovery import RecoveryPolicy
from repro.rope.server import (
    FetchColumns,
    MultimediaRopeServer,
    PlaybackPlan,
)
from repro.service.rounds import RoundRobinService, StreamState
from repro.sim.metrics import ContinuityMetrics

__all__ = ["SessionResult", "PlaybackSession", "staged_k_schedule"]


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one service session."""

    metrics: Dict[str, ContinuityMetrics]
    rounds: int
    k_used: int
    head_failure: Optional[HeadFailureError] = None
    degraded_n_max: Optional[int] = None

    @property
    def all_continuous(self) -> bool:
        """True when every request played without a single miss."""
        return all(m.continuous for m in self.metrics.values())

    @property
    def total_misses(self) -> int:
        """Summed deadline misses across requests."""
        return sum(m.misses for m in self.metrics.values())

    @property
    def total_skips(self) -> int:
        """Summed fault-recovery skips across requests."""
        return sum(m.skips for m in self.metrics.values())

    def summary(self) -> str:
        """Canonical multi-line rendering (byte-stable; see
        :meth:`ContinuityMetrics.summary`), one line per request in
        request-id order."""
        return "\n".join(
            self.metrics[rid].summary() for rid in sorted(self.metrics)
        )


def staged_k_schedule(
    k_initial: int, steps: Sequence[Tuple[int, int]]
) -> Callable[[int, int], int]:
    """Build a k schedule from staged transitions.

    Parameters
    ----------
    k_initial:
        k for round 0.
    steps:
        ``(round_number, k)`` pairs, ascending; from that round on, the
        given k applies.  The paper's step-of-1 transition expands to
        consecutive rounds each raising k by one.
    """
    if k_initial < 1:
        raise ParameterError(f"k_initial must be >= 1, got {k_initial}")
    ordered = sorted(steps)

    def schedule(round_number: int, active: int) -> int:
        k = k_initial
        for start_round, value in ordered:
            if round_number >= start_round:
                k = value
        return k

    return schedule


class PlaybackSession:
    """Runs admitted PLAY requests through the round-robin service.

    Parameters
    ----------
    server:
        The rope server whose storage manager owns the drive and the
        admission controller; display buffers are sized for its
        storage manager's architecture (2k for pipelined, §3.3.2).
    recovery:
        Fault-recovery policy forwarded to the round service (applies
        only when the drive carries a fault injector).
    obs:
        Optional :class:`~repro.obs.Observability` handle forwarded to
        the round service and attached to the drive for the run.
        Defaults to the storage manager's own observer (if any), so one
        handle wired at MSM construction observes every session.
    """

    def __init__(
        self,
        server: MultimediaRopeServer,
        recovery: Optional[RecoveryPolicy] = None,
        obs=None,
    ):
        self.server = server
        self.recovery = recovery
        self.obs = obs if obs is not None else server.msm.obs
        self._degraded_n_max: Optional[int] = None

    def _on_head_failure(self, fault: HeadFailureError) -> None:
        """Freeze admission the moment the head dies mid-round, so no
        *new* request is admitted against a mechanism that is gone."""
        self._degraded_n_max = self.server.msm.revalidate_admission(
            heads_lost=1
        )

    def stream(self, request_id: str, k: int, fetches: FetchColumns) -> StreamState:
        """*request_id*'s stream of *fetches* (its :meth:`fetch_sequence`)
        at k: its display buffers sized for k."""
        capacity = buffers_for_average_continuity(self.server.msm.architecture, k)
        return StreamState(
            request_id=request_id,
            fetches=fetches,
            buffer_capacity=max(capacity, 2),
        )

    def loop(self, drive, k: int) -> RoundRobinService:
        """The round loop over *drive* at k, with this session's recovery,
        head-failure hook and observer (attached to the drive)."""
        service = RoundRobinService(
            drive,
            lambda _round, _active: k,
            recovery=self.recovery,
            on_head_failure=self._on_head_failure,
            obs=self.obs,
        )
        if self.obs is not None and not drive.observed:
            drive.attach_observer(self.obs)
        return service

    def fetch_sequence(self, request_id: str) -> FetchColumns:
        """The interleaved disk-fetch sequence one request will follow.

        This is exactly the order :meth:`run` delivers the request's
        blocks in; the media server records it per session so the
        cache-equivalence tests can compare delivered sequences.
        """
        return self._interleave(self.server.playback_plan(request_id))

    @staticmethod
    def _interleave(plan: PlaybackPlan) -> FetchColumns:
        """Merge a plan's video and audio fetches into one disk sequence.

        Fetches are ordered by their cumulative playback position, so the
        round service reads each medium just ahead of its deadline —
        homogeneous blocks retrieved "for every n video blocks" (§3.3.3).
        A single-medium plan is already that sequence.
        """
        video, audio = plan.video, plan.audio
        if not video or not audio:
            return video or audio
        picks: List[Tuple[FetchColumns, int]] = []
        v_time = 0.0
        a_time = 0.0
        vi = ai = 0
        v_end, a_end = len(video), len(audio)
        while vi < v_end or ai < a_end:
            if ai >= a_end or (vi < v_end and v_time <= a_time):
                picks.append((video, vi))
                v_time += video.durations[vi]
                vi += 1
            else:
                picks.append((audio, ai))
                a_time += audio.durations[ai]
                ai += 1
        return FetchColumns(
            [medium.slots[i] for medium, i in picks],
            [medium.bits[i] for medium, i in picks],
            [medium.durations[i] for medium, i in picks],
            [medium.tokens[i] if medium.tokens else () for medium, i in picks],
        )

    def run(
        self, request_ids: Sequence[str], k: Optional[int] = None
    ) -> SessionResult:
        """Service the MRS requests *request_ids* from time 0 to done at
        *k* blocks per request per round (default: the admission
        controller's current k).  A per-round k is
        ``RoundRobinService(drive, k_schedule)``, as E3 runs it."""
        if k is None:
            k = max(1, self.server.msm.admission.current_k)
        service = self.loop(self.server.msm.drive, k)
        metrics = service.run(
            [self.stream(r, k, self.fetch_sequence(r)) for r in request_ids]
        )
        return SessionResult(
            metrics=metrics,
            rounds=service.rounds_run,
            k_used=k,
            head_failure=service.head_failure,
            degraded_n_max=self._degraded_n_max,
        )
