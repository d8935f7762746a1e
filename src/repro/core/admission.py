"""Admission control for multiple concurrent requests (§3.4).

To service n active storage/retrieval requests the file system proceeds in
**rounds**, transferring ``k_i`` consecutive blocks for request i before
switching to the next.  Switching between requests may cost up to the
maximum seek time (strands of different requests have no positional
relationship), so the time spent on request i in a round is::

    θ_i = θ_i^s + θ_i^t
    θ_i^s = l_seek_max + η_i·s_i/R_dr            (Eq. 7: switch + 1st block)
    θ_i^t = (k_i−1)·(l_ds_avg + η_i·s_i/R_dr)    (Eq. 8: remaining blocks)

Continuity holds iff the whole round fits inside the playback duration of
the *fastest-draining* request (Eq. 11)::

    Σ_i θ_i  ≤  min_i (k_i · η_i / R_i)

Under the paper's simplifying assumptions (all k_i equal; per-request
granularities/frame sizes/scatterings replaced by their averages), with

    α = l_seek_max + η̄·s̄/R_dr     (Eq. 12 — maximum scattering per block)
    β = l_ds_avg  + η̄·s̄/R_dr     (Eq. 13 — average scattering per block)
    γ = min_i (η_i / R_i)          (Eq. 14 — fastest block drain)

Eq. (11) reduces to Eq. (15), ``n·α + n·(k−1)·β ≤ k·γ``, giving
(Eq. 16) ``k ≥ n(α−β)/(γ−nβ)`` — meaningful iff γ > nβ — and the
capacity bound (Eq. 17) ``n_max = ⌈γ/β⌉ − 1``.

**Transitions.**  Admitting request n+1 usually raises k.  During the
changeover round, k_new blocks are transferred while only k_old blocks'
worth of data sits in display buffers, so Eq. (15) alone does not protect
the transition.  The paper's fix: compute k from the stricter Eq. (18),
``n·α + n·k·β ≤ k·γ`` ⇒ ``k ≥ nα/(γ−nβ)``, and grow k *in steps of 1* —
each step's extra transfer time is then covered by the previous step's
buffered playback, "an admission control algorithm that guarantees both
transient and steady state continuity."  :class:`AdmissionController`
implements exactly this algorithm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.symbols import BlockModel, DiskParameters
from repro.errors import AdmissionRejected, ParameterError
from repro.obs.audit import AdmissionAuditLog

__all__ = [
    "RequestDescriptor",
    "ServiceParameters",
    "service_parameters",
    "k_steady",
    "k_transition",
    "n_max",
    "round_time",
    "round_feasible",
    "solve_heterogeneous_k",
    "TransitionPlan",
    "AdmissionDecision",
    "AdmissionController",
]


@dataclass(frozen=True)
class RequestDescriptor:
    """The admission-relevant face of one PLAY/RECORD request.

    Attributes
    ----------
    block:
        Block model of the strand being streamed (granularity η_i, unit
        size s_i, unit rate R_i).
    scattering_avg:
        Average separation between successive blocks of this request's
        strand on disk, seconds (``l_ds_avg`` for this strand).
    """

    block: BlockModel
    scattering_avg: float

    def __post_init__(self) -> None:
        if self.scattering_avg < 0:
            raise ParameterError(
                f"scattering_avg must be >= 0, got {self.scattering_avg}"
            )

    @property
    def block_playback(self) -> float:
        """Playback duration of one block, ``η_i / R_i`` seconds."""
        return self.block.playback_duration

    def switch_time(self, disk: DiskParameters) -> float:
        """θ_i^s (Eq. 7): maximum seek plus first-block transfer."""
        return disk.seek_max + disk.transfer_time(self.block.block_bits)

    def continue_time(self, disk: DiskParameters, k: int) -> float:
        """θ_i^t (Eq. 8): transfer of the remaining (k−1) blocks."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        per_block = self.scattering_avg + disk.transfer_time(self.block.block_bits)
        return (k - 1) * per_block

    def service_time(self, disk: DiskParameters, k: int) -> float:
        """θ_i (Eq. 9): total time spent on this request per round."""
        return self.switch_time(disk) + self.continue_time(disk, k)


@dataclass(frozen=True)
class ServiceParameters:
    """The (α, β, γ) triple of Eqs. (12)–(14) for a request set."""

    alpha: float
    beta: float
    gamma: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError(f"n must be >= 0, got {self.n}")
        if self.alpha < self.beta:
            raise ParameterError(
                f"alpha ({self.alpha}) < beta ({self.beta}): requires "
                "l_seek_max >= average scattering, which the disk model "
                "guarantees — check the request scattering values"
            )


def service_parameters(
    requests: Sequence[RequestDescriptor], disk: DiskParameters
) -> ServiceParameters:
    """Compute (α, β, γ) from the active request set (Eqs. 12–14).

    Per the paper, per-request block sizes and scatterings are replaced by
    their averages across the request set; γ is the minimum per-block
    playback duration (the fastest-draining request governs the round).
    """
    n = len(requests)
    if n == 0:
        raise ParameterError("service_parameters requires at least one request")
    mean_block_bits = sum(r.block.block_bits for r in requests) / n
    mean_scattering = sum(r.scattering_avg for r in requests) / n
    transfer = disk.transfer_time(mean_block_bits)
    alpha = disk.seek_max + transfer
    beta = min(mean_scattering, disk.seek_max) + transfer
    gamma = min(r.block_playback for r in requests)
    return ServiceParameters(alpha=alpha, beta=beta, gamma=gamma, n=n)


#: Relative tolerance for the γ − nβ feasibility boundary: a headroom
#: smaller than γ·ε is floating-point noise, not real capacity.
_HEADROOM_EPSILON = 1e-9


def _headroom(params: ServiceParameters) -> float:
    """γ − n·β; positive iff Eq. (16)/(18) have a meaningful solution.

    Values within floating-point noise of zero are clamped to zero so
    the capacity boundary is decided consistently with Eq. (17).
    """
    head = params.gamma - params.n * params.beta
    if head <= params.gamma * _HEADROOM_EPSILON:
        return 0.0
    return head


def k_steady(params: ServiceParameters) -> int:
    """Steady-state blocks-per-round k from Eq. (16).

    ``k = ⌈ n(α−β) / (γ − nβ) ⌉``, clamped to at least 1 (a round must
    move at least one block per request).

    Raises
    ------
    AdmissionRejected
        If γ ≤ n·β, i.e. n exceeds the Eq.-(17) capacity.
    """
    head = _headroom(params)
    if head <= 0:
        raise AdmissionRejected(
            f"no feasible k: n={params.n} exceeds capacity "
            f"(gamma={params.gamma:.6f} <= n*beta={params.n * params.beta:.6f})",
            active=params.n,
            n_max=n_max(params),
        )
    k = math.ceil(params.n * (params.alpha - params.beta) / head)
    return max(1, k)


def k_transition(params: ServiceParameters) -> int:
    """Transition-safe blocks-per-round k from Eq. (18).

    ``k = ⌈ nα / (γ − nβ) ⌉`` — strictly ≥ the Eq. (16) value, and safe to
    approach in steps of 1 while requests are already streaming.
    """
    head = _headroom(params)
    if head <= 0:
        raise AdmissionRejected(
            f"no feasible transition k: n={params.n} exceeds capacity",
            active=params.n,
            n_max=n_max(params),
        )
    k = math.ceil(params.n * params.alpha / head)
    return max(1, k)


def n_max(params: ServiceParameters) -> int:
    """Maximum simultaneous requests, Eq. (17): ``⌈γ/β⌉ − 1``."""
    return math.ceil(params.gamma / params.beta) - 1


def round_time(
    requests: Sequence[RequestDescriptor],
    disk: DiskParameters,
    k_values: Sequence[int],
) -> float:
    """Exact duration of one service round (Eq. 10): ``Σ_i θ_i``."""
    if len(requests) != len(k_values):
        raise ParameterError(
            f"{len(requests)} requests but {len(k_values)} k values"
        )
    return sum(
        request.service_time(disk, k)
        for request, k in zip(requests, k_values)
    )


def round_feasible(
    requests: Sequence[RequestDescriptor],
    disk: DiskParameters,
    k_values: Sequence[int],
) -> bool:
    """The general continuity test of Eq. (11) with per-request k_i.

    ``Σ_i θ_i ≤ min_i (k_i · η_i / R_i)`` — the round must finish before
    the request with the least buffered playback time drains.
    """
    if not requests:
        return True
    duration = round_time(requests, disk, k_values)
    budget = min(
        k * request.block_playback
        for request, k in zip(requests, k_values)
    )
    return duration <= budget


def solve_heterogeneous_k(
    requests: Sequence[RequestDescriptor],
    disk: DiskParameters,
    budget_limit: float = 300.0,
) -> Optional[List[int]]:
    """Per-request k_i satisfying the general Eq. (11), or None.

    The paper stops at uniform k over averaged parameters
    ("Determination of k1, k2, ..., kn in this most general formulation
    is beyond the scope of this paper"); this solver handles the general
    case for mixed workloads, where uniform-k averaging wastes capacity
    on slow-draining (e.g. audio) requests.

    Method: parametrize by the round budget B.  Setting
    ``k_i = ⌈B / T_i⌉`` (T_i the request's block playback duration)
    guarantees ``min_i k_i·T_i ≥ B``, and the round duration
    ``Σ_i θ_i(k_i)`` is non-decreasing in B, so Eq. (11) holds iff
    ``round(B) ≤ B`` — a one-dimensional feasibility problem solved by
    bisection on the smallest feasible B (smallest k_i ⇒ smallest
    startup latency, the §3.4 preference).

    Returns the k_i list, or None when no budget up to *budget_limit*
    seconds works (the mix exceeds capacity).
    """
    if not requests:
        return []

    def k_for(budget: float) -> List[int]:
        return [
            max(1, math.ceil(budget / request.block_playback))
            for request in requests
        ]

    def feasible(budget: float) -> bool:
        ks = k_for(budget)
        return round_time(requests, disk, ks) <= min(
            k * request.block_playback
            for k, request in zip(ks, requests)
        )

    low = min(request.block_playback for request in requests)
    high = low
    while not feasible(high):
        high *= 2.0
        if high > budget_limit:
            return None
    # Bisect to the smallest feasible budget (k values are step
    # functions of B; 40 iterations pin B far below one block period).
    for _ in range(40):
        mid = (low + high) / 2.0
        if feasible(mid):
            high = mid
        else:
            low = mid
    return k_for(high)


@dataclass(frozen=True)
class TransitionPlan:
    """How to move the service loop from k_old to k_new safely.

    Attributes
    ----------
    k_old:
        Blocks per round before the change.
    k_new:
        Target blocks per round (Eq. 18 value for the new request set).
    steps:
        The intermediate k values to run, one round each, in order.
        Empty when k_new ≤ k_old (shrinking k is immediately safe: a
        smaller round always finishes within the old round's budget).
    """

    k_old: int
    k_new: int
    steps: Tuple[int, ...]

    @property
    def rounds_required(self) -> int:
        """Rounds spent in transition before steady state resumes."""
        return len(self.steps)


def _plan_transition(k_old: int, k_new: int) -> TransitionPlan:
    if k_new > k_old:
        steps = tuple(range(k_old + 1, k_new + 1))
    else:
        steps = ()
    return TransitionPlan(k_old=k_old, k_new=k_new, steps=steps)


@dataclass(frozen=True)
class AdmissionDecision:
    """Result of a successful admission."""

    request_id: int
    params: ServiceParameters
    k: int
    transition: TransitionPlan


@dataclass
class AdmissionController:
    """Stateful §3.4 admission controller for a file server.

    Tracks the active request set, the current blocks-per-round value, and
    produces step-of-1 transition plans on every admission.  All k values
    come from the transition-safe Eq. (18), which the paper adopts for the
    final algorithm ("using Equation (18) to determine k, and increasing
    it in steps of 1, yields an admission control algorithm that
    guarantees both transient and steady state continuity").

    Parameters
    ----------
    disk:
        The disk the server schedules.
    max_k:
        Upper bound on blocks-per-round the server will operate at.
        Near capacity, Eq. (18)'s k diverges (γ − nβ → 0⁺), and with it
        the startup latency and buffering; a request whose admission
        would push k beyond this bound is rejected as effectively at
        capacity ("it is desirable to use the minimum possible value of
        k", §3.4).
    audit:
        Optional :class:`~repro.obs.audit.AdmissionAuditLog`; when set,
        every admit/reject is recorded with the exact inequality and
        operand values the verdict turned on.
    """

    disk: DiskParameters
    max_k: int = 10_000
    audit: Optional[AdmissionAuditLog] = None
    _active: Dict[int, RequestDescriptor] = field(default_factory=dict)
    _k: int = 0
    _ids: "itertools.count[int]" = field(default_factory=itertools.count)

    @property
    def active_count(self) -> int:
        """Number of requests currently admitted."""
        return len(self._active)

    @property
    def current_k(self) -> int:
        """Blocks per round the service loop should currently use."""
        return self._k

    @property
    def active_requests(self) -> Dict[int, RequestDescriptor]:
        """Snapshot of the admitted request set keyed by request ID."""
        return dict(self._active)

    def freeze(self) -> None:
        """No mechanism is left to serve from: every later request would
        need k ≥ 1 > ``max_k``, so it is refused as at its k bound."""
        self.max_k = 0

    def parameters(
        self, extra: Optional[RequestDescriptor] = None
    ) -> ServiceParameters:
        """(α, β, γ) for the active set, optionally plus a candidate."""
        requests: List[RequestDescriptor] = list(self._active.values())
        if extra is not None:
            requests.append(extra)
        return service_parameters(requests, self.disk)

    def capacity(self, candidate: RequestDescriptor) -> int:
        """n_max if the workload looked like *candidate* plus the active set."""
        return n_max(self.parameters(extra=candidate))

    def can_admit(self, candidate: RequestDescriptor) -> bool:
        """Non-mutating admission test for *candidate*."""
        params = self.parameters(extra=candidate)
        return _headroom(params) > 0

    def admit(self, candidate: RequestDescriptor) -> AdmissionDecision:
        """Admit *candidate* or raise :class:`AdmissionRejected`.

        On success the controller's request set and current k are updated;
        the returned decision carries the transition plan the service loop
        must execute (grow k by 1 per round) before the new request's
        transfers begin.
        """
        params = self.parameters(extra=candidate)
        if _headroom(params) <= 0:
            self._audit_headroom(params, satisfied=False)
            raise AdmissionRejected(
                f"request rejected: admitting it would make n={params.n} "
                f"exceed n_max={n_max(params)}",
                active=self.active_count,
                n_max=n_max(params),
            )
        new_k = k_transition(params)
        if new_k > self.max_k:
            if self.audit is not None:
                self.audit.record(
                    "reject",
                    f"candidate(n={params.n})",
                    "k <= max_k",
                    {
                        "k": new_k,
                        "max_k": self.max_k,
                        "n": params.n,
                        "n_max": n_max(params),
                    },
                    satisfied=False,
                    detail="Eq.-18 k diverging near capacity",
                )
            raise AdmissionRejected(
                f"request rejected: k={new_k} would exceed the server's "
                f"operating bound {self.max_k} (effectively at capacity)",
                active=self.active_count,
                n_max=n_max(params),
                cause="k_bound",
            )
        plan = _plan_transition(self._k, new_k)
        request_id = next(self._ids)
        self._active[request_id] = candidate
        self._k = max(new_k, 1)
        self._audit_headroom(
            params, satisfied=True,
            subject=f"request-{request_id}",
            detail=f"k={self._k} transition_steps={len(plan.steps)}",
        )
        return AdmissionDecision(
            request_id=request_id, params=params, k=self._k, transition=plan
        )

    def _audit_headroom(
        self,
        params: ServiceParameters,
        satisfied: bool,
        subject: Optional[str] = None,
        detail: str = "",
    ) -> None:
        """Log the Eq.-(15) headroom verdict with its exact operands.

        The logged constraint mirrors :func:`_headroom`'s clamped test
        bit-for-bit, so re-evaluating it from the operands reproduces
        the decision.
        """
        if self.audit is None:
            return
        self.audit.record(
            "admit" if satisfied else "reject",
            subject or f"candidate(n={params.n})",
            "gamma - n * beta > gamma * epsilon",
            {
                "alpha": params.alpha,
                "beta": params.beta,
                "gamma": params.gamma,
                "n": params.n,
                "epsilon": _HEADROOM_EPSILON,
                "n_max": n_max(params),
            },
            satisfied=satisfied,
            detail=detail or f"n_max={n_max(params)}",
        )

    def release(self, request_id: int) -> TransitionPlan:
        """Remove a completed/stopped request and shrink k immediately.

        Shrinking k is transition-safe without staging: the next (smaller)
        round necessarily finishes within the playback time the previous
        (larger) round buffered.
        """
        try:
            del self._active[request_id]
        except KeyError:
            raise ParameterError(
                f"unknown request id {request_id!r}"
            ) from None
        old_k = self._k
        if self._active:
            self._k = k_transition(self.parameters())
        else:
            self._k = 0
        return _plan_transition(old_k, self._k)
