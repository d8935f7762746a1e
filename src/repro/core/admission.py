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
implements exactly this algorithm, and — with ``per_request`` — the
general Eq. (11) with a k_i per request (:func:`solve_heterogeneous_k`).
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


#: Largest round budget (s) the Eq.-(11) search tries before it gives up.
_BUDGET_LIMIT = 300.0


def solve_heterogeneous_k(
    requests: Sequence[RequestDescriptor],
    disk: DiskParameters,
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

    Returns the k_i list, or None when no budget up to ``_BUDGET_LIMIT``
    seconds works (the mix exceeds capacity).
    """
    if not requests:
        return []
    ks, feasible = _budget_search(requests, disk)
    return ks if feasible else None


def _budget_search(
    requests: Sequence[RequestDescriptor], disk: DiskParameters
) -> Tuple[List[int], bool]:
    """:func:`solve_heterogeneous_k`'s search: ``(k_i, True)`` at the
    smallest feasible budget, else ``(k_i, False)`` at the last budget
    probed, where Eq. (11) is false."""

    def k_for(budget: float) -> List[int]:
        return [
            max(1, math.ceil(budget / request.block_playback))
            for request in requests
        ]

    low = min(request.block_playback for request in requests)
    high = low
    ks = k_for(high)
    while not round_feasible(requests, disk, ks):
        if high * 2.0 > _BUDGET_LIMIT:
            return ks, False
        high *= 2.0
        ks = k_for(high)
    # Bisect to the smallest feasible budget (k values are step
    # functions of B; 40 iterations pin B far below one block period).
    for _ in range(40):
        mid = (low + high) / 2.0
        if round_feasible(requests, disk, k_for(mid)):
            high = mid
        else:
            low = mid
    return k_for(high), True


@dataclass(frozen=True)
class TransitionPlan:
    """How to move the service loop from k_old to k_new safely.

    Attributes
    ----------
    k_old:
        Blocks per round before the change.
    k_new:
        Target blocks per round (the largest k_i solved for the new
        request set: Eq. 18's k in uniform mode).
    steps:
        The intermediate k values to run, one round each, in order.
        Empty when k_new ≤ k_old (shrinking k is immediately safe: a
        smaller round always finishes within the old round's budget).
    """

    k_old: int
    k_new: int
    steps: Tuple[int, ...]


def _plan_transition(k_old: int, k_new: int) -> TransitionPlan:
    if k_new > k_old:
        steps = tuple(range(k_old + 1, k_new + 1))
    else:
        steps = ()
    return TransitionPlan(k_old=k_old, k_new=k_new, steps=steps)


@dataclass(frozen=True)
class AdmissionDecision:
    """Result of a successful admission: *k* is the largest k_i in force
    after it, and *transition* moves the round loop's k to it."""

    request_id: int
    params: ServiceParameters
    k: int
    transition: TransitionPlan


@dataclass
class AdmissionController:
    """Stateful §3.4 admission controller for a file server.

    Tracks the active request set and a k_i for each request, and
    produces step-of-1 transition plans on every admission.  By default
    every k_i is the transition-safe Eq.-(18) k, which the paper adopts
    for the final algorithm ("using Equation (18) to determine k, and
    increasing it in steps of 1, yields an admission control algorithm
    that guarantees both transient and steady state continuity").

    Parameters
    ----------
    disk:
        The disk the server schedules.
    per_request:
        Solve the general Eq. (11) for a k_i per request instead
        (:func:`solve_heterogeneous_k`): admits mixed audio+video
        populations the averaged model rejects, but solves the steady
        state only — n identical requests get Eq. (16)'s k.
    max_k:
        Upper bound on blocks-per-round the server will operate at.
        Near capacity, k diverges (γ − nβ → 0⁺ for Eq. 18), and with it
        the startup latency and buffering; a request whose admission
        would push any k_i beyond this bound is rejected as effectively
        at capacity ("it is desirable to use the minimum possible value
        of k", §3.4).
    audit:
        Optional :class:`~repro.obs.audit.AdmissionAuditLog`; when set,
        every admit/reject is recorded with the exact inequality and
        operand values the verdict turned on.
    """

    disk: DiskParameters
    per_request: bool = False
    max_k: int = 10_000
    audit: Optional[AdmissionAuditLog] = None
    _active: Dict[int, RequestDescriptor] = field(default_factory=dict)
    _k: Dict[int, int] = field(default_factory=dict)
    _ids: "itertools.count[int]" = field(default_factory=itertools.count)

    @property
    def active_count(self) -> int:
        """Number of requests currently admitted."""
        return len(self._active)

    @property
    def current_k(self) -> int:
        """Blocks per round the service loop should currently use: the
        largest k_i in force (streams may carry their own via
        ``StreamState.k_override``)."""
        return max(self._k.values(), default=0)

    def k_for(self, request_id: int) -> int:
        """The k_i currently assigned to a request."""
        try:
            return self._k[request_id]
        except KeyError:
            raise ParameterError(
                f"unknown request id {request_id!r}"
            ) from None

    def k_values(self) -> Dict[int, int]:
        """Snapshot of every active request's k_i."""
        return dict(self._k)

    @property
    def active_requests(self) -> Dict[int, RequestDescriptor]:
        """Snapshot of the admitted request set keyed by request ID."""
        return dict(self._active)

    def freeze(self) -> None:
        """No mechanism is left to serve from: every later request would
        need k ≥ 1 > ``max_k``, so it is refused as at its k bound."""
        self.max_k = 0

    def capacity(self, candidate: RequestDescriptor) -> int:
        """n_max if the workload looked like *candidate* plus the active set."""
        mix = [*self._active.values(), candidate]
        return n_max(service_parameters(mix, self.disk))

    def _solve(
        self, requests: List[RequestDescriptor]
    ) -> Tuple[ServiceParameters, List[int], bool]:
        """(α, β, γ) of *requests*, a k per request, and whether those k
        satisfy continuity.  When none do, per-request mode returns the
        last k_i its search probed and uniform mode an empty list."""
        params = service_parameters(requests, self.disk)
        if self.per_request:
            return (params, *_budget_search(requests, self.disk))
        if _headroom(params) <= 0:
            return params, [], False
        return params, [k_transition(params)] * params.n, True

    def can_admit(self, candidate: RequestDescriptor) -> bool:
        """Non-mutating: True exactly when :meth:`admit` would succeed."""
        _, ks, feasible = self._solve([*self._active.values(), candidate])
        return feasible and max(ks) <= self.max_k

    def admit(self, candidate: RequestDescriptor) -> AdmissionDecision:
        """Admit *candidate* or raise :class:`AdmissionRejected`.

        On success the controller's request set and k values are updated;
        the returned decision carries the transition plan the service loop
        must execute (grow k by 1 per round) before the new request's
        transfers begin.
        """
        mix = [*self._active.values(), candidate]
        params, ks, feasible = self._solve(mix)
        if not feasible:
            self._audit_solve(mix, params, ks)
            if self.per_request:
                raise AdmissionRejected(
                    "request rejected: no per-request k satisfies Eq. (11) "
                    f"for the {len(mix)}-request mix",
                    active=self.active_count,
                    n_max=self.active_count,
                )
            raise AdmissionRejected(
                f"request rejected: admitting it would make n={params.n} "
                f"exceed n_max={n_max(params)}",
                active=self.active_count,
                n_max=n_max(params),
            )
        new_k = max(ks)
        if new_k > self.max_k:
            # A frozen controller (max_k 0) has no disk head left at all.
            frozen = not self.max_k
            capacity = 0 if frozen else n_max(params)
            solved = "Eq.-(11) k_i" if self.per_request else "Eq.-18 k"
            if self.audit is not None:
                self.audit.record(
                    "reject",
                    f"candidate(n={params.n})",
                    "k <= max_k",
                    {"k": new_k, "max_k": self.max_k,
                     "n": params.n, "n_max": capacity},
                    satisfied=False,
                    detail="no disk head left: admission frozen" if frozen
                    else f"{solved} diverging near capacity",
                )
            raise AdmissionRejected(
                f"request rejected: k={new_k} would exceed the server's "
                f"operating bound {self.max_k} ("
                f"{'no disk head left' if frozen else 'effectively at capacity'})",
                active=self.active_count,
                n_max=capacity,
                cause="k_bound",
            )
        plan = _plan_transition(self.current_k, new_k)
        request_id = next(self._ids)
        self._active[request_id] = candidate
        self._k = dict(zip(self._active, ks))
        self._audit_solve(mix, params, ks, request_id, plan)
        return AdmissionDecision(
            request_id=request_id, params=params, k=new_k, transition=plan
        )

    def _audit_solve(
        self,
        mix: List[RequestDescriptor],
        params: ServiceParameters,
        ks: List[int],
        request_id: Optional[int] = None,
        plan: Optional[TransitionPlan] = None,
    ) -> None:
        """Log the solve's verdict — an admit when *request_id* is given —
        with operands that reproduce it when the row is re-evaluated:
        the Eq.-(15) headroom test mirroring :func:`_headroom` bit for
        bit, or in per-request mode Eq. (11) at the k_i the solve ended
        on (a reject's: the search's last probe)."""
        if self.audit is None:
            return
        satisfied = request_id is not None
        verdict = "admit" if satisfied else "reject"
        if self.per_request:
            self.audit.record(
                verdict,
                f"mix(n={len(mix)})",
                "round_seconds <= playback_budget_seconds",
                {
                    "round_seconds": round_time(mix, self.disk, ks),
                    "playback_budget_seconds": min(
                        k * r.block_playback for k, r in zip(ks, mix)
                    ),
                    "n": len(mix),
                },
                satisfied=satisfied,
                detail=f"k_values={ks}",
            )
            return
        self.audit.record(
            verdict,
            f"request-{request_id}" if satisfied
            else f"candidate(n={params.n})",
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
            detail=f"k={max(ks)} transition_steps={len(plan.steps)}"
            if satisfied else f"n_max={n_max(params)}",
        )

    def release(self, request_id: int) -> TransitionPlan:
        """Remove a completed/stopped request and shrink k immediately.

        Shrinking k is transition-safe without staging: the next (smaller)
        round necessarily finishes within the playback time the previous
        (larger) round buffered.  Releasing never raises for a known id:
        when the survivors have no solution (degraded-mode revalidation
        shrank the disk under them), they keep the k they play at.
        """
        if request_id not in self._active:
            raise ParameterError(f"unknown request id {request_id!r}")
        old_k = self.current_k
        del self._active[request_id]
        del self._k[request_id]
        if self._active:
            _, ks, feasible = self._solve(list(self._active.values()))
            if feasible:
                self._k = dict(zip(self._active, ks))
        return _plan_transition(old_k, self.current_k)
