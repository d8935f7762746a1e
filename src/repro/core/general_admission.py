"""A stateful admission controller for the general Eq.-(11) form.

:class:`repro.core.admission.AdmissionController` implements the paper's
published algorithm — uniform k over averaged parameters — which is
correct but pessimistic for *mixed* workloads (§3.4 leaves the general
formulation open).  :class:`GeneralAdmissionController` closes that gap:
every admission re-solves Eq. (11) with per-request k_i via
:func:`repro.core.admission.solve_heterogeneous_k`, and staged transitions
grow each request's k_i by at most one per round, generalizing the
paper's step-of-1 argument (each step's extra transfer time per request
is covered by the playback the previous step buffered for that request).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.admission import (
    RequestDescriptor,
    round_feasible,
    round_time,
    solve_heterogeneous_k,
)
from repro.core.symbols import DiskParameters
from repro.errors import AdmissionRejected, ParameterError
from repro.obs.audit import AdmissionAuditLog

__all__ = ["GeneralAdmissionDecision", "GeneralAdmissionController"]


@dataclass(frozen=True)
class GeneralAdmissionDecision:
    """Result of a successful general admission."""

    request_id: int
    #: k_i per active request id, after this admission.
    k_values: Dict[int, int]
    #: Rounds of staged growth before the newcomer's transfers begin:
    #: max over requests of (k_new − k_old).
    transition_rounds: int


@dataclass
class GeneralAdmissionController:
    """Eq.-(11) admission with per-request k for heterogeneous mixes."""

    disk: DiskParameters
    budget_limit: float = 300.0
    audit: Optional[AdmissionAuditLog] = None
    _active: Dict[int, RequestDescriptor] = field(default_factory=dict)
    _k_values: Dict[int, int] = field(default_factory=dict)
    _ids: "itertools.count[int]" = field(default_factory=itertools.count)
    _frozen: bool = False

    @property
    def active_count(self) -> int:
        """Requests currently admitted."""
        return len(self._active)

    @property
    def active_requests(self) -> Dict[int, RequestDescriptor]:
        """Snapshot of the admitted request set keyed by request ID."""
        return dict(self._active)

    def freeze(self) -> None:
        """No mechanism is left to serve from: refuse every later request."""
        self._frozen = True

    @property
    def current_k(self) -> int:
        """Largest per-request k in force (the round loop's global k).

        Streams carry their own k_i via ``StreamState.k_override``; the
        global value only caps the loop for streams without one.
        """
        return max(self._k_values.values(), default=0)

    def k_for(self, request_id: int) -> int:
        """The k_i currently assigned to a request."""
        try:
            return self._k_values[request_id]
        except KeyError:
            raise ParameterError(
                f"unknown request id {request_id!r}"
            ) from None

    def k_values(self) -> Dict[int, int]:
        """Snapshot of every active request's k_i."""
        return dict(self._k_values)

    def can_admit(self, candidate: RequestDescriptor) -> bool:
        """Non-mutating admission test."""
        mix = list(self._active.values()) + [candidate]
        return not self._frozen and solve_heterogeneous_k(
            mix, self.disk, self.budget_limit
        ) is not None

    def admit(
        self, candidate: RequestDescriptor
    ) -> GeneralAdmissionDecision:
        """Admit *candidate* with a fresh Eq.-(11) solution, or raise."""
        if self._frozen:
            raise AdmissionRejected(
                "request rejected: admission is frozen (no disk mechanism "
                "survives)",
                active=self.active_count,
                n_max=0,
            )
        ids = list(self._active.keys())
        mix = [self._active[i] for i in ids] + [candidate]
        solution = solve_heterogeneous_k(mix, self.disk, self.budget_limit)
        if solution is None:
            self._audit_feasibility(mix, None)
            raise AdmissionRejected(
                "request rejected: no per-request k satisfies Eq. (11) "
                f"for the {len(mix)}-request mix",
                active=self.active_count,
                n_max=self.active_count,
            )
        assert round_feasible(mix, self.disk, solution)
        self._audit_feasibility(mix, solution)
        request_id = next(self._ids)
        ids.append(request_id)
        self._active[request_id] = candidate
        transition = 0
        for identifier, k_new in zip(ids, solution):
            k_old = self._k_values.get(identifier, 0)
            transition = max(transition, max(0, k_new - k_old))
            self._k_values[identifier] = k_new
        return GeneralAdmissionDecision(
            request_id=request_id,
            k_values=self.k_values(),
            transition_rounds=transition,
        )

    def _audit_feasibility(self, mix, solution) -> None:
        """Log the Eq.-(11) verdict with its recomputable operands.

        On a reject the per-request k_i are re-derived at the solver's
        budget limit — feasibility is monotone in the budget, so the
        logged inequality is false there iff no budget worked.
        """
        if self.audit is None:
            return
        import math

        def k_for(budget_value):
            return [
                max(1, math.ceil(budget_value / r.block_playback))
                for r in mix
            ]

        if solution is None:
            # Replay the solver's doubling sequence and log the last
            # infeasible point it tested, so the recorded inequality is
            # false by construction.
            b = min(r.block_playback for r in mix)
            ks = k_for(b)
            while True:
                probe = k_for(b)
                if round_time(mix, self.disk, probe) > min(
                    k * r.block_playback for k, r in zip(probe, mix)
                ):
                    ks = probe
                b *= 2.0
                if b > self.budget_limit:
                    break
        else:
            ks = list(solution)
        duration = round_time(mix, self.disk, ks)
        budget = min(
            k * r.block_playback for k, r in zip(ks, mix)
        )
        self.audit.record(
            "admit" if solution is not None else "reject",
            f"mix(n={len(mix)})",
            "round_seconds <= playback_budget_seconds",
            {
                "round_seconds": duration,
                "playback_budget_seconds": budget,
                "n": len(mix),
            },
            satisfied=solution is not None,
            detail=f"k_values={ks}",
        )

    def release(self, request_id: int) -> None:
        """Remove a request and re-solve (smaller k_i, immediately safe)."""
        if request_id not in self._active:
            raise ParameterError(f"unknown request id {request_id!r}")
        del self._active[request_id]
        del self._k_values[request_id]
        if not self._active:
            return
        ids = list(self._active.keys())
        solution = solve_heterogeneous_k(
            [self._active[i] for i in ids], self.disk, self.budget_limit
        )
        # Removing a request can only relax Eq. (11); the remaining set
        # was feasible before, so it stays solvable.
        assert solution is not None
        for identifier, k_new in zip(ids, solution):
            self._k_values[identifier] = k_new
