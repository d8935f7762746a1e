"""Recovery policies: how the service layers respond to injected faults.

The continuity requirement (§3.1) makes fault recovery a *scheduling*
problem: a retry is only worth issuing if the block can still arrive "at
or before the time of its playback".  :func:`read_with_recovery`
implements the bounded retry-with-backoff loop the round service runs:

* a :class:`TransientReadError` is retried up to ``retry_budget`` times,
  each retry charged its full (failed) access time plus ``retry_backoff``
  seconds of settle time — unless the next attempt could no longer meet
  the block's deadline, in which case the block is skipped immediately
  (a recorded glitch beats a late block *and* a blown round);
* a :class:`MediaDefectError` is never retried (the media is bad);
* a :class:`HeadFailureError` propagates, annotated with the time the
  doomed attempts consumed, so the caller can degrade service and
  revalidate admission.

Every decision is reported once, as one of the outcomes of
:data:`repro.obs.recorder.FAULTS`, to the caller's service recorder —
which alone turns it into trace events, counters, profiler cost and
spans, so a trace explains every glitch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import (
    HeadFailureError,
    MediaDefectError,
    TransientReadError,
    check_count,
    check_seconds,
)

__all__ = ["RecoveryPolicy", "read_with_recovery"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded-retry parameters for fault recovery.

    Parameters
    ----------
    retry_budget:
        Maximum re-issued attempts per faulted block.  0 means every
        transient fault becomes exactly one skip.
    retry_backoff:
        Simulated settle time charged before each retry, seconds (e.g.
        one rotation for a recalibrate).

    A retry is abandoned (block skipped) as soon as the clock has passed
    the block's deadline — spending more mechanism time on an
    already-late block only steals it from other streams.
    """

    retry_budget: int = 2
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        check_count("retry_budget", self.retry_budget, 0)
        check_seconds("retry_backoff", self.retry_backoff)


def read_with_recovery(
    drive,
    slot: int,
    bits: Optional[float],
    policy: RecoveryPolicy,
    now: float = 0.0,
    deadline: Optional[float] = None,
    rec=None,
    parent=None,
) -> Tuple[float, bool]:
    """Read *slot*, recovering from injected faults per *policy*.

    *drive* is anything drive-shaped: a
    :class:`~repro.disk.drive.SimulatedDrive` or a wrapper exposing the
    same ``read_slot``/``traced_read``/``stats`` surface (e.g.
    :class:`~repro.disk.cache.CachedDrive`, whose cache never retains a
    faulted block — the exceptions handled here propagate through it
    before insertion).

    Returns ``(elapsed, delivered)``: the simulated time consumed
    (successful read, failed attempts, and backoff alike) and whether
    the block's data actually arrived.  ``delivered=False`` means the
    caller must record the skip as a continuity glitch.

    Raises
    ------
    HeadFailureError
        The drive died; ``elapsed`` on the exception includes all time
        this call consumed before the failure surfaced.

    Every outcome is reported once to *rec* (the caller's
    :class:`~repro.obs.recorder.ServiceRecorder`, or None), which turns
    it into counters, profiler cost and spans.  With a *parent* span (a
    sampled block's) each access attempt is traced through the drive's
    ``traced_read`` and retries / skips become children of it — so the
    causal trace explains every glitch.
    """

    def report(kind, start, end, cost=None, attempt=None):
        if rec is not None:
            rec.fault(kind, slot, start, end, parent, cost, attempt)

    elapsed = 0.0
    attempts = 0
    while True:
        try:
            if parent is not None:
                elapsed += drive.traced_read(
                    slot, bits, now + elapsed, rec, parent
                )
            else:
                elapsed += drive.read_slot(slot, bits)
        except TransientReadError as fault:
            elapsed += fault.elapsed
            at = now + elapsed
            report("transient", at, at)
            if attempts >= policy.retry_budget:
                report("budget", at, at, fault.elapsed)
                return elapsed, False
            if deadline is not None and at + policy.retry_backoff >= deadline:
                report("deadline", at, at, fault.elapsed)
                return elapsed, False
            attempts += 1
            drive.stats.retries += 1
            elapsed += policy.retry_backoff
            # The doomed attempt's time plus the settle window — the
            # delay this fault alone added (it overlaps the seek/transfer
            # the failed attempt already charged).
            report(
                "retry", at, now + elapsed,
                fault.elapsed + policy.retry_backoff, attempts,
            )
            continue
        except MediaDefectError as fault:
            elapsed += fault.elapsed
            report("defect", now + elapsed, now + elapsed, fault.elapsed)
            return elapsed, False
        except HeadFailureError as fault:
            fault.elapsed += elapsed
            # No modeled cost: a dead head fails fast; the caller's
            # degrade path owns whatever follows.
            at = now + fault.elapsed
            report("head", at, at, 0.0)
            raise
        if attempts:
            drive.stats.degraded_reads += 1
            report("recovered", now + elapsed, now + elapsed)
        return elapsed, True
