"""Grouping near-simultaneous open requests into admission batches.

*Scalable Distributed Video-on-Demand* (Viennot et al.) batches
concurrent viewers of the same content so one physical stream feeds many
clients.  The reproduction's equivalent: open requests for the same
``(rope, start, length, media)`` interval whose arrivals fall within one
batching window are admitted as a single batch — the earliest arrival is
the **leader**, holds the batch's one admission slot, and performs the
batch's disk reads; every **follower** is serviced immediately behind
the leader in round order, so its identical reads hit the block cache
and consume no disk-round budget.

The grouping is pure and deterministic: arrival order (ties broken by
submission order) fully determines the batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import OpenSessionRequest
from repro.errors import ParameterError

__all__ = ["BatchKey", "RequestBatch", "group_into_batches"]


@dataclass(frozen=True)
class BatchKey:
    """The identity shared reads require: same rope, interval, media."""

    rope_id: str
    start: float
    length: Optional[float]
    media_value: str

    @classmethod
    def of(cls, request: OpenSessionRequest) -> "BatchKey":
        return cls(
            rope_id=request.rope_id,
            start=request.start,
            length=request.length,
            media_value=request.media.value,
        )


@dataclass(frozen=True)
class RequestBatch:
    """One admission batch: a leader plus zero or more followers.

    Attributes
    ----------
    key:
        The shared ``(rope, interval, media)`` identity.
    requests:
        Members in arrival order; ``requests[0]`` is the leader.
    admit_time:
        When the batch is decided — the leader's arrival (a batch does
        not wait for its window to close; followers arriving later join
        an already-admitted batch's reads).
    """

    key: BatchKey
    requests: Tuple[OpenSessionRequest, ...]
    admit_time: float

    @property
    def leader(self) -> OpenSessionRequest:
        """The member that holds the admission slot and reads the disk."""
        return self.requests[0]

    @property
    def followers(self) -> Tuple[OpenSessionRequest, ...]:
        """Members sharing the leader's reads."""
        return self.requests[1:]

    @property
    def size(self) -> int:
        """Total sessions the batch admits."""
        return len(self.requests)


def group_into_batches(
    requests: Sequence[OpenSessionRequest],
    window: float,
    enabled: bool = True,
    rec=None,
) -> List[RequestBatch]:
    """Partition open requests into admission batches.

    Requests are processed in ``(arrival, submission index)`` order.  A
    request joins the open batch for its key when its arrival is within
    *window* seconds of that batch's leader; otherwise it starts a new
    batch.  With ``enabled=False`` (or ``window=0``) every request is
    its own batch — the per-request admission baseline.

    Every batch formed — of any size — is reported to *rec* (the
    server's :class:`~repro.obs.recorder.ServiceRecorder`, or None) with
    its leader arrival → last member arrival, the window it actually
    spanned.

    Returns batches ordered by admit time (leader arrival), ties broken
    by leader submission order.
    """
    if window < 0:
        raise ParameterError(f"window must be >= 0, got {window}")
    ordered = sorted(
        enumerate(requests), key=lambda pair: (pair[1].arrival, pair[0])
    )
    batches: List[List[OpenSessionRequest]] = []
    open_batch: Dict[BatchKey, int] = {}
    for _index, request in ordered:
        key = BatchKey.of(request)
        position = open_batch.get(key) if enabled and window > 0 else None
        if position is not None:
            leader = batches[position][0]
            if request.arrival - leader.arrival <= window:
                batches[position].append(request)
                continue
        batches.append([request])
        open_batch[key] = len(batches) - 1
    result = [
        RequestBatch(
            key=BatchKey.of(members[0]),
            requests=tuple(members),
            admit_time=members[0].arrival,
        )
        for members in batches
    ]
    if rec is not None:
        for batch in result:
            rec.batch_formed(
                batch.key.rope_id, batch.size, batch.admit_time,
                batch.requests[-1].arrival,
            )
    return result
