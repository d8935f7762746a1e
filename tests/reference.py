"""The §3.1 playback fold, written out as the reference the fast paths
are checked against.

Playback cascades over the delivery schedule: block j starts when its
data is ready and the previous block has finished, so consumption is a
running fold over ``(ready, duration)`` from the clock's start.  The
service loop keeps that fold as a column (``StreamState.ends``) and
answers consumption with one bisect of it; these rescan from the start
on every call.
"""

from typing import Iterable, List, Tuple


def consumed_prefix(
    ready: Iterable[float],
    durations: Iterable[float],
    start: float,
    now: float,
) -> Tuple[int, float]:
    """Playback consumption at *now*: ``(blocks played, clock after them)``.

    With ``now = inf`` it is the whole fold — when the last block ends.
    """
    count = 0
    elapsed = start
    for landed, duration in zip(ready, durations):
        end = max(elapsed, landed) + duration
        if end > now:
            break
        count += 1
        elapsed = end
    return count, elapsed


def playout_ends(
    ready: Iterable[float], durations: Iterable[float], start: float
) -> List[float]:
    """When each landed block finished playing, clock started at *start*:
    the fold of :func:`consumed_prefix`, one entry per block."""
    ends, elapsed = [], start
    for landed, duration in zip(ready, durations):
        elapsed = max(elapsed, landed) + duration
        ends.append(elapsed)
    return ends
