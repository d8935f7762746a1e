"""A freed slot leaves the block cache: ROADMAP small debt's probe.

§3.4 admits a session against cache residency only when its blocks are
in memory.  Residency is the cache's fact about a *slot*; when the
storage manager frees a slot and a new recording takes it, the fact
describes data that is gone.  At the parent of these tests the cache
never hears of the free: a rope recorded onto a deleted rope's slots is
cache-admitted, takes no controller slot, and plays the old rope's
blocks as hits.  The probe is a strict expected failure until
``MultimediaStorageManager._release`` makes the server's cache forget
what it frees.
"""

import pytest

from repro.api import Media, OpenSessionRequest
from repro.scenarios.server import record_strands
from repro.server import build_media_server

pytestmark = pytest.mark.server


def _slots(mrs, rope_id):
    rope = mrs.get_rope(rope_id)
    return sorted(
        slot
        for strand_id in rope.referenced_strands()
        for slot in mrs.msm.get_strand(strand_id).slots()
    )


def _open(rope_id):
    return OpenSessionRequest(client_id="c", rope_id=rope_id, media=Media.VIDEO)


def _served_then_replaced():
    """Rope A (1 s of video, 8 blocks) served through the cache, deleted
    and collected; rope B then recorded.  Returns the server, both
    ropes' slots and B's id."""
    server = build_media_server(cache_blocks=512)
    mrs = server.mrs
    first = record_strands(mrs, 1, 1.0, ["c"], "a")[0]
    server.serve([_open(first)])
    first_slots = _slots(mrs, first)
    mrs.delete_rope("librarian", first)
    second = record_strands(mrs, 1, 1.0, ["c"], "b")[0]
    return server, first_slots, _slots(mrs, second), second


def test_a_new_recording_takes_a_deleted_ropes_freed_slots():
    """The probe's premise, which holds before and after the fix."""
    _server, first_slots, second_slots, _second = _served_then_replaced()
    assert len(first_slots) == 8
    assert second_slots == first_slots


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="small debt: a freed slot stays cache-resident",
)
def test_a_rope_on_freed_slots_is_not_admitted_from_the_cache():
    """At the parent, B is cache-admitted and plays 8 hits of A's blocks."""
    server, _first_slots, _second_slots, second = _served_then_replaced()
    response = server.open(_open(second))
    assert not response.cache_admitted
    hits = server.cache.stats.hits
    server.serve([])
    assert server.cache.stats.hits == hits
