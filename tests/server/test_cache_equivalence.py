"""Property: the cache changes timing, never content or order.

For any workload both configurations admit, a cache-enabled run and a
cache-disabled run must deliver byte-identical per-stream block
sequences — the cache (and the batching built on it) is purely a
disk-budget optimization.  Sequences are compared per *client*, since
session IDs are assigned in admission order, which batching may permute.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import OpenSessionRequest
from repro.rope import Media
from repro.scenarios.server import record_strands
from repro.server import build_media_server

pytestmark = pytest.mark.server


def _serve_wave(cache_blocks, batch_window, sessions, strands, seconds):
    """One identical hot wave on a freshly built server."""
    server = build_media_server(
        cache_blocks=cache_blocks, batch_window=batch_window
    )
    clients = [f"client-{i}" for i in range(sessions)]
    rope_ids = record_strands(server.mrs, strands, seconds, clients, "eq")
    result = server.serve([
        OpenSessionRequest(
            client_id=clients[i],
            rope_id=rope_ids[i % strands],
            arrival=0.01 * i,
            media=Media.VIDEO,
        )
        for i in range(sessions)
    ])
    by_client = {}
    for status in result.statuses:
        sequence = result.block_sequences.get(status.session_id)
        if sequence is not None:
            by_client[status.client_id] = sequence
    return by_client


class TestCacheEquivalence:
    # The §3.4 testbed admits 3 video streams per-request, so waves of
    # <= 3 are admitted by both configurations and comparable 1:1.
    @settings(max_examples=8, deadline=None)
    @given(
        sessions=st.integers(min_value=1, max_value=3),
        strands=st.integers(min_value=1, max_value=3),
        seconds=st.sampled_from([0.5, 1.0, 1.5]),
    )
    def test_block_sequences_identical_with_and_without_cache(
        self, sessions, strands, seconds
    ):
        strands = min(strands, sessions)
        cached = _serve_wave(512, 0.25, sessions, strands, seconds)
        uncached = _serve_wave(0, 0.0, sessions, strands, seconds)
        assert set(cached) == set(uncached)
        assert len(cached) == sessions
        for client, sequence in uncached.items():
            assert cached[client] == sequence, client

    def test_followers_deliver_the_leader_sequence(self):
        waves = _serve_wave(512, 0.25, 3, 1, 1.0)
        assert len(set(waves.values())) == 1
