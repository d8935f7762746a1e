"""Every failure path ends in a typed :mod:`repro.errors` value.

Two families checked here: count parameters off the service loop go
through ``check_count`` (a string used to raise a bare ``TypeError``; a
float or a bool was silently accepted), and a lookup of an absent
session or title raises a ``ReproError`` that is still a ``KeyError``.
"""

import re

import pytest

from repro.api import ClusterServeResult, ServeResult
from repro.cluster import PlacementMap
from repro.disk import BlockCache
from repro.errors import (
    ParameterError,
    ReproError,
    UnknownRopeError,
    UnknownSessionError,
)
from repro.faults import RecoveryPolicy
from repro.obs import SessionTimeline, SpanTracer
from repro.server import build_media_server
from repro.service import RecordStream
from repro.sim.trace import Tracer

#: (parameter, minimum it accepts, constructor, bad value).
COUNTS = [
    ("limit", 1, lambda v: Tracer(limit=v), "3"),
    ("limit", 1, lambda v: Tracer(limit=v), 2.5),
    ("limit", 1, lambda v: SpanTracer(limit=v), "3"),
    ("limit", 1, lambda v: SpanTracer(limit=v), True),
    ("summary_sessions", 1, lambda v: SessionTimeline(summary_sessions=v), "2"),
    ("retry_budget", 0, lambda v: RecoveryPolicy(retry_budget=v), "2"),
    ("retry_budget", 0, lambda v: RecoveryPolicy(retry_budget=v), 1.5),
    ("capacity_blocks", 1, BlockCache, "4"),
    ("capacity_blocks", 1, BlockCache, 1.5),
    ("requeue_limit", 0, lambda v: build_media_server(requeue_limit=v), "1"),
    ("cache_blocks", 0, lambda v: build_media_server(cache_blocks=v), 2.5),
    (
        "staging_capacity", 1,
        lambda v: RecordStream("r", [0], 0.1, staging_capacity=v), "2",
    ),
    (
        "staging_capacity", 1,
        lambda v: RecordStream("r", [0], 0.1, staging_capacity=v), 1.5,
    ),
]


@pytest.mark.parametrize(
    "name, minimum, build, value", COUNTS,
    ids=[f"{name}={value!r}" for name, _, _, value in COUNTS],
)
def test_a_count_that_is_not_an_int_is_refused(name, minimum, build, value):
    got = re.escape(repr(value))
    with pytest.raises(
        ParameterError, match=rf"^{name} must be an int >= {minimum}, got {got}$"
    ):
        build(value)


class TestUnknownKeys:
    def test_serve_result_names_an_unknown_session(self):
        with pytest.raises(UnknownSessionError) as raised:
            ServeResult(statuses=()).status_of("S9999")
        assert isinstance(raised.value, ReproError)
        assert isinstance(raised.value, KeyError)

    def test_cluster_result_names_an_unknown_session(self):
        with pytest.raises(UnknownSessionError) as raised:
            ClusterServeResult(statuses=()).status_of("S9999")
        assert isinstance(raised.value, ReproError)
        assert isinstance(raised.value, KeyError)

    def test_placement_names_an_unknown_title(self):
        placement = PlacementMap((("R0001", ("n0",)),))
        with pytest.raises(UnknownRopeError) as raised:
            placement.replicas("R0002")
        assert isinstance(raised.value, ReproError)
        assert isinstance(raised.value, KeyError)
        assert placement.replicas("R0001") == ("n0",)
