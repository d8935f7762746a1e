"""Every failure path ends in a typed :mod:`repro.errors` value.

Five families checked here: count parameters off the service loop go
through ``check_count`` (a string used to raise a bare ``TypeError``; a
float or a bool was silently accepted), the front door's windows through
``check_seconds`` (a NaN window silently turned batching off), a request
or a trick-play speed refuses a field of the wrong type or
range, a fault plan refuses a value it cannot use, and a lookup of an
absent session or title raises a ``ReproError`` that is still a
``KeyError``.
"""

import functools
import math
import re

import pytest

from repro.api import ClusterServeResult, OpenSessionRequest, ServeResult
from repro.cluster import (
    CatalogTitle,
    ClusterNode,
    PlacementMap,
    PlacementPolicy,
    build_cluster,
)
from repro.disk import BlockCache, build_drive
from repro.errors import (
    ParameterError,
    ReproError,
    UnknownRopeError,
    UnknownSessionError,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, RecoveryPolicy
from repro.obs import SessionTimeline, SpanTracer
from repro.rope.server import BlockFetch
from repro.server import build_media_server
from repro.server.batching import group_into_batches
from repro.service import RecordStream, play_single, transform_plan


@functools.lru_cache(maxsize=None)
def _cluster():
    """One small unwarmed cluster: ``serve`` refuses *chunks* up front."""
    return build_cluster(nodes=2, titles=1, warm=False)[0]


def _plan(per_node_streams):
    titles = [CatalogTitle("T01", 1.0, 1.0)]
    return PlacementPolicy(min_replicas=1).plan(titles, ["n0"], per_node_streams)


#: A four-block plan for a single-request run.
FETCHES = [BlockFetch(slot, 1.0, 0.1) for slot in range(4)]


def _pipelined(read_ahead):
    return play_single(FETCHES, build_drive(), read_ahead=read_ahead)


#: (parameter, minimum it accepts, constructor, bad value).
COUNTS = [
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
    ("chunks", 1, lambda v: _cluster().serve([], chunks=v), 2.5),
    ("chunks", 1, lambda v: _cluster().serve([], chunks=v), "2"),
    ("chunks", 1, lambda v: _cluster().serve([], chunks=v), True),
    (
        "per_node_streams", 1,
        lambda v: build_cluster(2, 1, per_node_streams=v), 2.5,
    ),
    ("per_node_streams", 1, _plan, 2.5),
    (
        "node n0: capacity", 1,
        lambda v: ClusterNode("n0", build_media_server(), capacity=v), 2.5,
    ),
    ("nodes", 1, lambda v: build_cluster(v, 1), 2.5),
    ("nodes", 1, lambda v: build_cluster(v, 1), True),
    ("titles", 1, lambda v: build_cluster(2, v), 2.5),
    ("titles", 1, lambda v: build_cluster(2, v), "3"),
    ("titles", 1, lambda v: build_cluster(2, v), True),
    ("min_replicas", 1, lambda v: build_cluster(2, 1, min_replicas=v), 1.5),
    ("min_replicas", 1, lambda v: build_cluster(2, 1, min_replicas=v), True),
    ("read_ahead", 0, _pipelined, 2.5),
    ("read_ahead", 0, _pipelined, True),
    ("buffer_capacity", 1,
     lambda v: play_single(FETCHES, build_drive(), buffer_capacity=v), 2.5),
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


HEAD, TRANSIENT = FaultKind.HEAD_FAILURE, FaultKind.TRANSIENT
#: (parameter, constructor, a value it cannot use).  Each was accepted —
#: or raised a bare ``TypeError`` — before: a NaN head-failure time never
#: fired, ``at_op=-1`` fired on op 0, a NaN backoff scored a faulted run
#: as continuous, and ``transient=True`` meant one fault.
FAULTS = [
    ("at_time", lambda v: FaultSpec(HEAD, at_time=v), math.nan),
    ("at_time", lambda v: FaultSpec(HEAD, at_time=v), -1.0),
    ("at_time", lambda v: FaultSpec(HEAD, at_time=v), True),
    ("at_op", lambda v: FaultSpec(HEAD, at_op=v), -1),
    ("at_op", lambda v: FaultSpec(TRANSIENT, at_op=v), 2.5),
    ("slot", lambda v: FaultSpec(TRANSIENT, slot=v), 1.5),
    ("drive_index", lambda v: FaultSpec(TRANSIENT, slot=0, drive_index=v), 0.5),
    ("drive_index", lambda v: FaultSpec(TRANSIENT, slot=0, drive_index=v), "0"),
    ("transient", lambda v: FaultPlan.random(0, [1, 2], transient=v), 1.5),
    ("transient", lambda v: FaultPlan.random(0, [1, 2], transient=v), True),
    ("defects", lambda v: FaultPlan.random(0, [1, 2], defects=v), -1),
    ("at_op", lambda v: FaultPlan.random(0, [1], head_failure_at_op=v), -2),
    ("retry_backoff", lambda v: RecoveryPolicy(retry_backoff=v), math.nan),
    ("retry_backoff", lambda v: RecoveryPolicy(retry_backoff=v), math.inf),
    ("retry_backoff", lambda v: RecoveryPolicy(retry_backoff=v), "1"),
]


#: (window, constructor, a value it cannot use): a time goes through
#: ``check_seconds``.  Before, ``batch_window=nan`` silently turned
#: batching off, ``inf`` was accepted and ``"x"`` raised a bare TypeError,
#: as a string title length did.
WINDOWS = [
    ("batch_window", lambda v: build_media_server(batch_window=v), math.nan),
    ("batch_window", lambda v: build_media_server(batch_window=v), math.inf),
    ("batch_window", lambda v: build_media_server(batch_window=v), "x"),
    ("window", lambda v: group_into_batches([], window=v), math.nan),
    ("title T01: seconds", lambda v: build_cluster(2, 1, seconds=v), "1"),
]


@pytest.mark.parametrize(
    "name, build, value", WINDOWS,
    ids=[f"{name}={value!r}" for name, _, value in WINDOWS],
)
def test_a_window_that_is_not_a_finite_time_is_refused(name, build, value):
    got = re.escape(repr(value))
    with pytest.raises(
        ParameterError, match=rf"^{name} must be a finite real >= 0, got {got}$"
    ):
        build(value)


def _request(**fields):
    return OpenSessionRequest("alice", "R0001", **fields)


#: (id, the field the error names, constructor, a value it cannot use).
#: Before, a string time raised a bare ``TypeError`` from ``math.isfinite``,
#: ``start=True`` was taken as 1.0 s, ``media="video"`` was built and then
#: raised an ``AttributeError`` inside ``serve``, and a NaN speed returned
#: NaN durations (with skipping, a ``ValueError``; an infinite one an
#: ``OverflowError``).
FIELDS = [
    ("arrival='0'", "arrival", lambda v: _request(arrival=v), "0"),
    ("length='1'", "length", lambda v: _request(length=v), "1"),
    ("start=True", "start", lambda v: _request(start=v), True),
    ("media='video'", "media", lambda v: _request(media=v), "video"),
    ("speed=nan", "speed", lambda v: transform_plan(FETCHES, v), math.nan),
    ("skipping speed=nan", "speed",
     lambda v: transform_plan(FETCHES, v, skipping=True), math.nan),
    ("skipping speed=inf", "speed",
     lambda v: transform_plan(FETCHES, v, skipping=True), math.inf),
]


@pytest.mark.parametrize(
    "name, build, value", [row[1:] for row in FIELDS],
    ids=[row[0] for row in FIELDS],
)
def test_a_field_of_the_wrong_type_or_range_is_refused(name, build, value):
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be a"):
        build(value)


@pytest.mark.parametrize(
    "name, build, value", FAULTS,
    ids=[f"{name}={value!r}" for name, _, value in FAULTS],
)
def test_a_fault_parameter_it_cannot_use_is_refused(name, build, value):
    with pytest.raises(ParameterError, match=rf"^{name} must be an? "):
        build(value)


def test_a_cli_fault_plan_it_cannot_use_is_one_error_line(capsys):
    from repro.cli import main

    assert main(["run", "--scenario", "fault", "--smoke",
                 "--set", "head_failure_at_op=-1"]) == 2
    assert capsys.readouterr().err == "error: at_op must be an int >= 0, got -1\n"


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
