"""Micro-benchmarks of the library's hot operations.

Not paper artifacts — these time the primitives a server would exercise
continuously, so regressions in the data structures (index lookup,
constrained allocation, admission decisions, pointer-based editing) are
visible in the benchmark history.
"""

import random

from repro.config import TESTBED_1991
from repro.core import admission as adm
from repro.core.symbols import video_block_model
from repro.disk import (
    ConstrainedScatterAllocator,
    FreeMap,
    ScatterBounds,
    build_drive,
)
from repro.fs.index import StrandIndex
from repro.media.frames import frames_for_duration
from repro.rope import Media, build_rope_server

PROFILE = TESTBED_1991


def test_index_lookup_speed(benchmark):
    index = StrandIndex(
        frame_rate=30.0, primary_fanout=4096, secondary_fanout=2048
    )
    index.extend([i * 64 for i in range(10_000)], 64)
    rng = random.Random(3)
    probes = [rng.randrange(10_000) for _ in range(256)]

    def lookup_batch():
        return [index.lookup(p) for p in probes]

    result = benchmark(lookup_batch)
    assert len(result) == 256


def test_constrained_allocation_speed(benchmark):
    def place_strand():
        drive = build_drive()
        freemap = FreeMap(drive.slots)
        allocator = ConstrainedScatterAllocator(
            drive, freemap,
            ScatterBounds(0.0, drive.rotation.average_latency + 0.01),
        )
        return allocator.allocate_strand(200)

    slots = benchmark(place_strand)
    assert len(slots) == 200


def test_admission_decision_speed(benchmark):
    drive = build_drive()
    params = drive.parameters()
    block = video_block_model(PROFILE.video, 4)
    descriptor = adm.RequestDescriptor(
        block=block, scattering_avg=params.seek_avg
    )

    def admit_release_cycle():
        controller = adm.AdmissionController(params)
        decisions = []
        try:
            for _ in range(8):
                decisions.append(controller.admit(descriptor))
        except adm.AdmissionRejected:
            pass
        for decision in decisions:
            controller.release(decision.request_id)
        return len(decisions)

    admitted = benchmark(admit_release_cycle)
    assert admitted >= 1


def test_edit_operation_speed(benchmark):
    mrs = build_rope_server()
    mrs.auto_repair = False
    frames = frames_for_duration(PROFILE.video, 30.0, source="bench")
    q1, rope_a = mrs.record("u", frames=frames)
    mrs.stop(q1)
    q2, rope_b = mrs.record("u", frames=frames[:300])
    mrs.stop(q2)
    import itertools

    positions = itertools.count(1)

    def one_insert():
        return mrs.insert(
            "u", rope_a, float(next(positions) % 20), Media.VIDEO,
            rope_b, 0.0, 1.0,
        )

    rope = benchmark(one_insert)
    assert rope.interval_count() >= 2


def test_playback_plan_speed(benchmark):
    mrs = build_rope_server()
    frames = frames_for_duration(PROFILE.video, 60.0, source="bench")
    q, rope_id = mrs.record("u", frames=frames)
    mrs.stop(q)
    play_id = mrs.play("u", rope_id, media=Media.VIDEO)

    plan = benchmark(mrs.playback_plan, play_id)
    assert plan.video
