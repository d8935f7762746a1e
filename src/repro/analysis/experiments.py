"""E1–E12: one ``measure`` function per artifact the paper publishes.

Each ``eN_*`` function regenerates one paper artifact on the 1991
testbed and returns the :class:`~repro.analysis.report.Result` its row
of :data:`repro.analysis.EXPERIMENTS` judges.  All simulations are
seeded and deterministic; none takes a parameter.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import List

from repro.analysis.report import Result, Table
from repro.config import HDTV_2_5_GBIT, PROFILES, TESTBED_1991
from repro.core import admission as adm
from repro.core import buffering, continuity
from repro.core.continuity import Architecture
from repro.core.editing_bounds import copy_bound_dense, copy_bound_sparse
from repro.core.symbols import (
    BlockModel,
    DisplayDeviceParameters,
    VideoStream,
    video_block_model,
)
from repro.disk import (
    ConstrainedScatterAllocator,
    ContiguousAllocator,
    FreeMap,
    RandomAllocator,
    ScatterBounds,
    SimulatedDrive,
    StrandPlacer,
    build_array,
    build_drive,
)
from repro.errors import AdmissionRejected
from repro.fs import MultimediaStorageManager
from repro.media import frames_for_duration, generate_talk_spurts
from repro.media.audio import SilenceDetector
from repro.rope import Media, MultimediaRopeServer, build_rope_server
from repro.rope.server import FetchColumns
from repro.service import (
    PlaybackSession,
    SequentialReads,
    play_single,
    staged_k_schedule,
)
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.units import gigabits_per_second, kilobytes

__all__ = [
    "fetches_with_gap",
    "equal_streams",
    "e1_architectures",
    "e2_k_vs_n",
    "e3_transition",
    "e4_allocation",
    "e5_buffering",
    "e6_mixed_media",
    "e7_hdtv",
    "e8_edit_copy",
    "e9_rope_ops",
    "e10_silence",
    "e11_symbols",
    "e12_prototype",
]

PROFILE = TESTBED_1991


def fetches_with_gap(
    drive: SimulatedDrive,
    count: int,
    gap: float,
    block_bits: float,
    duration: float,
    extra_cylinders: int = 0,
) -> FetchColumns:
    """A synthetic placement whose inter-block positioning delay ≈ *gap*.

    Blocks are laid at a fixed cylinder stride chosen so that
    ``seek(stride) + average rotation`` is as close to *gap* as the seek
    curve allows without exceeding it; *extra_cylinders* nudges the stride
    up (used to step just past a continuity bound).  The head sweeps
    forward and reverses at the disk edge, preserving the stride.
    """
    rotation = drive.rotation.average_latency
    budget = max(0.0, gap - rotation)
    stride = drive.seek_model.max_distance_within(
        budget, drive.geometry.cylinders
    )
    stride = max(0, stride) + extra_cylinders
    cylinders = drive.geometry.cylinders
    slots: List[int] = []
    cylinder = 0
    direction = 1
    for _ in range(count):
        slots.append(min(
            drive.slot_window(cylinder, cylinder).start, drive.slots - 1
        ))
        nxt = cylinder + direction * max(stride, 1)
        if not 0 <= nxt < cylinders:
            direction = -direction
            nxt = cylinder + direction * max(stride, 1)
            nxt = max(0, min(cylinders - 1, nxt))
        cylinder = nxt
    return FetchColumns.uniform(slots, block_bits, duration)


def equal_streams(
    drive: SimulatedDrive,
    count: int,
    blocks: int,
    gap: float,
    block: BlockModel,
    capacity: int,
    prefix: str = "s",
) -> List[StreamState]:
    """*count* streams of *blocks* equally spaced blocks (``<prefix>0``…)."""
    return [
        StreamState(
            request_id=f"{prefix}{i}",
            fetches=fetches_with_gap(
                drive, blocks, gap, block.block_bits, block.playback_duration
            ),
            buffer_capacity=capacity,
        )
        for i in range(count)
    ]


def e1_architectures() -> Result:
    """Regenerate the §3.1 comparison: who tolerates how much scattering.

    For each architecture: the analytic maximum scattering (slack = 0
    point), then a simulation at 95 % of the bound (must measure zero
    misses — the analysis is *safe*), and one at the drive's widest
    physically producible gap (full-stroke seeks).  Sequential and
    pipelined retrieval miss sustainedly out there; the concurrent
    architecture may not, because the Eq.-(3) bound is conservative
    (batched reads tolerate up to p·T rather than (p−1)·T).

    Granularity is 1 frame/block so the testbed drive's maximum access
    time actually exceeds the bounds; at larger granularities the bounds
    exceed anything this mechanism can produce, which is itself the §3
    point that larger blocks relax the placement constraint.
    """
    blocks, concurrency = 150, 2
    block = video_block_model(PROFILE.video, 1)
    duration = block.playback_duration
    table = Table(
        title="E1: continuity bounds per retrieval architecture "
              "(Figs. 1-3, Eqs. 1-3)",
        columns=[
            "architecture", "analytic l_ds max (ms)",
            "sim misses @95% bound", "widest gap (ms)",
            "sim misses @widest gap",
        ],
    )

    def simulate(architecture: Architecture, p: int, gap: float):
        array = drive = build_array(p)
        fetches = fetches_with_gap(
            array.member(0), blocks, gap, block.block_bits, duration
        )
        if architecture is not Architecture.CONCURRENT:
            drive = array.member(0)
        if architecture is Architecture.SEQUENTIAL:
            drive = SequentialReads(drive, PROFILE.video_device)
        return play_single(fetches, drive, read_ahead=p - 1).metrics

    def run(name: str, architecture: Architecture, p: int = 1):
        reference = build_drive()
        bound = continuity.max_scattering(
            architecture, block, reference.parameters(),
            PROFILE.video_device, p,
        )
        widest = (
            reference.seek_model.seek_time(reference.geometry.cylinders - 1)
            + reference.rotation.average_latency
        )
        table.add_row(
            name, bound * 1e3, simulate(architecture, p, bound * 0.95).misses,
            widest * 1e3, simulate(architecture, p, widest).misses,
        )

    run("sequential", Architecture.SEQUENTIAL)
    run("pipelined", Architecture.PIPELINED)
    run(f"concurrent(p={concurrency})", Architecture.CONCURRENT, concurrency)
    return Result((table,))


def e2_k_vs_n() -> Result:
    """Regenerate Fig. 4: blocks-per-round k against request count n."""
    params = build_drive().parameters()
    descriptor = adm.RequestDescriptor(
        block=video_block_model(PROFILE.video, 4),
        scattering_avg=params.seek_avg,
    )
    table = Table(
        title="E2: variation of k with n (Fig. 4)",
        columns=["n", "k steady (Eq.16)", "k transition (Eq.18)", "feasible"],
    )
    capacity = 0
    n = 1
    while True:
        service = adm.service_parameters([descriptor] * n, params)
        try:
            k16 = adm.k_steady(service)
            k18 = adm.k_transition(service)
        except AdmissionRejected:
            table.add_row(n, None, None, False)
            break
        capacity = adm.n_max(service)
        table.add_row(n, k16, k18, True)
        n += 1
        if n > capacity + 1:
            service = adm.service_parameters([descriptor] * n, params)
            try:
                adm.k_steady(service)
            except AdmissionRejected:
                table.add_row(n, None, None, False)
            break
    return Result((table,), {"n_max (Eq. 17)": capacity})


def e3_transition() -> Result:
    """Admit request n+1 with a naive k jump vs the staged Eq.-(18) walk.

    The workload runs n = n_max − 1 streams at their steady k, then admits
    one more.  The naive schedule jumps straight to the new k in the
    admission round; the staged schedule raises k by one per round.  The
    paper's claim: the naive jump can glitch already-playing streams, the
    staged walk cannot.
    """
    blocks, admission_round = 400, 3
    block = video_block_model(PROFILE.video, 4)
    params = build_drive().parameters()
    descriptor = adm.RequestDescriptor(
        block=block, scattering_avg=params.seek_avg
    )
    n_before = max(
        1, adm.n_max(adm.service_parameters([descriptor], params)) - 1
    )
    k_old = adm.k_transition(
        adm.service_parameters([descriptor] * n_before, params)
    )
    k_new = adm.k_transition(
        adm.service_parameters([descriptor] * (n_before + 1), params)
    )

    def existing_misses(staged: bool) -> int:
        drive = build_drive()
        capacity = 2 * max(k_new, k_old)
        streams = equal_streams(
            drive, n_before, blocks, params.seek_avg, block, capacity
        )
        [newcomer] = equal_streams(
            drive, 1, blocks, params.seek_avg, block, capacity
        )
        newcomer.request_id = "newcomer"
        if staged:
            steps = [
                (admission_round + i, k)
                for i, k in enumerate(range(k_old + 1, k_new + 1))
            ]
            # The newcomer joins once the +1/round ramp is done, and the
            # ramp outlasts the existing streams' plans.
            join = blocks * block.playback_duration
        else:
            steps = [(admission_round, k_new)]
            join = admission_round * k_old * block.playback_duration
        service = RoundRobinService(drive, staged_k_schedule(k_old, steps))
        metrics = service.run(streams, [Admission(join, newcomer)])
        return sum(
            m.misses for rid, m in metrics.items() if rid != "newcomer"
        )

    table = Table(
        title="E3: transition continuity — naive k jump vs staged Eq.-(18) walk",
        columns=["strategy", "k_old", "k_new", "existing-stream misses"],
    )
    table.add_row("naive jump", k_old, k_new, existing_misses(staged=False))
    table.add_row(
        "staged (+1/round)", k_old, k_new, existing_misses(staged=True)
    )
    return Result((table,))


def e4_allocation() -> Result:
    """Constrained vs random vs contiguous allocation at equal load.

    For each discipline: place one strand, replay it pipelined, report
    the measured gap spread, misses with zero read-ahead, and the minimum
    anti-jitter read-ahead that makes playback continuous (§3's argument
    that unconstrained placement buys continuity only with buffering).

    The stream runs at 45 fps with granularity 1, leaving the drive
    little slack per block: the *average* random gap then exceeds the
    continuity budget, so unconstrained placement misses persistently
    while constrained placement (whose every gap honours the bound)
    plays clean — the sharpest form of the paper's argument.
    """
    blocks = 300
    stream = VideoStream(frame_rate=45.0, frame_size=PROFILE.video.frame_size)
    block = video_block_model(stream, 1)
    table = Table(
        title="E4: allocation disciplines (constrained vs random vs contiguous)",
        columns=[
            "allocator", "max gap (ms)", "mean gap (ms)",
            "misses (no read-ahead)", "min read-ahead for continuity",
        ],
    )

    def place(name: str):
        drive = build_drive()
        freemap = FreeMap(drive.slots)
        if name == "constrained":
            upper = continuity.max_scattering(
                Architecture.PIPELINED, block, drive.parameters(),
                PROFILE.video_device,
            )
            allocator = ConstrainedScatterAllocator(
                drive, freemap, ScatterBounds(0.0, upper)
            )
        elif name == "random":
            allocator = RandomAllocator(drive, freemap, random.Random(11))
        else:
            allocator = ContiguousAllocator(drive, freemap)
        placement = StrandPlacer(drive, allocator).place(blocks)
        fetches = FetchColumns.uniform(
            placement.slots, block.block_bits, block.playback_duration
        )
        drive.park(0)
        return drive, fetches, placement

    for name in ("constrained", "random", "contiguous"):
        drive, fetches, placement = place(name)
        misses0 = play_single(fetches, drive).metrics.misses
        needed = 0
        if misses0:
            low, high = 1, blocks - 1
            while low < high:
                mid = (low + high) // 2
                drive, fetches, _ = place(name)
                stream = play_single(fetches, drive, read_ahead=mid)
                if stream.metrics.continuous:
                    high = mid
                else:
                    low = mid + 1
            needed = low
        table.add_row(
            name, placement.max_gap * 1e3, placement.mean_gap * 1e3,
            misses0, needed,
        )
    return Result((table,))


def e5_buffering() -> Result:
    """Regenerate the §3.3.2 buffering table and the h bound."""
    concurrency = 4
    params = build_drive().parameters()
    block = video_block_model(PROFILE.video, 4)
    table = Table(
        title="E5: buffer and read-ahead requirements (§3.3.2)",
        columns=["architecture", "k", "read-ahead", "buffers"],
    )
    for k in (1, 2, 4, 8):
        for name, architecture, p in (
            ("sequential", Architecture.SEQUENTIAL, 1),
            ("pipelined", Architecture.PIPELINED, 1),
            (f"concurrent(p={concurrency})", Architecture.CONCURRENT,
             concurrency),
        ):
            table.add_row(
                name, k,
                buffering.read_ahead_required(architecture, k, p),
                buffering.buffers_for_average_continuity(architecture, k, p),
            )
    return Result((table,), {
        "task-switch read-ahead h (blocks)":
            buffering.task_switch_read_ahead(block, params),
        "2x slow-motion accumulation (blocks/s)":
            buffering.slow_motion_accumulation_rate(
                block, params, scattering=params.seek_avg, slowdown=2.0
            ),
    })


def e6_mixed_media() -> Result:
    """Compare the two §3.3.3 schemes for storing audio + video."""
    msm = build_rope_server().msm
    params = msm.drive.parameters()
    video_block = video_block_model(
        PROFILE.video, msm.policies.video.granularity
    )
    audio_block = BlockModel(
        unit_rate=PROFILE.audio.sample_rate,
        unit_size=PROFILE.audio.sample_size,
        granularity=msm.policies.audio.granularity,
    )
    table = Table(
        title="E6: mixed audio+video storage (§3.3.3, Eqs. 4-6)",
        columns=["scheme", "l_ds max (ms)", "implicit sync", "per-medium optimization"],
    )
    for scheme, heterogeneous in (
        ("homogeneous blocks", False), ("heterogeneous blocks", True),
    ):
        bound = continuity.max_scattering_mixed(
            video_block, audio_block, params, heterogeneous=heterogeneous
        )
        table.add_row(scheme, bound * 1e3, heterogeneous, not heterogeneous)
    return Result((table,))


def e7_hdtv() -> Result:
    """Regenerate: 4 KB blocks, 100 heads, ~10 ms seek ⇒ ~0.32 Gbit/s.

    "This is inadequate for the retrieval of even one HDTV-quality video
    strand which may require data transfer rates of up to 2.5 Gigabit/s."
    """
    disk = HDTV_2_5_GBIT.disk
    throughput = continuity.effective_throughput(
        kilobytes(4), disk, disk.seek_max
    )
    demand = gigabits_per_second(2.5)
    table = Table(
        title="E7: HDTV vs projected disk array (§3 worked example)",
        columns=["quantity", "value (Gbit/s)"],
    )
    table.add_row("array throughput, unconstrained blocks", throughput / 1e9)
    table.add_row("paper's figure", 0.32)
    table.add_row("HDTV demand", demand / 1e9)
    table.add_row("shortfall factor", demand / throughput)
    # And the fix the paper proposes: constrained allocation removes the
    # per-block seek, leaving pure streaming.
    table.add_row(
        "same array, zero-gap streaming",
        disk.heads * disk.transfer_rate / 1e9,
    )
    return Result((table,))


def e8_edit_copy() -> Result:
    """Measure seam-repair copying on sparse and dense disks.

    Two 8-s clips are stored at opposite ends of the disk (placement
    hints at the first and last slots) and CONCATEd, so the seam spans
    nearly the full stroke and exceeds the scattering bound.  The video
    device is narrowed to a 2-frame buffer (granularity 1), putting the
    continuity bound below the drive's full-stroke access time —
    otherwise the seam could never violate.  The repairer's measured copy
    count must respect Eqs. (19)/(20), and the repaired rope's seams must
    all be continuous.
    """
    table = Table(
        title="E8: scattering maintenance while editing (§4.2, Eqs. 19-20)",
        columns=[
            "disk state", "occupancy", "seam gap before (ms)",
            "seam bound (ms)", "blocks copied", "sparse bound",
            "dense bound", "seams continuous after",
        ],
    )
    narrowed = DisplayDeviceParameters(
        display_rate=PROFILE.video_device.display_rate, buffer_frames=2
    )
    for label, densify in (("sparse", False), ("dense", True)):
        mrs = MultimediaRopeServer(MultimediaStorageManager(
            build_drive(), PROFILE.video, PROFILE.audio, narrowed,
            PROFILE.audio_device,
        ), auto_repair=False)
        msm = mrs.msm
        strand_a = msm.store_video_strand(
            frames_for_duration(PROFILE.video, 8.0, source="early"), hint=0
        )
        if densify:
            # Age the disk to 80 % occupancy with *distributed* leftover
            # holes (every fifth slot), the realistic shape of a full disk
            # after allocate/release churn.
            deficit = int(msm.freemap.slots * 0.80) - msm.freemap.used_count
            msm.freemap.claim(islice(
                (s for s in msm.freemap.free_slots() if s % 5 != 2),
                max(0, deficit),
            ))
        strand_b = msm.store_video_strand(
            frames_for_duration(PROFILE.video, 8.0, source="late"),
            hint=msm.drive.slots - 1,
        )
        rope_a = mrs.adopt_strands("editor", video_strand_id=strand_a.strand_id)
        rope_b = mrs.adopt_strands("editor", video_strand_id=strand_b.strand_id)
        merged = mrs.concate("editor", rope_a, rope_b)
        repairer = mrs.repairer
        gap_before = max(
            (c.gap for c in repairer.check_segments(merged.segments)),
            default=0.0,
        )
        segments, report = repairer.repair_segments(merged.segments)
        lower = msm.policies.video.scattering_lower
        table.add_row(
            label, msm.occupancy, gap_before * 1e3,
            msm.policies.video.scattering_upper * 1e3,
            report.blocks_copied,
            copy_bound_sparse(msm.disk_params.seek_max, lower),
            copy_bound_dense(msm.disk_params.seek_max, lower),
            all(not c.violates for c in repairer.check_segments(segments)),
        )
    return Result((table,))


def e9_rope_ops() -> Result:
    """Show that editing is pointer manipulation: zero media copies.

    Each §4.1 operation runs on a freshly recorded pair of ropes (30 s
    and 15 s; repair disabled so pure operation cost is visible); the
    table reports the interval counts and the number of media blocks
    copied (always 0).  The GC table demonstrates interval sharing
    keeping strands alive.
    """
    clip_seconds = 30.0
    table = Table(
        title="E9: rope operation cost (§4.1) — pointer manipulation only",
        columns=[
            "operation", "intervals before", "intervals after",
            "media blocks copied", "duration after (s)",
        ],
    )

    def fresh():
        mrs = build_rope_server()
        mrs.auto_repair = False
        rng = random.Random(5)
        ropes = []
        for source, seconds in (("a", clip_seconds), ("b", clip_seconds / 2)):
            request_id, rope_id = mrs.record(
                "u",
                frames=frames_for_duration(
                    PROFILE.video, seconds, source=source
                ),
                chunks=generate_talk_spurts(PROFILE.audio, seconds, 0.3, rng),
            )
            mrs.stop(request_id)
            ropes.append(rope_id)
        return mrs.msm, mrs, ropes[0], ropes[1]

    def blocks_stored(msm: MultimediaStorageManager) -> int:
        return sum(
            msm.get_strand(s).stored_block_count for s in msm.strand_ids()
        )

    operations = [
        ("INSERT", lambda mrs, r1, r2: mrs.insert(
            "u", r1, clip_seconds / 3, Media.AUDIO_VISUAL, r2, 0.0,
            clip_seconds / 2,
        )),
        ("REPLACE", lambda mrs, r1, r2: mrs.replace(
            "u", r1, Media.AUDIO_VISUAL, 5.0, clip_seconds / 2, r2, 0.0,
            clip_seconds / 2,
        )),
        ("SUBSTRING", lambda mrs, r1, r2: mrs.substring(
            "u", r1, Media.AUDIO_VISUAL, 5.0, 10.0
        )),
        ("CONCATE", lambda mrs, r1, r2: mrs.concate("u", r1, r2)),
        ("DELETE", lambda mrs, r1, r2: mrs.delete(
            "u", r1, Media.AUDIO_VISUAL, 5.0, 10.0
        )),
    ]
    for name, operation in operations:
        msm, mrs, r1, r2 = fresh()
        before_blocks = blocks_stored(msm)
        before_intervals = mrs.get_rope(r1).interval_count()
        result = operation(mrs, r1, r2)
        table.add_row(
            name, before_intervals, result.interval_count(),
            blocks_stored(msm) - before_blocks, result.duration,
        )

    # Sharing & GC: a video-only SUBSTRING shares just the video strand;
    # deleting the base rope reclaims the unshared audio strand while the
    # shared video strand survives until the substring goes too.
    msm, mrs, r1, r2 = fresh()
    mrs.delete_rope("u", r2)
    sub = mrs.substring("u", r1, Media.VIDEO, 0.0, 10.0)
    gc_table = Table(
        title="E9b: interval sharing and garbage collection",
        columns=["step", "strands alive", "collected"],
    )
    gc_table.add_row("after video-only substring", len(msm.strand_ids()), 0)
    reclaimed = mrs.delete_rope("u", r1)
    gc_table.add_row(
        "base rope deleted (substring alive)",
        len(msm.strand_ids()), len(reclaimed),
    )
    reclaimed = mrs.delete_rope("u", sub.rope_id)
    gc_table.add_row(
        "substring deleted", len(msm.strand_ids()), len(reclaimed)
    )
    return Result((table, gc_table))


def e10_silence() -> Result:
    """Sweep target silence ratios over 60 s of speech; storage shrinks,
    duration does not."""
    duration = 60.0
    table = Table(
        title="E10: silence elimination (§4) — storage vs silence ratio",
        columns=[
            "target silence", "blocks stored", "blocks silent",
            "space saved", "duration preserved",
        ],
    )
    for ratio in (0.0, 0.2, 0.4, 0.6, 0.8):
        chunks = generate_talk_spurts(
            PROFILE.audio, duration, ratio, random.Random(23)
        )
        strand = build_rope_server().msm.store_audio_strand(
            chunks, SilenceDetector()
        )
        baseline_bits = chunks[-1].end_sample * PROFILE.audio.sample_size
        table.add_row(
            ratio, strand.stored_block_count,
            strand.block_count - strand.stored_block_count,
            1.0 - strand.stored_bits / baseline_bits,
            abs(strand.duration - duration) < 1.0,
        )
    return Result((table,))


def e11_symbols() -> Result:
    """Regenerate a Table-1-style parameter table for each profile."""
    table = Table(
        title="E11: Table-1 symbol model across hardware profiles",
        columns=[
            "profile", "video rate (fps)", "frame (Kbit)",
            "block playback (ms)", "block read @avg seek (ms)",
            "block display (ms)", "pipelined feasible",
        ],
    )
    for name in sorted(PROFILES):
        profile = PROFILES[name]
        block = video_block_model(profile.video, 4)
        table.add_row(
            name, profile.video.frame_rate,
            profile.video.frame_size / 1e3,
            block.playback_duration * 1e3,
            block.read_time(profile.disk, profile.disk.seek_avg) * 1e3,
            block.display_time(profile.video_device) * 1e3,
            continuity.is_continuous(
                Architecture.PIPELINED, block, profile.disk,
                profile.video_device, profile.disk.seek_avg,
            ),
        )
    return Result((table,))


def e12_prototype() -> Result:
    """Record, edit, and play back concurrently at the admission limit.

    Mirrors the §5 prototype's use: three 12-s clips are recorded, one
    rope is edited (INSERT), then playback requests are admitted until
    the controller refuses; the admitted set is serviced in rounds and
    must play continuously.  Startup latency is reported per admitted
    request ("larger the value of k, larger is the startup time").
    """
    clip_seconds = 12.0
    mrs = build_rope_server()
    rope_ids = []
    for i in range(3):
        request_id, rope_id = mrs.record(
            "user",
            frames=frames_for_duration(
                PROFILE.video, clip_seconds, source=f"clip{i}"
            ),
        )
        mrs.stop(request_id)
        rope_ids.append(rope_id)
    mrs.insert(
        "user", rope_ids[0], clip_seconds / 2, Media.AUDIO_VISUAL,
        rope_ids[1], 0.0, clip_seconds / 2,
    )
    admitted: List[str] = []
    rejected_at = 0
    for attempt in range(16):
        try:
            request_id = mrs.play(
                "user", rope_ids[attempt % len(rope_ids)],
                media=Media.VIDEO,
            )
        except AdmissionRejected:
            rejected_at = len(admitted) + 1
            break
        admitted.append(request_id)
    result = PlaybackSession(mrs).run(admitted)
    table = Table(
        title="E12: end-to-end prototype session (§5)",
        columns=["request", "blocks", "misses", "startup latency (s)"],
    )
    for request_id in admitted:
        metrics = result.metrics[request_id]
        table.add_row(
            request_id, metrics.blocks_delivered, metrics.misses,
            metrics.startup_latency,
        )
    return Result((table,), {"admission refused request #": rejected_at})
