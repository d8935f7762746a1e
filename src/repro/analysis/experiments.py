"""Experiment drivers: one function per reproduced figure/analysis.

Each ``eN_*`` function regenerates one paper artifact (see DESIGN.md §3's
experiment index) and returns tables/series ready for printing by the
corresponding benchmark.  All simulations are seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.config import TESTBED_1991, HDTV_2_5_GBIT, HardwareProfile
from repro.core import admission as adm
from repro.core import buffering, continuity
from repro.core.continuity import Architecture
from repro.core.editing_bounds import copy_bound_dense, copy_bound_sparse
from repro.core.symbols import BlockModel, video_block_model
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
from repro.media import DisplayDevice, frames_for_duration, generate_talk_spurts
from repro.media.audio import SilenceDetector
from repro.rope import Media, MultimediaRopeServer
from repro.rope.server import FetchColumns
from repro.service import (
    PlaybackSession,
    simulate_concurrent,
    simulate_pipelined,
    simulate_sequential,
    staged_k_schedule,
)
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.sim.metrics import SweepSeries
from repro.analysis.report import Table
from repro.units import gigabits_per_second, kilobytes

__all__ = [
    "fetches_with_gap",
    "default_msm",
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


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

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


def default_msm(
    profile: HardwareProfile = TESTBED_1991,
    drive: Optional[SimulatedDrive] = None,
) -> MultimediaStorageManager:
    """A storage manager on the standard testbed drive."""
    if drive is None:
        drive = build_drive()
    return MultimediaStorageManager(
        drive,
        profile.video,
        profile.audio,
        profile.video_device,
        profile.audio_device,
    )


# ---------------------------------------------------------------------------
# E1 — Figs. 1-3 / Eqs. (1)-(3): architecture feasibility boundaries
# ---------------------------------------------------------------------------

@dataclass
class E1Result:
    """Analytic bounds and simulated miss counts per architecture."""

    table: Table
    bounds: Dict[str, float]
    misses_inside: Dict[str, int]
    misses_outside: Dict[str, int]


def e1_architectures(
    profile: HardwareProfile = TESTBED_1991,
    granularity: int = 1,
    blocks: int = 150,
    concurrency: int = 2,
) -> E1Result:
    """Regenerate the §3.1 comparison: who tolerates how much scattering.

    For each architecture: the analytic maximum scattering (slack = 0
    point), then a simulation at 95 % of the bound (must measure zero
    misses — the analysis is *safe*), and one at the drive's widest
    physically producible gap (full-stroke seeks).  Sequential and
    pipelined retrieval miss sustainedly out there; the concurrent
    architecture may not, because the Eq.-(3) bound is conservative
    (batched reads tolerate up to p·T rather than (p−1)·T).

    Granularity defaults to 1 frame/block so the testbed drive's maximum
    access time actually exceeds the bounds; at larger granularities the
    bounds exceed anything this mechanism can produce, which is itself
    the §3 point that larger blocks relax the placement constraint.
    """
    block = video_block_model(profile.video, granularity)
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
    bounds: Dict[str, float] = {}
    inside: Dict[str, int] = {}
    outside: Dict[str, int] = {}

    def simulate(
        architecture: Architecture, p: int, gap: float
    ):
        if architecture is Architecture.CONCURRENT:
            array = build_array(p)
            fetches = fetches_with_gap(
                array.member(0), blocks, gap, block.block_bits, duration
            )
            metrics, _ = simulate_concurrent(fetches, array)
            return metrics
        drive = build_drive()
        fetches = fetches_with_gap(
            drive, blocks, gap, block.block_bits, duration
        )
        if architecture is Architecture.SEQUENTIAL:
            metrics, _ = simulate_sequential(
                fetches, drive, DisplayDevice(profile.video_device)
            )
        else:
            metrics, _ = simulate_pipelined(fetches, drive)
        return metrics

    def run(name: str, architecture: Architecture, p: int = 1):
        reference = build_drive()
        params = reference.parameters()
        bound = continuity.max_scattering(
            architecture, block, params, profile.video_device, p
        )
        bounds[name] = bound
        metrics_in = simulate(architecture, p, bound * 0.95)
        widest = (
            reference.seek_model.seek_time(reference.geometry.cylinders - 1)
            + reference.rotation.average_latency
        )
        metrics_out = simulate(architecture, p, widest)
        inside[name] = metrics_in.misses
        outside[name] = metrics_out.misses
        table.add_row(
            name, bound * 1e3, metrics_in.misses, widest * 1e3,
            metrics_out.misses,
        )

    run("sequential", Architecture.SEQUENTIAL)
    run("pipelined", Architecture.PIPELINED)
    run(f"concurrent(p={concurrency})", Architecture.CONCURRENT, concurrency)
    return E1Result(
        table=table, bounds=bounds, misses_inside=inside,
        misses_outside=outside,
    )


# ---------------------------------------------------------------------------
# E2 — Fig. 4 / Eqs. (15)-(17): k vs n
# ---------------------------------------------------------------------------

@dataclass
class E2Result:
    """The Fig.-4 curve plus its capacity bound."""

    table: Table
    series_steady: SweepSeries
    series_transition: SweepSeries
    n_max: int


def e2_k_vs_n(
    profile: HardwareProfile = TESTBED_1991,
    granularity: int = 4,
) -> E2Result:
    """Regenerate Fig. 4: blocks-per-round k against request count n."""
    drive = build_drive()
    params = drive.parameters()
    block = video_block_model(profile.video, granularity)
    descriptor = adm.RequestDescriptor(
        block=block, scattering_avg=params.seek_avg
    )
    table = Table(
        title="E2: variation of k with n (Fig. 4)",
        columns=["n", "k steady (Eq.16)", "k transition (Eq.18)", "feasible"],
    )
    steady = SweepSeries("k(n) steady", "n requests", "k blocks/round")
    transition = SweepSeries("k(n) transition", "n requests", "k blocks/round")
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
        steady.add(n, k16)
        transition.add(n, k18)
        n += 1
        if n > capacity + 1:
            service = adm.service_parameters([descriptor] * n, params)
            try:
                adm.k_steady(service)
            except AdmissionRejected:
                table.add_row(n, None, None, False)
            break
    return E2Result(
        table=table, series_steady=steady, series_transition=transition,
        n_max=capacity,
    )


# ---------------------------------------------------------------------------
# E3 — §3.4: naive vs staged k transition
# ---------------------------------------------------------------------------

@dataclass
class E3Result:
    """Transition-continuity comparison."""

    table: Table
    naive_misses: int
    staged_misses: int


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
    streams = []
    for i in range(count):
        fetches = fetches_with_gap(
            drive, blocks, gap, block.block_bits, block.playback_duration
        )
        streams.append(
            StreamState(
                request_id=f"{prefix}{i}",
                fetches=fetches,
                buffer_capacity=capacity,
            )
        )
    return streams


def e3_transition(
    profile: HardwareProfile = TESTBED_1991,
    granularity: int = 4,
    blocks: int = 400,
) -> E3Result:
    """Admit request n+1 with a naive k jump vs the staged Eq.-(18) walk.

    The workload runs n = n_max − 1 streams at their steady k, then admits
    one more.  The naive schedule jumps straight to the new k in the
    admission round; the staged schedule raises k by one per round.  The
    paper's claim: the naive jump can glitch already-playing streams, the
    staged walk cannot.
    """
    block = video_block_model(profile.video, granularity)

    def build(n_before: int):
        drive = build_drive()
        params = drive.parameters()
        descriptor = adm.RequestDescriptor(
            block=block, scattering_avg=params.seek_avg
        )
        service_before = adm.service_parameters(
            [descriptor] * n_before, params
        )
        service_after = adm.service_parameters(
            [descriptor] * (n_before + 1), params
        )
        k_old = adm.k_transition(service_before)
        k_new = adm.k_transition(service_after)
        return drive, params, k_old, k_new

    probe_drive = build_drive()
    probe_params = probe_drive.parameters()
    descriptor = adm.RequestDescriptor(
        block=block, scattering_avg=probe_params.seek_avg
    )
    capacity_bound = adm.n_max(
        adm.service_parameters([descriptor], probe_params)
    )
    n_before = max(1, capacity_bound - 1)
    admission_round = 3

    def run(staged: bool) -> Tuple[int, int, int]:
        drive, params, k_old, k_new = build(n_before)
        gap = params.seek_avg
        streams = equal_streams(
            drive, n_before, blocks, gap, block,
            capacity=2 * max(k_new, k_old),
        )
        newcomer = equal_streams(
            drive, 1, blocks, gap, block, capacity=2 * max(k_new, k_old)
        )[0]
        newcomer.request_id = "newcomer"
        if staged:
            steps = [
                (admission_round + i, k)
                for i, k in enumerate(range(k_old + 1, k_new + 1))
            ]
            schedule = staged_k_schedule(k_old, steps)
            join_round = admission_round + max(0, k_new - k_old)
        else:
            schedule = staged_k_schedule(k_old, [(admission_round, k_new)])
            join_round = admission_round
        service = RoundRobinService(drive, schedule)
        metrics = service.run(
            streams,
            [Admission(round_number=join_round, stream=newcomer)],
        )
        existing = sum(
            m.misses for rid, m in metrics.items() if rid != "newcomer"
        )
        return existing, k_old, k_new

    naive_misses, k_old, k_new = run(staged=False)
    staged_misses, _, _ = run(staged=True)
    table = Table(
        title="E3: transition continuity — naive k jump vs staged Eq.-(18) walk",
        columns=["strategy", "k_old", "k_new", "existing-stream misses"],
    )
    table.add_row("naive jump", k_old, k_new, naive_misses)
    table.add_row("staged (+1/round)", k_old, k_new, staged_misses)
    return E3Result(
        table=table, naive_misses=naive_misses, staged_misses=staged_misses
    )


# ---------------------------------------------------------------------------
# E4 — §3: allocation-discipline comparison
# ---------------------------------------------------------------------------

@dataclass
class E4Result:
    """Allocation-policy comparison rows."""

    table: Table
    read_ahead_needed: Dict[str, int]
    max_gaps: Dict[str, float]


def e4_allocation(
    profile: HardwareProfile = TESTBED_1991,
    blocks: int = 300,
    seed: int = 11,
) -> E4Result:
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
    from repro.core.symbols import VideoStream

    stream = VideoStream(frame_rate=45.0, frame_size=profile.video.frame_size)
    block = video_block_model(stream, 1)
    table = Table(
        title="E4: allocation disciplines (constrained vs random vs contiguous)",
        columns=[
            "allocator", "max gap (ms)", "mean gap (ms)",
            "misses (no read-ahead)", "min read-ahead for continuity",
        ],
    )
    read_ahead_needed: Dict[str, int] = {}
    max_gaps: Dict[str, float] = {}

    def minimum_read_ahead(make) -> Tuple[int, int, float, float]:
        """(misses@0, min read-ahead, max gap, mean gap)."""
        drive, fetches, placement = make()
        metrics0, _ = simulate_pipelined(fetches, drive, read_ahead=0)
        misses0 = metrics0.misses
        needed = 0
        if misses0:
            low, high = 1, len(fetches) - 1
            while low < high:
                mid = (low + high) // 2
                drive, fetches, _ = make()
                metrics, _ = simulate_pipelined(
                    fetches, drive, read_ahead=mid
                )
                if metrics.continuous:
                    high = mid
                else:
                    low = mid + 1
            needed = low
        return misses0, needed, placement.max_gap, placement.mean_gap

    def build(name: str):
        def make():
            drive = build_drive()
            freemap = FreeMap(drive.slots)
            params = drive.parameters()
            upper = continuity.max_scattering(
                Architecture.PIPELINED, block, params, profile.video_device
            )
            if name == "constrained":
                allocator = ConstrainedScatterAllocator(
                    drive, freemap, ScatterBounds(0.0, upper)
                )
            elif name == "random":
                allocator = RandomAllocator(
                    drive, freemap, random.Random(seed)
                )
            else:
                allocator = ContiguousAllocator(drive, freemap)
            placement = StrandPlacer(drive, allocator).place(blocks)
            fetches = FetchColumns.uniform(
                placement.slots, block.block_bits, block.playback_duration
            )
            drive.park(0)
            return drive, fetches, placement
        return make

    for name in ("constrained", "random", "contiguous"):
        misses0, needed, max_gap, mean_gap = minimum_read_ahead(build(name))
        table.add_row(name, max_gap * 1e3, mean_gap * 1e3, misses0, needed)
        read_ahead_needed[name] = needed
        max_gaps[name] = max_gap
    return E4Result(
        table=table, read_ahead_needed=read_ahead_needed, max_gaps=max_gaps
    )


# ---------------------------------------------------------------------------
# E5 — §3.3.2: buffering and read-ahead requirements
# ---------------------------------------------------------------------------

@dataclass
class E5Result:
    """Buffer-requirement table plus slow-motion accumulation check."""

    table: Table
    accumulation_rate: float
    switch_read_ahead: int


def e5_buffering(
    profile: HardwareProfile = TESTBED_1991,
    granularity: int = 4,
    concurrency: int = 4,
) -> E5Result:
    """Regenerate the §3.3.2 buffering table and the h bound."""
    drive = build_drive()
    params = drive.parameters()
    block = video_block_model(profile.video, granularity)
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
    h = buffering.task_switch_read_ahead(block, params)
    accumulation = buffering.slow_motion_accumulation_rate(
        block, params, scattering=params.seek_avg, slowdown=2.0
    )
    return E5Result(
        table=table, accumulation_rate=accumulation, switch_read_ahead=h
    )


# ---------------------------------------------------------------------------
# E6 — §3.3.3 / Eqs. (4)-(6): homogeneous vs heterogeneous blocks
# ---------------------------------------------------------------------------

@dataclass
class E6Result:
    """Mixed-media storage comparison."""

    table: Table
    homogeneous_bound: float
    heterogeneous_bound: float


def e6_mixed_media(
    profile: HardwareProfile = TESTBED_1991,
) -> E6Result:
    """Compare the two §3.3.3 schemes for storing audio + video."""
    drive = build_drive()
    params = drive.parameters()
    msm = default_msm(profile, drive)
    video_block = video_block_model(
        profile.video, msm.policies.video.granularity
    )
    audio_block = BlockModel(
        unit_rate=profile.audio.sample_rate,
        unit_size=profile.audio.sample_size,
        granularity=msm.policies.audio.granularity,
    )
    homogeneous = continuity.max_scattering_mixed(
        video_block, audio_block, params, heterogeneous=False
    )
    heterogeneous = continuity.max_scattering_mixed(
        video_block, audio_block, params, heterogeneous=True
    )
    table = Table(
        title="E6: mixed audio+video storage (§3.3.3, Eqs. 4-6)",
        columns=["scheme", "l_ds max (ms)", "implicit sync", "per-medium optimization"],
    )
    table.add_row("homogeneous blocks", homogeneous * 1e3, False, True)
    table.add_row("heterogeneous blocks", heterogeneous * 1e3, True, False)
    return E6Result(
        table=table,
        homogeneous_bound=homogeneous,
        heterogeneous_bound=heterogeneous,
    )


# ---------------------------------------------------------------------------
# E7 — §3's HDTV worked example
# ---------------------------------------------------------------------------

@dataclass
class E7Result:
    """The HDTV infeasibility numbers."""

    table: Table
    array_throughput: float
    hdtv_demand: float

    @property
    def shortfall(self) -> float:
        """How many times short the array falls."""
        return self.hdtv_demand / self.array_throughput


def e7_hdtv() -> E7Result:
    """Regenerate: 4 KB blocks, 100 heads, ~10 ms seek ⇒ ~0.32 Gbit/s.

    "This is inadequate for the retrieval of even one HDTV-quality video
    strand which may require data transfer rates of up to 2.5 Gigabit/s."
    """
    profile = HDTV_2_5_GBIT
    block_bits = kilobytes(4)
    throughput = continuity.effective_throughput(
        block_bits, profile.disk, profile.disk.seek_max
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
    streaming = profile.disk.heads * profile.disk.transfer_rate
    table.add_row("same array, zero-gap streaming", streaming / 1e9)
    return E7Result(
        table=table, array_throughput=throughput, hdtv_demand=demand
    )


# ---------------------------------------------------------------------------
# E8 — §4.2 / Eqs. (19)-(20): editing copy bounds
# ---------------------------------------------------------------------------

@dataclass
class E8Result:
    """Seam repair measurements against the paper bounds."""

    table: Table
    copies: Dict[str, int]
    bounds: Dict[str, Tuple[int, int]]


def e8_edit_copy(
    profile: HardwareProfile = TESTBED_1991,
    clip_seconds: float = 8.0,
    dense_target: float = 0.80,
) -> E8Result:
    """Measure seam-repair copying on sparse and dense disks.

    Two clips are stored at opposite ends of the disk (placement hints at
    the first and last slots) and CONCATEd, so the seam spans nearly the
    full stroke and exceeds the scattering bound.  The video device is
    narrowed to a 2-frame buffer (granularity 1), putting the continuity
    bound below the drive's full-stroke access time — otherwise the seam
    could never violate.  The repairer's measured copy count must respect
    Eqs. (19)/(20), and the repaired rope's seams must all be continuous.
    """
    from repro.core.symbols import DisplayDeviceParameters

    results: Dict[str, int] = {}
    bounds: Dict[str, Tuple[int, int]] = {}
    table = Table(
        title="E8: scattering maintenance while editing (§4.2, Eqs. 19-20)",
        columns=[
            "disk state", "occupancy", "seam gap before (ms)",
            "seam bound (ms)", "blocks copied", "sparse bound",
            "dense bound", "seams continuous after",
        ],
    )
    narrow_device = DisplayDeviceParameters(
        display_rate=profile.video_device.display_rate, buffer_frames=2
    )
    for label, densify in (("sparse", False), ("dense", True)):
        drive = build_drive()
        msm = MultimediaStorageManager(
            drive, profile.video, profile.audio, narrow_device,
            profile.audio_device,
        )
        mrs = MultimediaRopeServer(msm, auto_repair=False)
        frames_a = frames_for_duration(
            profile.video, clip_seconds, source="early"
        )
        frames_b = frames_for_duration(
            profile.video, clip_seconds, source="late"
        )
        strand_a = msm.store_video_strand(frames_a, hint=0)
        if densify:
            # Age the disk to the dense regime with *distributed* leftover
            # holes (every fifth slot), the realistic shape of a full disk
            # after allocate/release churn.
            deficit = int(
                msm.freemap.slots * dense_target
            ) - msm.freemap.used_count
            msm.freemap.claim(islice(
                (s for s in msm.freemap.free_slots() if s % 5 != 2),
                max(0, deficit),
            ))
        strand_b = msm.store_video_strand(
            frames_b, hint=drive.slots - 1
        )
        rope_a = mrs.adopt_strands("editor", video_strand_id=strand_a.strand_id)
        rope_b = mrs.adopt_strands("editor", video_strand_id=strand_b.strand_id)
        merged = mrs.concate("editor", rope_a, rope_b)
        repairer = mrs.repairer
        checks = repairer.check_segments(merged.segments)
        gap_before = max((c.gap for c in checks), default=0.0)
        segments, report = repairer.repair_segments(merged.segments)
        after = repairer.check_segments(segments)
        continuous = all(not c.violates for c in after)
        lower = msm.policies.video.scattering_lower
        sparse_bound = copy_bound_sparse(msm.disk_params.seek_max, lower)
        dense_bound = copy_bound_dense(msm.disk_params.seek_max, lower)
        table.add_row(
            label, msm.occupancy, gap_before * 1e3,
            msm.policies.video.scattering_upper * 1e3,
            report.blocks_copied, sparse_bound, dense_bound, continuous,
        )
        results[label] = report.blocks_copied
        bounds[label] = (sparse_bound, dense_bound)
    return E8Result(table=table, copies=results, bounds=bounds)


# ---------------------------------------------------------------------------
# E9 — §4.1: rope-operation cost and sharing/GC behaviour
# ---------------------------------------------------------------------------

@dataclass
class E9Result:
    """Editing-cost and GC rows."""

    table: Table
    media_blocks_copied: Dict[str, int]
    gc_behaviour: Table


def e9_rope_ops(
    profile: HardwareProfile = TESTBED_1991,
    clip_seconds: float = 30.0,
) -> E9Result:
    """Show that editing is pointer manipulation: zero media copies.

    Each §4.1 operation runs on a freshly recorded pair of ropes (repair
    disabled so pure operation cost is visible); the table reports the
    interval counts and the number of media blocks copied (always 0).
    The GC table demonstrates interval sharing keeping strands alive.
    """
    table = Table(
        title="E9: rope operation cost (§4.1) — pointer manipulation only",
        columns=[
            "operation", "intervals before", "intervals after",
            "media blocks copied", "duration after (s)",
        ],
    )
    copied: Dict[str, int] = {}

    def fresh():
        drive = build_drive()
        msm = default_msm(profile, drive)
        mrs = MultimediaRopeServer(msm, auto_repair=False)
        rng = random.Random(5)
        q1, r1 = mrs.record(
            "u",
            frames=frames_for_duration(
                profile.video, clip_seconds, source="a"
            ),
            chunks=generate_talk_spurts(
                profile.audio, clip_seconds, 0.3, rng
            ),
        )
        mrs.stop(q1)
        q2, r2 = mrs.record(
            "u",
            frames=frames_for_duration(
                profile.video, clip_seconds / 2, source="b"
            ),
            chunks=generate_talk_spurts(
                profile.audio, clip_seconds / 2, 0.3, rng
            ),
        )
        mrs.stop(q2)
        return msm, mrs, r1, r2

    def blocks_stored(msm) -> int:
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
        after_blocks = blocks_stored(msm)
        copied[name] = after_blocks - before_blocks
        table.add_row(
            name, before_intervals, result.interval_count(),
            after_blocks - before_blocks, result.duration,
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
    return E9Result(
        table=table, media_blocks_copied=copied, gc_behaviour=gc_table
    )


# ---------------------------------------------------------------------------
# E10 — §4: silence elimination
# ---------------------------------------------------------------------------

@dataclass
class E10Result:
    """Silence-elimination sweep."""

    table: Table
    series: SweepSeries


def e10_silence(
    profile: HardwareProfile = TESTBED_1991,
    duration: float = 60.0,
    seed: int = 23,
) -> E10Result:
    """Sweep target silence ratios; storage shrinks, duration does not."""
    table = Table(
        title="E10: silence elimination (§4) — storage vs silence ratio",
        columns=[
            "target silence", "blocks stored", "blocks silent",
            "space saved", "duration preserved",
        ],
    )
    series = SweepSeries(
        "silence saving", "target silence ratio", "fraction of bits saved"
    )
    for ratio in (0.0, 0.2, 0.4, 0.6, 0.8):
        drive = build_drive()
        msm = default_msm(profile, drive)
        rng = random.Random(seed)
        chunks = generate_talk_spurts(profile.audio, duration, ratio, rng)
        strand = msm.store_audio_strand(chunks, SilenceDetector())
        baseline_bits = chunks[-1].end_sample * profile.audio.sample_size
        saved = 1.0 - strand.stored_bits / baseline_bits
        preserved = abs(strand.duration - duration) < 1.0
        table.add_row(
            ratio, strand.stored_block_count,
            strand.block_count - strand.stored_block_count,
            saved, preserved,
        )
        series.add(ratio, saved)
    return E10Result(table=table, series=series)


# ---------------------------------------------------------------------------
# E11 — Table 1 / §2: the symbol model across profiles
# ---------------------------------------------------------------------------

@dataclass
class E11Result:
    """Derived Table-1 quantities per hardware profile."""

    table: Table


def e11_symbols(granularity: int = 4) -> E11Result:
    """Regenerate a Table-1-style parameter table for each profile."""
    from repro.config import PROFILES
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
        block = video_block_model(profile.video, granularity)
        read = block.read_time(profile.disk, profile.disk.seek_avg)
        display = block.display_time(profile.video_device)
        feasible = continuity.is_continuous(
            Architecture.PIPELINED, block, profile.disk,
            profile.video_device, profile.disk.seek_avg,
        )
        table.add_row(
            name, profile.video.frame_rate,
            profile.video.frame_size / 1e3,
            block.playback_duration * 1e3, read * 1e3, display * 1e3,
            feasible,
        )
    return E11Result(table=table)


# ---------------------------------------------------------------------------
# E12 — §5: end-to-end prototype session
# ---------------------------------------------------------------------------

@dataclass
class E12Result:
    """End-to-end session outcome."""

    table: Table
    all_continuous: bool
    rejected_at: int
    startup_series: SweepSeries


def e12_prototype(
    profile: HardwareProfile = TESTBED_1991,
    clip_seconds: float = 12.0,
) -> E12Result:
    """Record, edit, and play back concurrently at the admission limit.

    Mirrors the §5 prototype's use: several clips are recorded, one rope
    is edited (INSERT), then playback requests are admitted until the
    controller refuses; the admitted set is serviced in rounds and must
    play continuously.  Startup latency is reported per admitted request
    ("larger the value of k, larger is the startup time").
    """
    drive = build_drive()
    msm = default_msm(profile, drive)
    mrs = MultimediaRopeServer(msm)
    rng = random.Random(17)
    rope_ids = []
    for i in range(3):
        request_id, rope_id = mrs.record(
            "user",
            frames=frames_for_duration(
                profile.video, clip_seconds, source=f"clip{i}"
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
    session = PlaybackSession(mrs)
    result = session.run(admitted)
    table = Table(
        title="E12: end-to-end prototype session (§5)",
        columns=["request", "blocks", "misses", "startup latency (s)"],
    )
    startup = SweepSeries(
        "startup latency", "request #", "startup latency (s)"
    )
    for number, request_id in enumerate(admitted, start=1):
        metrics = result.metrics[request_id]
        table.add_row(
            request_id, metrics.blocks_delivered, metrics.misses,
            metrics.startup_latency,
        )
        startup.add(number, metrics.startup_latency)
    return E12Result(
        table=table,
        all_continuous=result.all_continuous,
        rejected_at=rejected_at,
        startup_series=startup,
    )
