"""E13–E22: ``measure`` functions beyond the paper's published evaluation.

The §6.2 future-work directions and several claims the paper makes in
prose but never measures, each implemented and driven end to end:

* **E13** — variable-rate compression bounds
  (:mod:`repro.core.variable_rate`);
* **E14** — seek-minimizing request ordering vs the pessimistic
  round-robin capacity estimate (:mod:`repro.service.scan_order`);
* **E15** — storage reorganization on a densely utilized disk
  (:mod:`repro.fs.reorganize`);
* **E16** — variable-speed playback with disk task switching
  (:mod:`repro.service.variable_speed`);
* **E17** — Fig. 3 realized through striped storage on multi-head
  arrays (:mod:`repro.fs.striped`);
* **E18** — §3.3.1 strict-vs-average continuity under randomized
  rotational latency (anti-jitter read-ahead);
* **E19** — the §3 unified media+text server
  (:mod:`repro.service.besteffort`);
* **E20** — the general Eq.-(11) per-request-k admission
  (:func:`repro.core.admission.solve_heterogeneous_k`);
* **E21** — concurrent storage + retrieval in one round loop
  (:mod:`repro.service.mixed_rounds`);
* **E22** — glitch rate vs injected fault rate, with and without retry
  recovery (:mod:`repro.faults`; no paper counterpart).
"""

from __future__ import annotations

import random
from typing import List

from repro.analysis.experiments import (
    PROFILE,
    equal_streams,
    fetches_with_gap,
)
from repro.analysis.report import Result, Table
from repro.core import admission as adm
from repro.core import continuity
from repro.core.continuity import Architecture
from repro.core.symbols import BlockModel, VideoStream, video_block_model
from repro.core.variable_rate import group_read_ahead, vbr_gain
from repro.disk import (
    ConstrainedScatterAllocator,
    FreeMap,
    ScatterBounds,
    StrandPlacer,
    build_array,
    build_drive,
)
from repro.errors import AdmissionRejected
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.fs.reorganize import Reorganizer
from repro.fs.striped import StripedStorageManager
from repro.media import frames_for_duration
from repro.media.codec import DifferencingCodec
from repro.rope import build_rope_server
from repro.rope.server import FetchColumns
from repro.service import simulate_concurrent, simulate_pipelined
from repro.service.besteffort import TextQueue, TextRequest
from repro.service.mixed_rounds import RecordStream
from repro.service.rounds import RoundRobinService, StreamState
from repro.service.scan_order import measured_capacity, scan_order
from repro.service.variable_speed import simulate_variable_speed

__all__ = [
    "E22_BLOCKS",
    "e13_variable_rate",
    "e14_scan_ordering",
    "e15_reorganization",
    "e16_variable_speed",
    "e17_striping",
    "e18_antijitter",
    "e19_unified_server",
    "e20_heterogeneous_k",
    "e21_record_and_play",
    "e22_fault_recovery",
]

#: Blocks each E22 sweep point plays (its glitch rates are counts / this).
E22_BLOCKS = 120


def e13_variable_rate() -> Result:
    """Quantify §6.2: differencing compression widens the bounds."""
    params = build_drive().parameters()
    codec = DifferencingCodec(key_ratio=2.0, diff_ratio=20.0, group_size=10)
    table = Table(
        title="E13: variable-rate compression bounds (§6.2 extension)",
        columns=[
            "granularity", "CBR bound (ms)", "VBR strict (ms)",
            "VBR averaged (ms)", "gain", "read-ahead (blocks)",
        ],
    )
    for granularity in (1, 2, 4):
        comparison = vbr_gain(PROFILE.video, codec, granularity, params)
        table.add_row(
            granularity,
            comparison.cbr_bound * 1e3,
            comparison.vbr_strict_bound * 1e3,
            comparison.vbr_average_bound * 1e3,
            comparison.gain,
            group_read_ahead(comparison.profile),
        )
    return Result((table,))


def e14_scan_ordering() -> Result:
    """Service 3 regional streams under both orderings (§6.2).

    Streams live in different disk regions (as real strands do), and the
    round-robin arrival order is adversarial (low, high, mid, ...), so
    FIFO rotation pays long seeks every switch while SCAN sweeps once per
    round.  The measured per-stream cost then supports a capacity
    estimate above Eq. (17)'s pessimistic one.
    """
    n, k, blocks = 3, 12, 120
    block = video_block_model(PROFILE.video, 1)

    def regional_streams(drive) -> List[StreamState]:
        # Adversarial arrival order: alternate far ends.
        order = sorted(range(n), key=lambda r: (r % 2, r))
        order = [order[i // 2] if i % 2 == 0 else order[-(i // 2 + 1)]
                 for i in range(len(order))]
        streams = []
        for i, region in enumerate(order[:n]):
            base_slot = region * drive.slots // n
            # Consecutive slots: the compact placement a constrained
            # allocator produces inside one strand's region.
            fetches = FetchColumns.uniform(
                (min(base_slot + j, drive.slots - 1) for j in range(blocks)),
                block.block_bits, block.playback_duration,
            )
            streams.append(
                StreamState(
                    request_id=f"s{i}", fetches=fetches,
                    buffer_capacity=2 * k,
                )
            )
        return streams

    class RoundTimes(list):
        """After-turn work that only notes how long the turns took."""

        due = float("inf")

        def serve(self, service, time, round_start, active, k):
            if time > round_start:
                self.append(time - round_start)
            return time, False

        def results(self):
            return {}

    def round_times(order) -> RoundTimes:
        drive = build_drive()
        times = RoundTimes()
        RoundRobinService(
            drive, lambda r, m: k, order=order, after_turns=[times]
        ).run(regional_streams(drive))
        return times

    rr_times, scan_times = round_times(None), round_times(scan_order)
    params = build_drive().parameters()
    descriptor = adm.RequestDescriptor(
        block=block, scattering_avg=params.seek_avg
    )
    table = Table(
        title="E14: request-service ordering (§6.2 extension)",
        columns=[
            "discipline", "mean round (ms)", "worst round (ms)",
            "capacity estimate",
        ],
    )
    table.add_row(
        "round-robin (paper)",
        sum(rr_times) / len(rr_times) * 1e3, max(rr_times) * 1e3,
        adm.n_max(adm.service_parameters([descriptor], params)),
    )
    table.add_row(
        "SCAN-ordered",
        sum(scan_times) / len(scan_times) * 1e3, max(scan_times) * 1e3,
        measured_capacity(block.playback_duration, k, max(scan_times), n),
    )
    return Result((table,))


def e15_reorganization() -> Result:
    """Fill and fragment the disk until placement fails, then reorganize.

    Strands are placed with a *minimum* spacing (a real §4.2 copy budget)
    and interleaved deletions fragment the free space so that a new
    strand's scattering window cannot be satisfied; reorganization
    migrates the survivors compactly and the placement succeeds.
    """
    msm = build_rope_server().msm
    drive = msm.drive
    # Fill most of the disk with short strands (each packs ~60 adjacent
    # slots under the default policy)...
    strands = []
    clip = frames_for_duration(PROFILE.video, 8.0, source="filler")
    while msm.occupancy < 0.72:
        strands.append(msm.store_video_strand(clip))
    # ... then delete every second one: free space is plentiful (~40 %)
    # but shredded into ~60-slot runs separated by live strands.
    for victim in strands[::2]:
        msm.delete_strand(victim.strand_id)
    # The demanding placement: a long strand with a *tight* scattering
    # upper bound (hops of at most ~3 cylinders).  No fragmented free run
    # is long enough, so placement fails until the survivors are
    # migrated into one compact region.
    tight = ScatterBounds(
        0.0,
        drive.rotation.average_latency + drive.seek_model.seek_time(3) + 1e-6,
    )
    reorganizer = Reorganizer(msm)
    target_blocks = 160
    feasible_before = reorganizer.placement_feasible(target_blocks, tight)
    report = reorganizer.make_room(target_blocks, tight)
    table = Table(
        title="E15: storage reorganization on a dense disk (§6.2 extension)",
        columns=["quantity", "value"],
    )
    table.add_row("occupancy", msm.occupancy)
    table.add_row("placement feasible before", feasible_before)
    table.add_row("strands migrated", report.strands_migrated)
    table.add_row("blocks moved", report.blocks_moved)
    table.add_row("placement feasible after", report.success)
    return Result((table,))


def e16_variable_speed() -> Result:
    """Drive the §3.3.2 variable-speed claims end to end."""
    block = video_block_model(PROFILE.video, 4)
    table = Table(
        title="E16: variable-speed playback (§3.3.2)",
        columns=[
            "mode", "blocks fetched", "misses", "buffer high-water",
            "task switches", "disk idle (s)",
        ],
    )
    for label, speed, skipping, capacity in (
        ("normal (1x)", 1.0, False, 8),
        ("fast-forward 2x, skipping", 2.0, True, 8),
        ("fast-forward 2x, no skip", 2.0, False, 16),
        ("slow motion 0.5x", 0.5, False, 8),
    ):
        drive = build_drive()
        fetches = fetches_with_gap(
            drive, 120, drive.parameters().seek_avg,
            block.block_bits, block.playback_duration,
        )
        result = simulate_variable_speed(
            fetches, drive, speed=speed, skipping=skipping,
            buffer_capacity=capacity,
        )
        table.add_row(
            label, result.metrics.blocks_delivered, result.metrics.misses,
            result.buffer_high_water, result.task_switches,
            result.switch_idle_time,
        )
    return Result((table,))


def e17_striping() -> Result:
    """Store and play a demanding stream at increasing stripe widths.

    The stream (45 fps, granularity 1, 5 s) leaves a single testbed drive
    no slack — its pipelined placement works but an unconstrained one
    does not, and higher rates would be outright infeasible.  Striping
    over p heads multiplies the per-head budget by (p−1); the experiment
    stores the same stream through :class:`StripedStorageManager` at
    p = 2, 4, 8 and plays it back concurrently, reporting the per-member
    scattering bound and the measured misses (all zero — Fig. 3 realized
    through the storage manager, not synthetic placements).
    """
    stream = VideoStream(frame_rate=45.0, frame_size=PROFILE.video.frame_size)
    frames = frames_for_duration(stream, 5.0, source="stripe")
    table = Table(
        title="E17: striped storage on multi-head arrays (Fig. 3 end to end)",
        columns=[
            "heads p", "per-member l_ds bound (ms)", "blocks",
            "misses", "continuous",
        ],
    )
    for heads in (2, 4, 8):
        array = build_array(heads=heads)
        manager = StripedStorageManager(
            array, stream, PROFILE.video_device, granularity=1
        )
        strand = manager.store_video_strand(frames)
        metrics, _ = simulate_concurrent(
            manager.playback_fetches(strand), array
        )
        table.add_row(
            heads, manager.scattering_upper * 1e3, strand.block_count,
            metrics.misses, metrics.continuous,
        )
    return Result((table,))


def e18_antijitter() -> Result:
    """Demonstrate §3.3.1: jitter breaks strict continuity; read-ahead
    restores average continuity.

    The placement sits exactly at the pipelined continuity bound — safe
    under *deterministic* (expected) rotational latency, but "difficult
    to achieve in the presence of scheduling and seek time variations":
    with randomized rotation, blocks landing past the expectation miss.
    "By introducing anti-jitter delay at the beginning of each request,
    we can relax the continuity requirements so as to satisfy it on an
    average" — a k-block read-ahead absorbs the variation entirely.
    """
    block = video_block_model(PROFILE.video, 1)
    table = Table(
        title="E18: anti-jitter read-ahead under randomized rotation "
              "(§3.3.1)",
        columns=[
            "read-ahead (blocks)", "misses", "miss ratio",
            "startup latency (ms)",
        ],
    )
    for read_ahead in (0, 1, 2, 4, 8):
        drive = build_drive(randomized_rotation=True, rng=random.Random(31))
        bound = continuity.max_scattering(
            Architecture.PIPELINED, block, drive.parameters(),
            PROFILE.video_device,
        )
        fetches = fetches_with_gap(
            drive, 300, bound, block.block_bits, block.playback_duration
        )
        metrics, _ = simulate_pipelined(
            fetches, drive, read_ahead=read_ahead
        )
        table.add_row(
            read_ahead, metrics.misses, metrics.miss_ratio,
            metrics.startup_latency * 1e3,
        )
    return Result((table,))


def e19_unified_server() -> Result:
    """Serve text files from the media server's slack (§3).

    "A common file server can ... integrate the functions of both a
    conventional text file server and a multimedia file server."  Text
    blocks are stored in the scatter gaps and served inside each round's
    leftover Eq.-(11) budget, so the real-time guarantee is preserved by
    construction; text throughput falls as the media load grows.
    """
    media_blocks, text_blocks, k = 80, 200, 4
    block = video_block_model(PROFILE.video, 4)
    table = Table(
        title="E19: unified media + text service (§3)",
        columns=[
            "media streams", "media misses", "text blocks in slack",
            "text share of round budget",
        ],
    )
    for n in (0, 1, 2):
        drive = build_drive()
        streams = equal_streams(
            drive, n, media_blocks, drive.parameters().seek_avg, block,
            2 * k, prefix="m",
        )
        text = TextRequest(
            "text", list(range(drive.slots // 2, drive.slots // 2 + text_blocks))
        )
        queue = TextQueue([text])
        service = RoundRobinService(drive, lambda r, m: k, after_turns=[queue])
        if streams:
            metrics = service.run(streams)
            misses = sum(m.misses for m in metrics.values())
            budget = service.rounds_run * k * block.playback_duration
            share = queue.time_used / budget if budget else 0.0
        else:
            # No media load: the entire disk belongs to text.
            queue.drain(drive, 0.0)
            misses = 0
            share = 1.0
        table.add_row(n, misses, queue.blocks_served, share)
    return Result((table,))


def e20_heterogeneous_k() -> Result:
    """Solve Eq. (11) per request instead of averaging (§3.4's general
    formulation, which the paper leaves open).

    Audio requests drain ~4x slower than video on the testbed, so the
    averaged (α, β, γ) model — whose γ is the *fastest* drain — charges
    every audio stream as if it were video and rejects mixes the disk can
    easily serve.  The per-request solver admits them with small k_i for
    audio and larger k_i for video, verified against the exact Eq. (11).
    """
    params = build_drive().parameters()
    video_req = adm.RequestDescriptor(
        block=video_block_model(PROFILE.video, 4),
        scattering_avg=params.seek_avg,
    )
    audio_req = adm.RequestDescriptor(
        block=BlockModel(
            unit_rate=PROFILE.audio.sample_rate,
            unit_size=PROFILE.audio.sample_size,
            granularity=4096,
        ),
        scattering_avg=params.seek_avg,
    )
    table = Table(
        title="E20: uniform-average vs per-request k (Eq. 11 in full)",
        columns=[
            "workload", "uniform model admits", "per-request k admits",
            "k values", "Eq. 11 verified",
        ],
    )
    for name, mix in (
        ("3 video", [video_req] * 3),
        ("2 video + 4 audio", [video_req] * 2 + [audio_req] * 4),
        ("1 video + 10 audio", [video_req] + [audio_req] * 10),
        ("16 audio", [audio_req] * 16),
    ):
        try:
            adm.k_transition(adm.service_parameters(mix, params))
            uniform_ok = True
        except AdmissionRejected:
            uniform_ok = False
        ks = adm.solve_heterogeneous_k(mix, params)
        table.add_row(
            name, uniform_ok, ks is not None,
            "-" if ks is None else ",".join(str(k) for k in sorted(set(ks))),
            ks is not None and adm.round_feasible(mix, params, ks),
        )
    return Result((table,))


def e21_record_and_play() -> Result:
    """Serve RECORD and PLAY requests in the same rounds (§3.4).

    The admission analysis covers "storage/retrieval requests" uniformly
    (writes cost what reads cost, per the §3 assumptions); the experiment
    runs mixed populations and verifies that both directions stay
    continuous at sane load and that an overloaded mix fails on the
    recording side first (capture cannot be paused, so staging overruns
    are where overload surfaces).
    """
    blocks, k = 40, 4
    block = video_block_model(PROFILE.video, 4)
    table = Table(
        title="E21: concurrent storage + retrieval (§3.4)",
        columns=[
            "workload", "play misses", "record misses",
            "all continuous",
        ],
    )
    for label, players, recorders, capacity in (
        ("1 record + 1 play", 1, 1, 4),
        ("1 record + 2 play", 2, 1, 4),
        ("2 record + 1 play", 1, 2, 4),
        ("overload: 1-block staging, 3 play", 3, 1, 1),
    ):
        drive = build_drive()
        bounds = ScatterBounds(0.0, drive.rotation.average_latency + 0.01)
        placer = StrandPlacer(
            drive,
            ConstrainedScatterAllocator(drive, FreeMap(drive.slots), bounds),
        )
        records = [
            RecordStream(
                request_id=f"rec{i}",
                slots=placer.place(blocks).slots,
                block_period=block.playback_duration,
                staging_capacity=capacity,
            )
            for i in range(recorders)
        ]
        plays = equal_streams(
            drive, players, blocks, drive.parameters().seek_avg, block,
            2 * k, prefix="play",
        )
        drive.park(0)
        metrics = RoundRobinService(
            drive, lambda r, n: k, after_turns=records
        ).run(plays)
        play_misses = sum(
            m.misses for rid, m in metrics.items() if rid.startswith("play")
        )
        record_misses = sum(
            m.misses for rid, m in metrics.items() if rid.startswith("rec")
        )
        table.add_row(
            label, play_misses, record_misses,
            play_misses + record_misses == 0,
        )
    return Result((table,))


def e22_fault_recovery() -> Result:
    """Sweep the injected fault rate over a fixed playback workload.

    No paper counterpart.  With a retry budget the glitch rate tracks the
    *defect* rate only (transients are absorbed); with budget 0 it tracks
    the total fault rate.
    """
    slots = list(range(0, E22_BLOCKS * 3, 3))
    table = Table(
        title="E22: glitch rate vs fault rate under recovery "
              f"({E22_BLOCKS} blocks, retry budget 2 vs 0)",
        columns=[
            "transient", "defects", "fault rate",
            "glitch rate (recovered)", "glitch rate (budget 0)", "retries",
        ],
    )

    def play(transient: int, defects: int, budget: int):
        drive = build_drive()
        drive.attach_injector(FaultInjector(FaultPlan.random(
            seed=22, slots=slots, transient=transient, defects=defects
        )))
        metrics, _ = simulate_pipelined(
            FetchColumns.uniform(slots, drive.block_bits, 0.1334),
            drive,
            read_ahead=2,
            recovery=RecoveryPolicy(retry_budget=budget),
        )
        return metrics, drive.stats

    for transient, defects in (
        (0, 0), (3, 1), (6, 2), (12, 4), (24, 8), (48, 16)
    ):
        recovered, stats = play(transient, defects, budget=2)
        bare, _ = play(transient, defects, budget=0)
        table.add_row(
            transient, defects, (transient + defects) / E22_BLOCKS,
            recovered.miss_ratio, bare.miss_ratio, stats.retries,
        )
    return Result((table,))
