#!/usr/bin/env python
"""The unified file server: media guarantees + text files + mixed clients.

The §3 claim, end to end: one disk serves real-time video, real-time
audio, and conventional text files together.

1. Media strands are stored with constrained scattering; text blocks are
   stored in the gaps (GapFiller).
2. A *mixed* client population (video + audio-only) is admitted with the
   general per-request-k solver — the paper's averaged model would
   reject this mix outright.
3. The one §3.4 round loop (`RoundRobinService`) serves every media
   stream glitch-free; a `TextQueue` handed to it as after-turn work
   spends each round's leftover Eq.-(11) budget on text reads.

Run:  python examples/unified_server.py
"""

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core import AdmissionController, RequestDescriptor
from repro.core.symbols import BlockModel, video_block_model
from repro.disk import GapFiller, build_drive, FreeMap
from repro.service.besteffort import TextQueue, TextRequest
from repro.service.rounds import RoundRobinService, StreamState


def main() -> None:
    profile = TESTBED_1991
    drive = build_drive()
    params = drive.parameters()

    # --- mixed-client admission -------------------------------------------
    video_block = video_block_model(profile.video, 4)
    audio_block = BlockModel(
        unit_rate=profile.audio.sample_rate,
        unit_size=profile.audio.sample_size,
        granularity=4096,
    )
    video_req = RequestDescriptor(video_block, scattering_avg=params.seek_avg)
    audio_req = RequestDescriptor(audio_block, scattering_avg=params.seek_avg)
    controller = AdmissionController(params, per_request=True)
    population = [("video", video_req)] * 2 + [("audio", audio_req)] * 4
    decisions = []
    for kind, descriptor in population:
        decision = controller.admit(descriptor)
        decisions.append((kind, descriptor, decision.request_id))
        print(
            f"admitted {kind} client #{decision.request_id}: "
            f"k_i = {controller.k_for(decision.request_id)}"
        )
    print(
        "(the paper's averaged single-k model rejects this mix; the "
        "general Eq.-11 solver admits it)\n"
    )

    # --- build the service: media streams + a text queue --------------------
    streams = []
    for kind, descriptor, request_id in decisions:
        k = controller.k_for(request_id)
        block = descriptor.block
        fetches = fetches_with_gap(
            drive, 60, params.seek_avg, block.block_bits,
            block.playback_duration,
        )
        streams.append(
            StreamState(
                request_id=f"{kind}{request_id}",
                fetches=fetches,
                buffer_capacity=2 * k,
                k_override=k,
            )
        )
    text = TextRequest("mail-spool", list(range(5000, 5300)))
    queue = TextQueue([text])
    metrics = RoundRobinService(
        drive,
        lambda round_number, n: max(controller.k_values().values()),
        after_turns=[queue],
    ).run(streams)

    # --- report ----------------------------------------------------------------
    print("service results:")
    for request_id, m in sorted(metrics.items()):
        print(
            f"  {request_id:<8} {m.blocks_delivered:3d} blocks, "
            f"misses {m.misses}"
        )
    total_misses = sum(m.misses for m in metrics.values())
    print(
        f"\ntext served in media slack: {queue.blocks_served} of "
        f"{len(text.slots)} blocks "
        f"({queue.time_used:.2f} s of disk time)"
    )
    queue.drain(drive, 0.0)
    print(f"text completed after media drain: {text.finished}")
    verdict = "held" if total_misses == 0 else "VIOLATED"
    print(f"real-time guarantee {verdict} for all 6 media clients")


if __name__ == "__main__":
    main()
