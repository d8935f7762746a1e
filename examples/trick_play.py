#!/usr/bin/env python
"""Trick play and smarter storage: the §3.3.2 and §6.2 machinery.

An entertainment server demonstrates the behaviours beyond plain
playback:

1. fast-forward at 2× — with skipping (half the disk work) and without
   (double the buffering);
2. slow motion — buffers fill, the disk repeatedly hands its surplus
   bandwidth to other tasks, and playback still never glitches;
3. chapter triggers firing at exact media positions;
4. the §6.2 variable-rate payoff: how much more scattering tolerance a
   differencing codec buys over constant-rate storage.

Run:  python examples/trick_play.py
"""

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core import vbr_gain
from repro.core.symbols import video_block_model
from repro.disk import build_drive
from repro.media import frames_for_duration
from repro.media.codec import DifferencingCodec
from repro.rope import build_rope_server
from repro.service import play_single, task_switches, transform_plan


def main() -> None:
    profile = TESTBED_1991
    block = video_block_model(profile.video, 4)

    def fresh_plan():
        drive = build_drive()
        fetches = fetches_with_gap(
            drive, 120, drive.parameters().seek_avg,
            block.block_bits, block.playback_duration,
        )
        return drive, fetches

    # --- 1-2: variable-speed playback --------------------------------------
    print("variable-speed playback of a 16 s clip (120 blocks):")
    for label, speed, skipping, capacity in (
        ("normal 1.0x          ", 1.0, False, 8),
        ("fast-forward 2x skip ", 2.0, True, 8),
        ("fast-forward 2x full ", 2.0, False, 16),
        ("slow motion 0.5x     ", 0.5, False, 8),
    ):
        drive, fetches = fresh_plan()
        stream = play_single(
            transform_plan(fetches, speed, skipping), drive,
            buffer_capacity=capacity,
        )
        switches, idle = task_switches(stream)
        print(
            f"  {label} fetched {stream.metrics.blocks_delivered:3d} "
            f"blocks, misses {stream.metrics.misses}, task switches "
            f"{switches:3d}, disk idle {idle:5.1f} s"
        )

    # --- 3: chapter triggers -------------------------------------------------
    mrs = build_rope_server()
    frames = frames_for_duration(profile.video, 12.0, source="movie")
    request_id, rope_id = mrs.record("studio", frames=frames)
    mrs.stop(request_id)
    for time, chapter in ((0.0, "opening"), (4.0, "act II"), (9.0, "finale")):
        mrs.add_trigger("studio", rope_id, time, chapter)
    play_id = mrs.play("studio", rope_id)
    print("\nchapter triggers during playback:")
    for offset, text in mrs.trigger_schedule(play_id):
        print(f"  t={offset:6.3f} s  ->  {text!r}")

    # --- 4: the variable-rate payoff ------------------------------------------
    codec = DifferencingCodec(key_ratio=2.0, diff_ratio=20.0, group_size=10)
    comparison = vbr_gain(
        profile.video, codec, 4, build_drive().parameters()
    )
    print(
        f"\nvariable-rate storage (differencing codec): scattering bound "
        f"{comparison.cbr_bound * 1e3:.1f} ms (CBR) -> "
        f"{comparison.vbr_average_bound * 1e3:.1f} ms (VBR averaged), "
        f"a {comparison.gain:.2f}x gain for one GOP of read-ahead"
    )


if __name__ == "__main__":
    main()
