"""Fault injection and degraded service: playback on an unhealthy disk.

The paper guarantees continuity on a healthy drive; this example breaks
the drive on purpose.  A seeded :class:`FaultPlan` schedules transient
read errors (recoverable by bounded retry) and latent sector errors
(permanent — the block is skipped as a recorded glitch), the playback
session recovers what it can, and the causal trace explains every glitch:
each skipped block's span carries a ``fault.skip`` child naming the slot
and the reason.  The
same seed then replays bit-identically, and the identical workload on a
healthy drive plays clean — the glitches were the faults' doing, nothing
else.

Run:  PYTHONPATH=src python examples/fault_tolerance.py
"""

from repro.config import TESTBED_1991
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.media.frames import frames_for_duration
from repro.obs import Observability
from repro.rope import Media, build_rope_server
from repro.service import PlaybackSession

SEED = 42


def build_stack():
    """A fresh testbed server with one 8-second recorded clip."""
    profile = TESTBED_1991
    mrs = build_rope_server()
    frames = frames_for_duration(profile.video, 8.0, source="clip")
    request_id, rope_id = mrs.record("ops", frames=frames)
    mrs.stop(request_id)
    play_id = mrs.play("ops", rope_id, media=Media.VIDEO)
    return mrs.msm.drive, mrs, play_id


def chaos_run(seed):
    """Play the clip over a seeded fault plan; return the summary."""
    drive, mrs, play_id = build_stack()
    slots = [
        fetch.slot
        for fetch in mrs.playback_plan(play_id).video
        if fetch.slot is not None
    ]
    plan = FaultPlan.random(seed=seed, slots=slots, transient=5, defects=2)
    drive.attach_injector(FaultInjector(plan))
    # A plain observer traces every block, so every skip has its span.
    obs = Observability()
    session = PlaybackSession(
        mrs, recovery=RecoveryPolicy(retry_budget=2), obs=obs
    )
    result = session.run([play_id], k=4)
    return drive, obs.tracer, result, play_id


def main():
    print("=== Fault injection & degraded service ===")
    print(f"fault plan: seed={SEED}, 5 transient errors, 2 media defects")
    print()

    drive, tracer, result, play_id = chaos_run(SEED)
    metrics = result.metrics[play_id]
    print("-- chaos run --")
    print(f"blocks delivered : {metrics.blocks_delivered}")
    print(f"glitches (skips) : {metrics.skips}")
    print(f"faults injected  : {drive.stats.faults_injected}")
    print(f"retries issued   : {drive.stats.retries}")
    print(f"reads recovered  : {drive.stats.degraded_reads}")
    print()
    print("trace excerpt (every glitch is explained):")
    skips = tracer.spans(name="fault.skip")
    for skip in skips:
        block = tracer.span(skip.parent_id)
        print(
            f"  [{skip.start:10.6f}] block {block.attrs['block']:>3} "
            f"(slot {skip.attrs['slot']}): skipped, {skip.attrs['reason']}"
        )
    retries = len(tracer.spans(name="fault.retry"))
    print(f"  ({retries} retries recovered their blocks on time)")
    print()

    replay = chaos_run(SEED)[2].metrics[play_id]
    identical = replay.summary() == metrics.summary()
    print("-- deterministic replay --")
    print(f"same seed, byte-identical metrics: {identical}")
    print()

    _, healthy_mrs, healthy_play = build_stack()
    healthy = PlaybackSession(healthy_mrs).run([healthy_play], k=4)
    print("-- healthy baseline --")
    print(
        "same workload, no injection: "
        f"misses={healthy.metrics[healthy_play].misses} "
        f"(continuous={healthy.all_continuous})"
    )

    assert identical, "replay diverged"
    assert healthy.all_continuous
    assert metrics.skips == 2 and metrics.misses == 2
    assert len(skips) == metrics.skips


if __name__ == "__main__":
    main()
