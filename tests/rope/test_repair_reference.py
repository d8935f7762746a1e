"""The repair an MRS edit runs, against what repair promises.

An edit hands the repairer the operand ropes a clean pass installed, and
a seam between two tracks that sat side by side in one of them is not
measured again (strands are immutable, §2).  The spec that shortcut must
keep: after every edit that repairs, every seam of the rope the edit
returned — each measured afresh with ``check_segments`` — is within its
bound, or is counted among the report's residual violations.  Generated
edit scripts run through an auto-repairing server over a near-full disk
with a tight scattering bound, so repairs copy blocks and some seams stay
residual.  The scripts toggle ``auto_repair`` (leaving ropes whose seams
violate as operands), add triggers, concatenate a rope with itself and
relocate strands (moving the seams of ropes already verified).
"""

import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TESTBED_1991
from repro.core.symbols import DisplayDeviceParameters
from repro.disk import build_drive
from repro.errors import ReproError
from repro.fs import MultimediaStorageManager
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer


USER = "u"


def _server(fill: float) -> MultimediaRopeServer:
    """A server whose video bound is below a full-stroke access, with
    ropes stored across the disk, then the disk aged to *fill*."""
    profile = TESTBED_1991
    narrow = DisplayDeviceParameters(
        display_rate=profile.video_device.display_rate, buffer_frames=2
    )
    msm = MultimediaStorageManager(
        build_drive(), profile.video, profile.audio, narrow,
        profile.audio_device,
    )
    mrs = MultimediaRopeServer(msm)
    slots = msm.drive.slots
    for number, hint in enumerate(
        (0, slots - 1, slots // 10, slots - 1 - slots // 10)
    ):
        video = msm.store_video_strand(
            frames_for_duration(profile.video, 4.0, source=f"v{number}"),
            hint=hint,
        )
        audio = None
        if number % 2:
            audio = msm.store_audio_strand(generate_talk_spurts(
                profile.audio, 4.0, 0.3, random.Random(number)
            )).strand_id
        mrs.adopt_strands(
            USER, video_strand_id=video.strand_id, audio_strand_id=audio
        )
    # Age the disk to *fill*: the middle 60 % fills up, and outside it
    # every seventh slot stays free.  A copy planned mid-disk then lands
    # at the band's edge, too far for the bound: a residual.
    middle = range(slots // 5, 4 * slots // 5)
    deficit = int(slots * fill) - msm.freemap.used_count
    msm.freemap.claim(islice(
        (
            slot for slot in msm.freemap.free_slots()
            if slot in middle or slot % 7 != 3
        ),
        max(0, deficit),
    ))
    return mrs


def _on_grid(share, high):
    """A multiple of 0.5 s in ``[0, high]``."""
    steps = max(0, int(high / 0.5))
    return min(int(share * (steps + 1)), steps) * 0.5


SHARE = st.floats(0.0, 1.0)
ROPE = st.integers(0, 15)
MEDIA = st.sampled_from([Media.VIDEO, Media.AUDIO, Media.AUDIO_VISUAL])
STEP = st.one_of(
    st.tuples(st.sampled_from(["insert", "replace"]), ROPE, ROPE, MEDIA,
              SHARE, SHARE, SHARE),
    st.tuples(st.sampled_from(["delete", "substring"]), ROPE, MEDIA,
              SHARE, SHARE),
    st.tuples(st.just("concate"), ROPE, ROPE),
    st.tuples(st.just("self_concate"), ROPE),
    st.tuples(st.just("trigger"), ROPE, SHARE),
    st.tuples(st.just("auto_repair"), st.booleans()),
    st.tuples(st.just("relocate"), SHARE, SHARE),
)


#: Segments past which a script stops growing a rope (self-concatenation
#: doubles it).
LONGEST = 48


def _apply(mrs, step):
    """Run one script step; returns what a caller could observe of it."""
    ids = mrs.rope_ids()

    def pick(number):
        return ids[number % len(ids)]

    kind = step[0]
    mrs.last_repair = None
    if kind in ("insert", "concate", "self_concate") and (
        mrs.get_rope(pick(step[1])).interval_count() > LONGEST
    ):
        return "capped"
    try:
        if kind in ("insert", "replace"):
            _, base, source, media, u1, u2, u3 = step
            base, source = pick(base), pick(source)
            base_s = mrs.get_rope(base).duration
            source_s = mrs.get_rope(source).duration
            length = 0.5 + _on_grid(u1, min(2.5, source_s - 0.5))
            if kind == "insert":
                rope = mrs.insert(
                    USER, base, _on_grid(u2, base_s), media, source,
                    _on_grid(u3, source_s - length), length,
                )
            else:
                length = min(length, base_s)
                rope = mrs.replace(
                    USER, base, media, _on_grid(u2, base_s - length), length,
                    source, _on_grid(u3, source_s - length), length,
                )
        elif kind in ("delete", "substring"):
            _, base, media, u1, u2 = step
            base = pick(base)
            base_s = mrs.get_rope(base).duration
            length = 0.5 + _on_grid(u1, min(2.5, base_s - 0.5))
            operation = mrs.delete if kind == "delete" else mrs.substring
            rope = operation(
                USER, base, media, _on_grid(u2, base_s - length), length
            )
        elif kind == "concate":
            rope = mrs.concate(USER, pick(step[1]), pick(step[2]))
        elif kind == "self_concate":
            rope = mrs.concate(USER, pick(step[1]), pick(step[1]))
        elif kind == "trigger":
            base = pick(step[1])
            rope = mrs.add_trigger(
                USER, base, _on_grid(step[2], mrs.get_rope(base).duration),
                "caption",
            )
        elif kind == "auto_repair":
            mrs.auto_repair = step[1]
            return None
        else:
            strands = mrs.msm.strand_ids()
            strand = strands[int(step[1] * (len(strands) - 1))]
            hint = int(step[2] * (mrs.msm.drive.slots - 1))
            return mrs.msm.relocate_strand(strand, hint)
    except ReproError as error:
        return type(error).__name__, str(error)
    return rope.rope_id


def assert_repaired(mrs, rope_id):
    """Every seam of the rope an edit returned meets its bound or is a
    residual violation its repair reported."""
    report = mrs.last_repair
    if report is None:
        return
    seams = mrs.repairer.check_segments(mrs.get_rope(rope_id).segments)
    violating = sum(check.violates for check in seams)
    assert violating <= report.residual_violations, (violating, report)


class TestRepairMatchesTheWholeRopePass:
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(STEP, min_size=1, max_size=30),
           fill=st.sampled_from([0.85, 0.95]))
    def test_generated_scripts_agree(self, steps, fill):
        mrs = _server(fill)
        for step in steps:
            result = _apply(mrs, step)
            if step[0] != "relocate" and result in mrs.rope_ids():
                assert_repaired(mrs, result)

    @pytest.mark.parametrize("fill", [0.85, 0.95])
    def test_the_fixture_copies_blocks_and_leaves_residuals(self, fill):
        """The servers above do exercise repair: concatenating ropes
        stored across the disk copies blocks, and a near-full disk leaves
        seams it cannot repair."""
        mrs = _server(fill)
        copied = residual = 0
        for first, second in ((0, 1), (2, 3), (1, 0), (3, 2)):
            ids = mrs.rope_ids()
            mrs.concate(USER, ids[first], ids[second])
            copied += mrs.last_repair.blocks_copied
            residual += mrs.last_repair.residual_violations
        assert copied > 0
        if fill > 0.9:
            assert residual > 0

    def test_a_relocation_voids_what_was_verified(self):
        """Moving a verified rope's strand moves its seams: the next edit
        of that rope measures them again."""
        mrs = _server(0.85)
        first, second, third, _ = mrs.rope_ids()
        joined = mrs.concate(USER, first, third).rope_id
        assert mrs.last_repair.residual_violations == 0
        moved = mrs.get_rope(first).segments[0].video.strand_id
        mrs.msm.relocate_strand(moved, mrs.msm.drive.slots // 2)
        segments = mrs.get_rope(joined).segments
        assert any(check.violates for check in mrs.repairer.check_segments(segments))
        assert_repaired(mrs, mrs.concate(USER, joined, second).rope_id)
