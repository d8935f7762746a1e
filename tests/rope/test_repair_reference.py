"""The repair an MRS edit runs against the whole-rope pass it replaced.

An edit hands the repairer the operand ropes a clean pass installed, and
a seam between two tracks that sat side by side in one of them is not
measured again (strands are immutable, §2).  The reference below is the
earlier pass, which measures every seam of the edited rope.  Generated
edit scripts run through two identical auto-repairing servers — one on
the pass as it is, one on the reference — over a near-full disk with a
tight scattering bound, so repairs copy blocks and some seams stay
residual.  The scripts toggle ``auto_repair``, add triggers, concatenate
a rope with itself and relocate strands.  After every step both servers
must hold the same ropes and free map, and report the same repair
(everything but ``seams_checked``, which may only shrink).
"""

import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TESTBED_1991
from repro.core.editing_bounds import seam_repair_bound
from repro.core.symbols import DisplayDeviceParameters
from repro.disk import build_drive
from repro.errors import ReproError, ScatteringError
from repro.fs import MultimediaStorageManager
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer
from repro.rope.intervals import Segment
from repro.rope.scattering_repair import RepairReport, SeamCheck

# -- the reference: the whole-rope pass ------------------------------------


def reference_seams(repairer, index, previous, current):
    for medium in (Media.VIDEO, Media.AUDIO):
        track_a = previous.video if medium is Media.VIDEO else previous.audio
        track_b = current.video if medium is Media.VIDEO else current.audio
        if track_a is None or track_b is None:
            continue
        slot_a = repairer._edge_slot(track_a, last=True)
        slot_b = repairer._edge_slot(track_b, last=False)
        if slot_a is None or slot_b is None:
            continue
        strand_b = repairer.msm.get_strand(track_b.strand_id)
        check = SeamCheck(
            medium=medium,
            gap=repairer.drive.access_gap(slot_a, slot_b),
            bound=strand_b.scattering_upper,
        )
        yield check, track_b, strand_b, slot_a


def reference_tracks_to_segments(segment, medium, tracks):
    if len(tracks) == 1:
        if medium is Media.VIDEO:
            return [segment.with_tracks(tracks[0], segment.audio)]
        return [segment.with_tracks(segment.video, tracks[0])]
    first, second = tracks
    cut = first.duration
    other = segment.audio if medium is Media.VIDEO else segment.video
    if other is None:
        if medium is Media.VIDEO:
            return [
                Segment(video=first),
                Segment(video=second, triggers=segment.triggers),
            ]
        return [
            Segment(audio=first),
            Segment(audio=second, triggers=segment.triggers),
        ]
    other_first = other.slice(0.0, cut)
    other_second = other.slice(cut, max(other.duration - cut, 1e-9))
    if medium is Media.VIDEO:
        return [
            Segment(video=first, audio=other_first),
            Segment(
                video=second, audio=other_second, triggers=segment.triggers
            ),
        ]
    return [
        Segment(video=other_first, audio=first),
        Segment(
            video=other_second, audio=second, triggers=segment.triggers
        ),
    ]


def reference_repair(repairer, segments):
    """Measure and repair every seam of *segments*, left to right."""
    msm = repairer.msm
    working = list(segments)
    checked = violating = repaired = copied = residual = 0
    occupancy = msm.occupancy
    bound_report = 0
    index = 1
    while index < len(working):
        previous, current = working[index - 1], working[index]
        replaced = False
        for check, track_b, strand_b, slot_a in reference_seams(
            repairer, index, previous, current
        ):
            checked += 1
            if not check.violates:
                continue
            medium, bound = check.medium, check.bound
            violating += 1
            if strand_b.scattering_lower > 0:
                bound_report = max(
                    bound_report,
                    seam_repair_bound(
                        msm.disk_params,
                        strand_b.scattering_lower,
                        strand_b.scattering_lower,
                        occupancy,
                    ).from_successor,
                )
            try:
                numbers, slots = repairer._plan_copies(
                    track_b, strand_b, slot_a, bound
                )
            except ScatteringError:
                residual += 1
                continue
            copy_strand = msm.create_copied_strand(strand_b, numbers, slots)
            tracks = repairer._split_track_after_copies(
                track_b, strand_b, numbers, copy_strand
            )
            working[index:index + 1] = reference_tracks_to_segments(
                current, medium, tracks
            )
            repaired += 1
            copied += len(numbers)
            chain = [slot_a] + copy_strand.slots()
            if all(
                repairer.drive.access_gap(first, second) <= bound
                for first, second in zip(chain, chain[1:])
            ):
                replaced = True
            else:
                residual += 1
            break
        if not replaced:
            index += 1
    return working, RepairReport(
        seams_checked=checked,
        seams_violating=violating,
        seams_repaired=repaired,
        blocks_copied=copied,
        paper_bound=bound_report,
        residual_violations=residual,
    )


# -- two identical servers --------------------------------------------------

USER = "u"


def _server(reference: bool, fill: float) -> MultimediaRopeServer:
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
    if reference:
        mrs.repairer.repair_segments = (
            lambda segments, verified=(): reference_repair(
                mrs.repairer, segments
            )
        )
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


def _state(mrs):
    report = mrs.last_repair
    return (
        {rope_id: mrs.get_rope(rope_id) for rope_id in mrs.rope_ids()},
        bytes(mrs.msm.freemap._state),
        report and report.__dict__ | {"seams_checked": None},
    )


class TestRepairMatchesTheWholeRopePass:
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(STEP, min_size=1, max_size=30),
           fill=st.sampled_from([0.85, 0.95]))
    def test_generated_scripts_agree(self, steps, fill):
        new, old = _server(False, fill), _server(True, fill)
        for step in steps:
            assert _apply(new, step) == _apply(old, step), step
            assert _state(new) == _state(old), step
            if new.last_repair is not None:
                assert (
                    new.last_repair.seams_checked
                    <= old.last_repair.seams_checked
                ), step

    @pytest.mark.parametrize("fill", [0.85, 0.95])
    def test_the_fixture_copies_blocks_and_leaves_residuals(self, fill):
        """The servers above do exercise repair: concatenating ropes
        stored across the disk copies blocks, and a near-full disk leaves
        seams it cannot repair."""
        mrs = _server(False, fill)
        copied = residual = 0
        for first, second in ((0, 1), (2, 3), (1, 0), (3, 2)):
            ids = mrs.rope_ids()
            mrs.concate(USER, ids[first], ids[second])
            copied += mrs.last_repair.blocks_copied
            residual += mrs.last_repair.residual_violations
        assert copied > 0
        if fill > 0.9:
            assert residual > 0
