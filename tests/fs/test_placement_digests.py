"""Byte-identity of the write path: every slot number a fixed script
produces, pinned by digest.

``tests/golden/placement_digests.json`` was generated at the commit
*before* the write path was folded into one placer / one claim / one
writer, and must never change because of a refactor: allocation order,
strand-id order and index-slot placement on every successful path are
the contract.  Regenerate (``pytest --regen-golden``) only for a change
whose point is a different placement.
"""

import hashlib
import json
import random

from repro.config import TESTBED_1991
from repro.core.symbols import DisplayDeviceParameters
from repro.disk import ScatterBounds, build_array, build_drive
from repro.fs import MultimediaStorageManager
from repro.fs.persist import dump_image
from repro.fs.reorganize import Reorganizer
from repro.fs.striped import StripedStorageManager
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer


def _sha(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def placement_script():
    """Run the fixed script; returns ``(digests, facts)``.

    The video device is narrowed to a 2-frame buffer (granularity 1) so
    the continuity bound sits below the drive's full-stroke access and a
    cross-disk seam genuinely violates — otherwise §4.2 repair never
    copies (bench/README.md Finding 8).
    """
    profile = TESTBED_1991
    narrow = DisplayDeviceParameters(
        display_rate=profile.video_device.display_rate, buffer_frames=2
    )
    drive = build_drive()
    msm = MultimediaStorageManager(
        drive, profile.video, profile.audio, narrow, profile.audio_device
    )
    mrs = MultimediaRopeServer(msm)
    rng = random.Random(18)
    digests = {}
    facts = {}

    def video(seconds, source):
        return frames_for_duration(profile.video, seconds, source=source)

    def record(**media):
        request_id, rope_id = mrs.record("u", **media)
        mrs.stop(request_id)
        return rope_id

    def checkpoint(name):
        digests[name] = _sha(dump_image(msm, mrs))
        digests[name + ":used"] = _sha(msm.freemap.used_slots())

    # -- recordings: 3 video, 2 talk-spurt audio, 1 heterogeneous --------------
    low = record(frames=video(6.0, "low"))
    talk_a = record(
        chunks=generate_talk_spurts(profile.audio, 5.0, 0.4, rng)
    )
    mid = record(frames=video(4.0, "mid"))
    talk_b = record(
        chunks=generate_talk_spurts(profile.audio, 4.0, 0.6, rng)
    )
    mixed = record(
        frames=video(3.0, "mixed"),
        chunks=generate_talk_spurts(profile.audio, 3.0, 0.0, rng),
        heterogeneous=True,
    )
    silent = [
        msm.get_strand(track.strand_id)
        for rope_id in (talk_a, talk_b)
        for track in [mrs.get_rope(rope_id).segments[0].audio]
    ]
    facts["silence_holders"] = sum(
        strand.block_count - strand.stored_block_count for strand in silent
    )
    # Age the disk to the dense regime with distributed holes (every
    # fifth slot stays free), the shape E8 uses.
    deficit = int(msm.freemap.slots * 0.82) - msm.freemap.used_count
    for slot in range(msm.freemap.slots):
        if deficit <= 0:
            break
        if slot % 5 == 2 or not msm.freemap.is_free(slot):
            continue
        msm.freemap.allocate(slot)
        deficit -= 1
    facts["occupancy_before_edits"] = msm.occupancy
    far = msm.store_video_strand(video(6.0, "far"), hint=drive.slots - 1)
    high = mrs.adopt_strands("u", video_strand_id=far.strand_id)
    checkpoint("recorded")

    # -- edits with §4.2 repair on the dense disk ---------------------------------
    copied = []
    mrs.insert("u", low, 2.0, Media.VIDEO, high, 0.0, 2.0)
    copied.append(mrs.last_repair.blocks_copied)
    mrs.replace("u", mid, Media.VIDEO, 1.0, 1.5, high, 0.0, 1.5)
    copied.append(mrs.last_repair.blocks_copied)
    mrs.delete("u", low, Media.AUDIO_VISUAL, 0.5, 1.0)
    copied.append(mrs.last_repair.blocks_copied)
    mrs.concate("u", mid, high)
    copied.append(mrs.last_repair.blocks_copied)
    facts["blocks_copied"] = copied
    checkpoint("edited")

    # -- delete_rope + GC ----------------------------------------------------------
    facts["collected"] = (
        mrs.delete_rope("u", talk_b) + mrs.delete_rope("u", mixed)
    )
    facts["collected"] += msm.collect_garbage()
    checkpoint("collected")

    # -- reorganization -----------------------------------------------------------
    rotation = drive.rotation.average_latency
    tight = ScatterBounds(
        0.0, rotation + drive.seek_model.seek_time(3) + 1e-6
    )
    report = Reorganizer(msm).make_room(200, tight)
    facts["reorganize"] = [
        report.success, report.strands_migrated, report.blocks_moved
    ]
    # More than the free space left: every strand is tried, none helps.
    hopeless = Reorganizer(msm).make_room(msm.freemap.free_count + 1, tight)
    facts["reorganize_hopeless"] = [
        hopeless.success, hopeless.strands_migrated, hopeless.blocks_moved
    ]
    for strand_id in msm.strand_ids():
        msm.get_strand(strand_id).verify_against_index()
    checkpoint("reorganized")

    # -- striping on a 4-member array ---------------------------------------------
    striped = StripedStorageManager(
        build_array(heads=4), profile.video, profile.video_device,
        granularity=2,
    )
    first = striped.store_video_strand(video(5.0, "stripe-a"))
    second = striped.store_video_strand(video(3.0, "stripe-b"))
    striped.delete_strand(first.strand_id)
    third = striped.store_video_strand(video(4.0, "stripe-c"))
    digests["striped"] = _sha([
        [strand.strand_id,
         [[a.drive_index, a.slot] for a in strand.addresses]]
        for strand in (second, third)
    ])
    return digests, facts


def test_placement_digests_match_the_pre_refactor_golden(golden):
    digests, facts = placement_script()
    # The script exercises what it claims to.
    assert facts["occupancy_before_edits"] >= 0.8
    assert sum(facts["blocks_copied"]) > 0
    assert facts["silence_holders"] > 0
    assert facts["collected"]
    assert facts["reorganize"][2] > 0
    golden(
        "placement_digests.json",
        json.dumps({"digests": digests, "facts": facts},
                   indent=1, sort_keys=True),
    )
