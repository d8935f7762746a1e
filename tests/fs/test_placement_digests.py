"""Byte-identity of the write path: every slot number a fixed script
produces, pinned by digest.

``tests/golden/placement_digests.json`` was generated at the commit
*before* the write path was folded into one placer / one claim / one
writer, and must never change because of a refactor: allocation order,
strand-id order and index-slot placement on every successful path are
the contract.  Regenerate (``pytest --regen-golden``) only for a change
whose point is a different placement.

The digests hash :func:`canonical_state`, a plain JSON statement of the
MSM's slots and strands and the MRS's ropes.  It is the golden's hash
input and nothing else: the library keeps no saved image, and nothing
reads this statement back.
"""

import hashlib
import json
import random
from dataclasses import asdict

from repro.config import TESTBED_1991
from repro.core.symbols import DisplayDeviceParameters
from repro.disk import ScatterBounds, build_array, build_drive
from repro.fs import MultimediaStorageManager
from repro.fs.reorganize import Reorganizer
from repro.fs.striped import StripedStorageManager
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer


def _block(block):
    payload = {
        "kind": block.kind.value,
        "video_tokens": list(block.video_tokens),
        "video_bits": block.video_bits,
    }
    if block.audio is not None:
        payload["audio"] = asdict(block.audio)
    return payload


def _strand(strand):
    blocks = []
    for number in range(strand.block_count):
        slot = strand.slot_of(number)
        entry = {"units": strand.units_of(number)}
        if slot is None:
            entry["silence"] = True
        else:
            entry["slot"] = slot
            entry["content"] = _block(strand.block_at(number))
        blocks.append(entry)
    upper = strand.scattering_upper
    return {
        "strand_id": strand.strand_id,
        "kind": strand.kind.value,
        "unit_rate": strand.unit_rate,
        "granularity": strand.granularity,
        "sectors_per_block": strand.sectors_per_block,
        "scattering_lower": strand.scattering_lower,
        # JSON has no infinity; an unbounded upper bound is null.
        "scattering_upper": None if upper == float("inf") else upper,
        "index_slots": strand.index.assigned_slots(),
        "blocks": blocks,
    }


def _track(track):
    if track is None:
        return None
    return {
        "strand_id": track.strand_id,
        "start_unit": track.start_unit,
        "length_units": track.length_units,
        "rate": track.rate,
        "granularity": track.granularity,
    }


def _rope(rope):
    return {
        "rope_id": rope.rope_id,
        "creator": rope.creator,
        "play_access": list(rope.play_access),
        "edit_access": list(rope.edit_access),
        "segments": [
            {
                "video": _track(segment.video),
                "audio": _track(segment.audio),
                "triggers": [
                    {
                        "video_block": trigger.video_block,
                        "audio_block": trigger.audio_block,
                        "text": trigger.text,
                    }
                    for trigger in segment.triggers
                ],
            }
            for segment in rope.segments
        ],
    }


def canonical_state(msm, mrs):
    """Every strand of *msm* (placement, index slots, contents, silence
    holders) and every rope of *mrs*, as one JSON value.  The shape and
    its ``"version": 1`` are frozen: the golden's digests hash it."""
    return {
        "version": 1,
        "slots": msm.freemap.slots,
        "strands": [
            _strand(msm.get_strand(strand_id))
            for strand_id in msm.strand_ids()
        ],
        "ropes": [_rope(mrs.get_rope(rope_id)) for rope_id in mrs.rope_ids()],
    }


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
        digests[name] = _sha(canonical_state(msm, mrs))
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
