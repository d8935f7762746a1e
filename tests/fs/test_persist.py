"""Unit/round-trip tests for file-system image persistence."""

import json

import pytest

from repro.config import TESTBED_1991
from repro.disk import build_drive
from repro.errors import ImageError, ParameterError
from repro.fs import MultimediaStorageManager
from repro.rope.persist import dump_image, load_file, load_image, save_file
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer


def fresh_pair():
    profile = TESTBED_1991
    msm = MultimediaStorageManager(
        build_drive(), profile.video, profile.audio,
        profile.video_device, profile.audio_device,
    )
    return msm, MultimediaRopeServer(msm)


@pytest.fixture
def populated(profile, rng):
    msm, mrs = fresh_pair()
    frames = frames_for_duration(profile.video, 8.0, source="cam")
    chunks = generate_talk_spurts(profile.audio, 8.0, 0.4, rng)
    q1, rope_a = mrs.record(
        "alice", frames=frames, chunks=chunks, play_access=("bob",)
    )
    mrs.stop(q1)
    q2, rope_b = mrs.record("alice", frames=frames[:120])
    mrs.stop(q2)
    mrs.insert("alice", rope_a, 2.0, Media.VIDEO, rope_b, 0.0, 4.0)
    return msm, mrs, rope_a, frames


class TestRoundTrip:
    def test_image_restores_everything(self, populated):
        msm, mrs, rope_a, frames = populated
        image = dump_image(msm, mrs)
        msm2, mrs2 = fresh_pair()
        load_image(image, msm2, mrs2)

        assert msm2.strand_ids() == msm.strand_ids()
        assert msm2.freemap.used_count == msm.freemap.used_count
        assert mrs2.rope_ids() == mrs.rope_ids()

        # Every strand round-trips placement, silence pattern, and index.
        for strand_id in msm.strand_ids():
            original = msm.get_strand(strand_id)
            restored = msm2.get_strand(strand_id)
            assert restored.block_count == original.block_count
            assert restored.slots() == original.slots()
            assert restored.unit_count == original.unit_count
            restored.verify_against_index()

        # Playback over the restored image is byte-identical.
        play_original = mrs.playback_plan(
            mrs.play("alice", rope_a, media=Media.VIDEO)
        ).tokens()
        play_restored = mrs2.playback_plan(
            mrs2.play("alice", rope_a, media=Media.VIDEO)
        ).tokens()
        assert play_restored == play_original

    def test_access_rights_survive(self, populated):
        msm, mrs, rope_a, _ = populated
        msm2, mrs2 = fresh_pair()
        load_image(dump_image(msm, mrs), msm2, mrs2)
        rope = mrs2.get_rope(rope_a)
        rope.check_play("bob")

    def test_image_is_json_serializable(self, populated):
        msm, mrs, _, _ = populated
        text = json.dumps(dump_image(msm, mrs))
        assert "strands" in text

    def test_file_round_trip(self, populated, tmp_path):
        msm, mrs, rope_a, _ = populated
        path = tmp_path / "image.json"
        save_file(str(path), msm, mrs)
        msm2, mrs2 = fresh_pair()
        load_file(str(path), msm2, mrs2)
        assert mrs2.get_rope(rope_a).duration == pytest.approx(
            mrs.get_rope(rope_a).duration
        )

    def test_an_unbounded_strand_relocates_after_load(self, populated):
        """A ``null`` upper bound reads back as ``inf``; relocating that
        strand used to end in a bare ``OverflowError``."""
        msm, mrs, _, _ = populated
        image = dump_image(msm, mrs)
        record = image["strands"][0]
        record["scattering_upper"] = None
        msm2, mrs2 = fresh_pair()
        load_image(image, msm2, mrs2)
        strand = msm2.get_strand(record["strand_id"])
        assert strand.scattering_upper == float("inf")
        moved = msm2.relocate_strand(strand.strand_id, hint=5000)
        assert 0 < moved <= strand.stored_block_count
        strand.verify_against_index()
        assert msm2.freemap.used_count == msm.freemap.used_count

    def test_new_ids_do_not_collide_after_load(self, populated, profile):
        msm, mrs, _, frames = populated
        msm2, mrs2 = fresh_pair()
        load_image(dump_image(msm, mrs), msm2, mrs2)
        new_strand = msm2.store_video_strand(frames[:60])
        assert new_strand.strand_id not in set(msm.strand_ids())
        q, new_rope = mrs2.record("alice", frames=frames[:60])
        mrs2.stop(q)
        assert new_rope not in set(mrs.rope_ids())


class TestValidation:
    def test_rejects_wrong_version(self):
        msm, mrs = fresh_pair()
        with pytest.raises(ParameterError):
            load_image({"version": 99, "slots": 1, "strands": []}, msm)

    def test_rejects_non_empty_target(self, populated):
        msm, mrs, _, frames = populated
        image = dump_image(msm)
        with pytest.raises(ParameterError):
            load_image(image, msm)  # msm already holds the strands

    def test_rejects_too_small_drive(self, populated):
        msm, mrs, _, _ = populated
        image = dump_image(msm)
        image["slots"] = 10 ** 9
        msm2, _ = fresh_pair()
        with pytest.raises(ParameterError):
            load_image(image, msm2)


class TestCorruptImage:
    """A corrupt image fails typed and installs nothing.

    Parent behaviour these cases pin the end of: an image in which two
    blocks name one slot raised ``AllocationError`` from the middle of
    the load with ``['S0001']`` installed and 21 of 7,168 slots taken in
    the "empty" target; a truncated one was a bare ``KeyError: 'blocks'``.
    """

    @staticmethod
    def load_must_fail(image, match):
        image = json.loads(json.dumps(image))  # as read back from a file
        msm, mrs = fresh_pair()
        with pytest.raises(ImageError, match=match) as caught:
            load_image(image, msm, mrs)
        assert not isinstance(caught.value, KeyError)
        assert msm.strand_ids() == [] and mrs.rope_ids() == []
        assert msm.freemap.free_count == msm.freemap.slots
        assert msm.interests.strands_of("R0001") == set()
        # The target is still loadable.
        load_image({"version": 1, "slots": 1, "strands": []}, msm, mrs)

    def test_clean_image_round_trips_byte_for_byte(self, populated):
        msm, mrs, _, _ = populated
        image = dump_image(msm, mrs)
        msm2, mrs2 = fresh_pair()
        load_image(json.loads(json.dumps(image)), msm2, mrs2)
        assert json.dumps(dump_image(msm2, mrs2), sort_keys=True) == (
            json.dumps(image, sort_keys=True)
        )

    def test_two_blocks_naming_one_slot(self, populated):
        msm, mrs, _, _ = populated
        image = dump_image(msm, mrs)
        first, second = image["strands"][0], image["strands"][1]
        stolen = next(b["slot"] for b in first["blocks"] if "slot" in b)
        victim = next(b for b in second["blocks"] if "slot" in b)
        victim["slot"] = stolen
        self.load_must_fail(
            image,
            f"strand {second['strand_id']}: slot {stolen} is already "
            f"owned by strand {first['strand_id']}",
        )

    def test_index_slot_colliding_with_a_media_slot(self, populated):
        msm, mrs, _, _ = populated
        image = dump_image(msm, mrs)
        strand = image["strands"][0]
        strand["index_slots"][0] = strand["blocks"][0]["slot"]
        self.load_must_fail(image, f"strand {strand['strand_id']}: slot")

    @pytest.mark.parametrize("slot", [-1, 7168, 10 ** 9])
    def test_slot_out_of_range(self, populated, slot):
        msm, mrs, _, _ = populated
        image = dump_image(msm, mrs)
        strand = image["strands"][-1]
        strand["blocks"][0]["slot"] = slot
        self.load_must_fail(image, f"strand {strand['strand_id']}")

    @pytest.mark.parametrize(
        "path, names",
        [
            (("slots",), "image: required key 'slots'"),
            (("strands",), "image: required key 'strands'"),
            (("strands", 1, "blocks"), "strand S0002: required key 'blocks'"),
            (("strands", 0, "index_slots"),
             "strand S0001: required key 'index_slots'"),
            (("strands", 0, "blocks", 0, "content"),
             "strand S0001: required key 'content'"),
            (("ropes", 0, "segments"), "rope R0001: required key 'segments'"),
            (("ropes", 1, "segments", 0, "video"),
             "rope R0002: required key 'video'"),
        ],
    )
    def test_missing_required_key(self, populated, path, names):
        msm, mrs, _, _ = populated
        image = dump_image(msm, mrs)
        holder = image
        for step in path[:-1]:
            holder = holder[step]
        del holder[path[-1]]
        self.load_must_fail(image, names)

    def test_malformed_value_names_the_strand(self, populated):
        msm, mrs, _, _ = populated
        image = dump_image(msm, mrs)
        image["strands"][0]["kind"] = "hologram"
        self.load_must_fail(image, "strand S0001: ")
