"""Persistence: saving and loading a file-system image.

The prototype's metadata — header/secondary/primary blocks, rope records,
access lists — lives on disk and survives restarts.  The reproduction
keeps its state in Python objects, so this module provides the
equivalent: a complete, versioned JSON image of an MSM (+ optional MRS)
that round-trips every strand (contents, placement, index, silence
holders), the free map, the interest registry, and every rope's segment
list and access rights.

The image deliberately serializes *through the public structure* (block
kinds, primary entries, segments) rather than pickling objects, so images
are inspectable, diffable, and independent of internal refactoring.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ImageError, ParameterError
from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
from repro.fs.index import StrandIndex, fanout_for, PRIMARY_ENTRY_BITS, SECONDARY_ENTRY_BITS
from repro.fs.storage_manager import MultimediaStorageManager
from repro.fs.strand import Strand
from repro.rope.intervals import MediaTrack, Segment, Trigger
from repro.rope.server import MultimediaRopeServer
from repro.rope.structures import MultimediaRope

__all__ = ["IMAGE_VERSION", "dump_image", "load_image", "save_file", "load_file"]

IMAGE_VERSION = 1


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _block_to_json(block: MediaBlock) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "kind": block.kind.value,
        "video_tokens": list(block.video_tokens),
        "video_bits": block.video_bits,
    }
    if block.audio is not None:
        payload["audio"] = {
            "start_sample": block.audio.start_sample,
            "sample_count": block.audio.sample_count,
            "average_energy": block.audio.average_energy,
            "bits": block.audio.bits,
        }
    return payload


def _block_from_json(data: Dict[str, Any]) -> MediaBlock:
    audio = None
    if "audio" in data:
        audio = AudioPayload(**data["audio"])
    return MediaBlock(
        kind=BlockKind(data["kind"]),
        video_tokens=tuple(data["video_tokens"]),
        video_bits=data["video_bits"],
        audio=audio,
    )


def _strand_to_json(strand: Strand) -> Dict[str, Any]:
    blocks: List[Dict[str, Any]] = []
    for number in range(strand.block_count):
        slot = strand.slot_of(number)
        entry: Dict[str, Any] = {"units": strand.units_of(number)}
        if slot is None:
            entry["silence"] = True
        else:
            entry["slot"] = slot
            entry["content"] = _block_to_json(strand.block_at(number))
        blocks.append(entry)
    return {
        "strand_id": strand.strand_id,
        "kind": strand.kind.value,
        "unit_rate": strand.unit_rate,
        "granularity": strand.granularity,
        "sectors_per_block": strand.sectors_per_block,
        "scattering_lower": strand.scattering_lower,
        "scattering_upper": (
            None if strand.scattering_upper == float("inf")
            else strand.scattering_upper
        ),
        "index_slots": strand.index.assigned_slots(),
        "blocks": blocks,
    }


def _strand_from_json(
    data: Dict[str, Any], block_bits: float
) -> Strand:
    index = StrandIndex(
        frame_rate=data["unit_rate"],
        primary_fanout=fanout_for(block_bits, PRIMARY_ENTRY_BITS),
        secondary_fanout=fanout_for(block_bits, SECONDARY_ENTRY_BITS),
    )
    upper = data["scattering_upper"]
    strand = Strand(
        strand_id=data["strand_id"],
        kind=BlockKind(data["kind"]),
        unit_rate=data["unit_rate"],
        granularity=data["granularity"],
        sectors_per_block=data["sectors_per_block"],
        index=index,
        scattering_lower=data["scattering_lower"],
        scattering_upper=float("inf") if upper is None else upper,
    )
    for entry in data["blocks"]:
        if entry.get("silence"):
            strand.append_silence(entry["units"])
        else:
            strand.append_block(
                _block_from_json(entry["content"]), entry["slot"]
            )
    if data["index_slots"]:
        strand.index.assign_slots(list(data["index_slots"]))
    return strand.finalize()


def _track_to_json(track: Optional[MediaTrack]) -> Optional[Dict[str, Any]]:
    if track is None:
        return None
    return {
        "strand_id": track.strand_id,
        "start_unit": track.start_unit,
        "length_units": track.length_units,
        "rate": track.rate,
        "granularity": track.granularity,
    }


def _track_from_json(data: Optional[Dict[str, Any]]) -> Optional[MediaTrack]:
    if data is None:
        return None
    return MediaTrack(**data)


def _rope_to_json(rope: MultimediaRope) -> Dict[str, Any]:
    return {
        "rope_id": rope.rope_id,
        "creator": rope.creator,
        "play_access": list(rope.play_access),
        "edit_access": list(rope.edit_access),
        "segments": [
            {
                "video": _track_to_json(segment.video),
                "audio": _track_to_json(segment.audio),
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


def _rope_from_json(data: Dict[str, Any]) -> MultimediaRope:
    segments = tuple(
        Segment(
            video=_track_from_json(seg["video"]),
            audio=_track_from_json(seg["audio"]),
            triggers=tuple(
                Trigger(**trigger) for trigger in seg["triggers"]
            ),
        )
        for seg in data["segments"]
    )
    return MultimediaRope(
        rope_id=data["rope_id"],
        creator=data["creator"],
        segments=segments,
        play_access=tuple(data["play_access"]),
        edit_access=tuple(data["edit_access"]),
    )


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

def dump_image(
    msm: MultimediaStorageManager,
    mrs: Optional[MultimediaRopeServer] = None,
) -> Dict[str, Any]:
    """Serialize an MSM (and optionally its rope server) to a JSON dict."""
    image: Dict[str, Any] = {
        "version": IMAGE_VERSION,
        "slots": msm.freemap.slots,
        "strands": [
            _strand_to_json(msm.get_strand(strand_id))
            for strand_id in msm.strand_ids()
        ],
    }
    if mrs is not None:
        image["ropes"] = [
            _rope_to_json(mrs.get_rope(rope_id))
            for rope_id in mrs.rope_ids()
        ]
    return image


def _decode(what: str, data: Any, key: str, decoder: Callable, *args) -> Any:
    """Run one pure decoder over outside input; a missing key or a
    malformed value becomes an :class:`ImageError` naming *what*."""
    name = data.get(key, "?") if isinstance(data, dict) else "?"
    try:
        return decoder(data, *args)
    except KeyError as missing:
        raise ImageError(
            f"{what} {name}: required key {missing} is missing"
        ) from None
    except (TypeError, ValueError, AttributeError) as error:
        raise ImageError(f"{what} {name}: {error}") from None


def load_image(
    image: Dict[str, Any],
    msm: MultimediaStorageManager,
    mrs: Optional[MultimediaRopeServer] = None,
) -> None:
    """Restore an image into a *fresh* MSM (and MRS) on equivalent hardware.

    The target storage manager must be empty and its drive must expose at
    least as many slots as the image was taken on.  The whole image is
    decoded and checked before the target is touched — a truncated or
    inconsistent one raises :class:`ImageError` naming the strand, rope
    or key at fault, and the target stays as empty as it was.
    """
    if image.get("version") != IMAGE_VERSION:
        raise ParameterError(
            f"unsupported image version {image.get('version')!r}"
        )
    if msm.strand_ids():
        raise ParameterError("load_image requires an empty storage manager")
    for key in ("slots", "strands"):
        if key not in image:
            raise ImageError(f"image: required key {key!r} is missing")
    if msm.freemap.slots < image["slots"]:
        raise ParameterError(
            f"target drive has {msm.freemap.slots} slots, image needs "
            f"{image['slots']}"
        )
    strands = [
        _decode(
            "strand", record, "strand_id", _strand_from_json,
            msm.drive.block_bits,
        )
        for record in image["strands"]
    ]
    owner: Dict[int, str] = {}
    for strand in strands:
        for slot in strand.slots() + strand.index.assigned_slots():
            if not 0 <= slot < msm.freemap.slots:
                raise ImageError(
                    f"strand {strand.strand_id}: slot {slot} outside the "
                    f"target drive (0..{msm.freemap.slots - 1})"
                )
            if slot in owner:
                raise ImageError(
                    f"strand {strand.strand_id}: slot {slot} is already "
                    f"owned by strand {owner[slot]}"
                )
            owner[slot] = strand.strand_id
    ropes = [
        _decode("rope", record, "rope_id", _rope_from_json)
        for record in (image.get("ropes", ()) if mrs is not None else ())
    ]
    msm.restore_strands(strands)
    _advance_counter(msm, "_ids", [strand.strand_id for strand in strands])
    if mrs is not None and "ropes" in image:
        for rope in ropes:
            mrs._install(rope)
        _advance_counter(mrs, "_rope_ids", [rope.rope_id for rope in ropes])


def _numeric_suffix(identifier: str) -> int:
    digits = "".join(ch for ch in identifier if ch.isdigit())
    return int(digits) if digits else 0


def _advance_counter(owner: Any, attribute: str, identifiers) -> None:
    """Restart an itertools.count ID generator past all of *identifiers*."""
    import itertools

    highest = max(map(_numeric_suffix, identifiers), default=0)
    setattr(owner, attribute, itertools.count(highest + 1))


def save_file(
    path: str,
    msm: MultimediaStorageManager,
    mrs: Optional[MultimediaRopeServer] = None,
) -> None:
    """Write the image as JSON to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dump_image(msm, mrs), handle, indent=1)


def load_file(
    path: str,
    msm: MultimediaStorageManager,
    mrs: Optional[MultimediaRopeServer] = None,
) -> None:
    """Restore an image JSON file into fresh servers."""
    with open(path, "r", encoding="utf-8") as handle:
        load_image(json.load(handle), msm, mrs)
