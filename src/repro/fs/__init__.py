"""The Multimedia Storage Manager (MSM): strands, indices, GC (§5.2).

This package implements the device-dependent lower layer of the prototype:
physical placement of media strands (with the granularity and scattering
the §3 analysis derives), the 3-level block index of Fig. 5/6, silence
elimination with NULL delay holders, and interest-based garbage
collection.
"""

from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
from repro.fs.gc import GarbageCollector, InterestRegistry
from repro.fs.index import (
    HeaderBlock,
    PRIMARY_ENTRY_BITS,
    PrimaryBlock,
    PrimaryEntry,
    SECONDARY_ENTRY_BITS,
    SecondaryBlock,
    SecondaryEntry,
    StrandIndex,
    fanout_for,
)
from repro.fs.reorganize import ReorganizationReport, Reorganizer
from repro.fs.silence import AudioBlockPlan, plan_audio_blocks
from repro.fs.storage_manager import MediaPolicies, MultimediaStorageManager
from repro.fs.strand import Strand
from repro.fs.striped import StripedStorageManager, StripedStrand

__all__ = [
    "AudioBlockPlan",
    "AudioPayload",
    "BlockKind",
    "GarbageCollector",
    "HeaderBlock",
    "InterestRegistry",
    "MediaBlock",
    "MediaPolicies",
    "MultimediaStorageManager",
    "PRIMARY_ENTRY_BITS",
    "PrimaryBlock",
    "PrimaryEntry",
    "ReorganizationReport",
    "Reorganizer",
    "SECONDARY_ENTRY_BITS",
    "SecondaryBlock",
    "SecondaryEntry",
    "Strand",
    "StrandIndex",
    "StripedStorageManager",
    "StripedStrand",
    "fanout_for",
    "plan_audio_blocks",
]
