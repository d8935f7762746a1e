"""Named hardware profiles used throughout the reproduction.

Three environments recur in the paper and therefore in every experiment:

* :data:`TESTBED_1991` — the prototype environment of §5: SPARCstation +
  PC-AT with UVC video hardware (NTSC, 480×200 pixels, 12 bit color,
  digitizing and compressing at real-time rate) and an 8 KByte/s audio
  digitizer, storing onto the PC-AT's local disk.
* :data:`HDTV_2_5_GBIT` — the §3 motivating example: an HDTV-quality strand
  demanding "data transfer rates of up to 2.5 Gigabit/s" served by a
  "future disk array with 100 parallel heads and projected seek and latency
  times of the order of 10 ms" and 4 KByte blocks, which tops out around
  0.32 Gbit/s — the paper's argument that constrained allocation is
  fundamental, not an artifact of 1991 hardware.
* :data:`FAST_ARRAY_1995` — a projected near-future configuration used by
  the multi-client experiments to explore larger n_max values.

The 1991 prototype paper does not publish its disk's data sheet, so the
TESTBED_1991 numbers are period-typical values for a PC-AT SCSI drive
(≈1.25 MByte/s sustained transfer, ≈28 ms full-stroke access including
rotational latency, ≈18 ms average).  The UVC compression board's output
frame size is likewise not published; we model compressed NTSC frames at
8 KBytes (≈18:1 over the 141 KByte raw frame), which puts one video stream
at ≈1.97 Mbit/s — comfortably within one 1991 disk, as the prototype's
existence demonstrates it must have been.  These substitutions affect only
absolute magnitudes, never the comparative shapes the experiments check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.symbols import (
    AudioStream,
    DiskParameters,
    DisplayDeviceParameters,
    VideoStream,
)
from repro.units import (
    gigabits_per_second,
    kilobytes,
    kilobytes_per_second,
    megabits_per_second,
    milliseconds,
)

__all__ = [
    "HardwareProfile",
    "TESTBED_1991",
    "HDTV_2_5_GBIT",
    "FAST_ARRAY_1995",
    "PROFILES",
]


@dataclass(frozen=True)
class HardwareProfile:
    """A complete, named environment: streams + disk + display devices."""

    name: str
    description: str
    video: VideoStream
    audio: AudioStream
    disk: DiskParameters
    video_device: DisplayDeviceParameters
    audio_device: DisplayDeviceParameters
    #: Sector size used by the simulated disk, in bits.
    sector_bits: float = field(default=kilobytes(0.5))


#: §5 prototype environment (SPARCstation + PC-AT + UVC board).
TESTBED_1991 = HardwareProfile(
    name="testbed-1991",
    description=(
        "SOSP'91 prototype: NTSC video (30 fps, 8 KByte compressed frames "
        "via UVC board), 8 KByte/s audio, PC-AT local SCSI disk"
    ),
    video=VideoStream(frame_rate=30.0, frame_size=kilobytes(8)),
    audio=AudioStream(sample_rate=8000.0, sample_size=8.0),
    disk=DiskParameters(
        transfer_rate=megabits_per_second(10.0),
        seek_max=milliseconds(28.0),
        seek_avg=milliseconds(18.0),
        seek_track=milliseconds(5.0),
        cylinders=1024,
        heads=1,
    ),
    # The UVC board decompresses at real-time rate with a small margin;
    # display rate slightly above the disk's transfer rate keeps display
    # from being the bottleneck, matching the prototype's behaviour.
    video_device=DisplayDeviceParameters(
        display_rate=megabits_per_second(16.0), buffer_frames=8
    ),
    audio_device=DisplayDeviceParameters(
        display_rate=kilobytes_per_second(32), buffer_frames=8192
    ),
)

#: §3 worked example: HDTV vs a projected 100-head disk array.
HDTV_2_5_GBIT = HardwareProfile(
    name="hdtv-2.5gbit",
    description=(
        "HDTV strand (2.5 Gbit/s) on a projected disk array: 100 parallel "
        "heads, ~10 ms seek+latency, 4 KByte blocks"
    ),
    # 2.5 Gbit/s at 60 fps -> ~41.7 Mbit/frame.
    video=VideoStream(frame_rate=60.0, frame_size=gigabits_per_second(2.5) / 60.0),
    audio=AudioStream(sample_rate=48000.0, sample_size=16.0),
    disk=DiskParameters(
        # 80 Mbit/s per head: transferring a 4 KByte block takes ~0.4 ms,
        # so access time is dominated by the projected 10 ms seek+latency,
        # reproducing the paper's ~0.32 Gbit/s aggregate figure.
        transfer_rate=megabits_per_second(80.0),
        seek_max=milliseconds(10.0),
        seek_avg=milliseconds(10.0),
        seek_track=milliseconds(1.0),
        cylinders=2048,
        heads=100,
    ),
    video_device=DisplayDeviceParameters(
        display_rate=gigabits_per_second(3.0), buffer_frames=16
    ),
    audio_device=DisplayDeviceParameters(
        display_rate=megabits_per_second(2.0), buffer_frames=16384
    ),
)

#: A projected mid-90s array used for wider admission-control sweeps.
FAST_ARRAY_1995 = HardwareProfile(
    name="fast-array-1995",
    description=(
        "Projected mid-90s striped array: 40 Mbit/s effective transfer, "
        "20 ms max / 12 ms avg access, 4 heads"
    ),
    video=VideoStream(frame_rate=30.0, frame_size=kilobytes(8)),
    audio=AudioStream(sample_rate=8000.0, sample_size=8.0),
    disk=DiskParameters(
        transfer_rate=megabits_per_second(40.0),
        seek_max=milliseconds(20.0),
        seek_avg=milliseconds(12.0),
        seek_track=milliseconds(3.0),
        cylinders=2048,
        heads=4,
    ),
    video_device=DisplayDeviceParameters(
        display_rate=megabits_per_second(64.0), buffer_frames=16
    ),
    audio_device=DisplayDeviceParameters(
        display_rate=kilobytes_per_second(64), buffer_frames=16384
    ),
)

PROFILES = {
    profile.name: profile
    for profile in (TESTBED_1991, HDTV_2_5_GBIT, FAST_ARRAY_1995)
}
