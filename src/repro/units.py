"""Unit conventions and conversion helpers.

The paper (Table 1) expresses every quantity in one of a handful of units:

* data sizes in **bits** (``s_vf`` bits/frame, ``s_as`` bits/sample),
* rates in **per-second** units (``R_va`` samples/s, ``R_vr`` frames/s,
  ``R_dr`` and ``R_vd`` bits/s),
* times in **seconds** (the scattering parameter ``l_ds``, seek times).

This library follows the same convention everywhere: *sizes are bits,
times are seconds, rates are per-second*, carried as plain ``float``/``int``
values.  The helpers below exist so call sites can state the unit they were
given (``kilobytes(4)``) instead of embedding conversion arithmetic, and so
report code can render values back into human-readable magnitudes.
"""

from __future__ import annotations

__all__ = [
    "BITS_PER_BYTE",
    "KILO",
    "MEGA",
    "GIGA",
    "KIBI",
    "bytes_",
    "kilobytes",
    "megabits",
    "gigabits",
    "kilobytes_per_second",
    "megabits_per_second",
    "gigabits_per_second",
    "milliseconds",
    "format_bits",
    "format_rate",
    "format_seconds",
]

#: Number of bits in one byte.
BITS_PER_BYTE = 8

#: Decimal (SI) multipliers, used for rates and disk-vendor sizes.
KILO = 10 ** 3
MEGA = 10 ** 6
GIGA = 10 ** 9

#: Binary multiplier, used for memory-style block sizes (4 KB block = 4 KiB).
KIBI = 2 ** 10


# ---------------------------------------------------------------------------
# Sizes (canonical unit: bits)
# ---------------------------------------------------------------------------

def bytes_(value: float) -> float:
    """Convert bytes to bits."""
    return float(value) * BITS_PER_BYTE


def kilobytes(value: float) -> float:
    """Convert binary kilobytes (KiB, as in a '4 Kbyte disk block') to bits."""
    return float(value) * KIBI * BITS_PER_BYTE


def megabits(value: float) -> float:
    """Convert decimal megabits to bits."""
    return float(value) * MEGA


def gigabits(value: float) -> float:
    """Convert decimal gigabits to bits."""
    return float(value) * GIGA


# ---------------------------------------------------------------------------
# Rates (canonical unit: bits/second)
# ---------------------------------------------------------------------------

def kilobytes_per_second(value: float) -> float:
    """Convert KiB/s to bits/s (the paper's 8 KByte/s audio digitizer)."""
    return kilobytes(value)


def megabits_per_second(value: float) -> float:
    """Convert Mbit/s to bits/s."""
    return megabits(value)


def gigabits_per_second(value: float) -> float:
    """Convert Gbit/s to bits/s (HDTV's 2.5 Gbit/s requirement)."""
    return gigabits(value)


# ---------------------------------------------------------------------------
# Times (canonical unit: seconds)
# ---------------------------------------------------------------------------

def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds (seek times are quoted in ms)."""
    return float(value) / KILO


# ---------------------------------------------------------------------------
# Human-readable formatting (for reports and benchmark output)
# ---------------------------------------------------------------------------

def format_bits(value: float) -> str:
    """Render a bit count with an appropriate decimal magnitude suffix."""
    magnitude = abs(value)
    if magnitude >= GIGA:
        return f"{value / GIGA:.2f} Gbit"
    if magnitude >= MEGA:
        return f"{value / MEGA:.2f} Mbit"
    if magnitude >= KILO:
        return f"{value / KILO:.2f} Kbit"
    return f"{value:.0f} bit"


def format_rate(value: float) -> str:
    """Render a bits/second rate with an appropriate magnitude suffix."""
    return format_bits(value) + "/s"


def format_seconds(value: float) -> str:
    """Render a duration, auto-selecting s / ms / µs."""
    magnitude = abs(value)
    if magnitude >= 1.0 or value == 0:
        return f"{value:.3f} s"
    if magnitude >= 1e-3:
        return f"{value * KILO:.3f} ms"
    return f"{value * MEGA:.1f} µs"
