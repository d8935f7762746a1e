"""Ablation studies over the design parameters DESIGN.md calls out.

The paper fixes several design choices (granularity from device buffers,
a copy budget for the scattering lower bound, a block size); these
ablations sweep each choice to show *why* the derived value is the right
operating point:

* :func:`ablate_granularity` — η trades scattering tolerance and server
  capacity against device buffer footprint and per-block latency;
* :func:`ablate_copy_budget` — the §4.2 copy budget trades editing cost
  against the placement window left for the allocator;
* :func:`ablate_block_size` — the disk block-slot size trades seek
  amortization against internal fragmentation for audio.
"""

from __future__ import annotations

from repro.analysis.experiments import PROFILE
from repro.analysis.report import Result, Table
from repro.core import admission as adm
from repro.core import continuity
from repro.core.continuity import Architecture
from repro.core.granularity import scattering_lower_bound
from repro.core.symbols import DisplayDeviceParameters, video_block_model
from repro.disk import TESTBED_DRIVE, build_drive
from repro.errors import AdmissionRejected

__all__ = [
    "ablate_granularity",
    "ablate_copy_budget",
    "ablate_block_size",
]


def ablate_granularity() -> Result:
    """Sweep η: scattering bound, capacity, startup cost, buffer bits."""
    params = build_drive().parameters()
    table = Table(
        title="Ablation: storage granularity η (frames/block)",
        columns=[
            "η", "l_ds bound (ms)", "n_max", "k @ n_max",
            "device buffer (Kbit, pipelined)",
        ],
    )
    for eta in (1, 2, 4, 8):
        block = video_block_model(PROFILE.video, eta)
        device = DisplayDeviceParameters(
            display_rate=PROFILE.video_device.display_rate,
            buffer_frames=2 * eta,
        )
        bound = continuity.max_scattering(
            Architecture.PIPELINED, block, params, device
        )
        descriptor = adm.RequestDescriptor(
            block=block, scattering_avg=params.seek_avg
        )
        service = adm.service_parameters([descriptor], params)
        capacity = adm.n_max(service)
        at_capacity = adm.service_parameters(
            [descriptor] * max(1, capacity), params
        )
        try:
            k_at_capacity = adm.k_transition(at_capacity)
        except AdmissionRejected:
            k_at_capacity = None
        buffer_bits = 2 * eta * PROFILE.video.frame_size / 1e3
        table.add_row(
            eta, bound * 1e3, capacity, k_at_capacity, buffer_bits
        )
    return Result((table,))


def ablate_copy_budget() -> Result:
    """Sweep the §4.2 copy budget: lower bound vs placement window."""
    params = build_drive().parameters()
    block = video_block_model(PROFILE.video, 4)
    upper = continuity.max_scattering(
        Architecture.PIPELINED, block, params, PROFILE.video_device
    )
    table = Table(
        title="Ablation: editing copy budget C_b (blocks per seam repair)",
        columns=[
            "copy budget", "l_ds lower (ms)", "l_ds upper (ms)",
            "window (ms)", "window feasible",
        ],
    )
    for budget in (1, 2, 4, 8, 16, 0):
        lower = scattering_lower_bound(params, budget)
        window = upper - lower
        table.add_row(
            budget if budget else "unbounded",
            lower * 1e3, upper * 1e3, window * 1e3, window > 0,
        )
    return Result((table,))


def ablate_block_size() -> Result:
    """Sweep the disk block-slot size (sectors/block).

    Bigger slots amortize positioning over more payload (higher effective
    throughput at fixed gaps) but waste space on small audio blocks —
    the classic internal-fragmentation trade.
    """
    table = Table(
        title="Ablation: disk block size (sectors/slot)",
        columns=[
            "sectors/slot", "slot (Kbit)", "slots",
            "throughput @avg gap (Mbit/s)",
            "audio waste (fraction of slot)",
        ],
    )
    audio_block_bits = 2048 * PROFILE.audio.sample_size
    for sectors in (16, 32, 64, 128):
        drive = build_drive(TESTBED_DRIVE, sectors_per_block=sectors)
        params = drive.parameters()
        throughput = continuity.effective_throughput(
            drive.block_bits, params, params.seek_avg
        )
        waste = max(0.0, 1.0 - audio_block_bits / drive.block_bits)
        table.add_row(
            sectors, drive.block_bits / 1e3, drive.slots,
            throughput / 1e6, waste,
        )
    return Result((table,))
