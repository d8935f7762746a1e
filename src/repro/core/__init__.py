"""The paper's analytical core: continuity, granularity, admission, editing.

This package contains the equations of §§2–4 of Rangan & Vin (SOSP 1991):

* :mod:`repro.core.symbols` — the Table-1 parameter model;
* :mod:`repro.core.continuity` — Eqs. (1)–(6), the continuity requirements
  of the sequential / pipelined / concurrent retrieval architectures and
  the mixed audio+video cases;
* :mod:`repro.core.granularity` — §3.3.4, deriving storage granularity and
  the scattering window from device buffers and the copy budget;
* :mod:`repro.core.buffering` — §3.3.2, buffer and read-ahead requirements;
* :mod:`repro.core.admission` — §3.4, the (α, β, γ) model, Eqs. (15)–(18),
  n_max, and the transition-safe admission controller;
* :mod:`repro.core.editing_bounds` — §4.2, Eqs. (19)/(20) seam-repair
  copy bounds.
"""

from repro.core.admission import (
    AdmissionController,
    AdmissionDecision,
    RequestDescriptor,
    ServiceParameters,
    TransitionPlan,
    k_steady,
    k_transition,
    n_max,
    round_feasible,
    round_time,
    service_parameters,
    solve_heterogeneous_k,
)
from repro.core.buffering import (
    BufferPlan,
    buffers_for_average_continuity,
    fast_forward_block,
    read_ahead_required,
    slow_motion_accumulation_rate,
    task_switch_read_ahead,
)
from repro.core.continuity import (
    Architecture,
    ContinuityVerdict,
    buffers_required,
    check,
    concurrent_slack,
    effective_throughput,
    is_continuous,
    max_scattering,
    max_scattering_mixed,
    min_concurrency,
    min_granularity,
    mixed_heterogeneous_slack,
    mixed_homogeneous_slack,
    pipelined_slack,
    sequential_slack,
    slack,
)
from repro.core.editing_bounds import (
    SeamRepairBound,
    copy_bound,
    copy_bound_dense,
    copy_bound_sparse,
    seam_repair_bound,
)
from repro.core.granularity import (
    PlacementPolicy,
    derive_policy,
    granularity_range,
    max_granularity,
    scattering_lower_bound,
)
from repro.core.symbols import (
    AudioStream,
    BlockModel,
    DiskParameters,
    DisplayDeviceParameters,
    VideoStream,
    audio_block_model,
    video_block_model,
)
from repro.core.variable_rate import (
    BlockSizeProfile,
    VbrComparison,
    average_scattering_bound,
    block_size_profile,
    group_read_ahead,
    strict_scattering_bound,
    vbr_gain,
)

__all__ = [
    # symbols
    "AudioStream",
    "BlockModel",
    "DiskParameters",
    "DisplayDeviceParameters",
    "VideoStream",
    "audio_block_model",
    "video_block_model",
    # continuity
    "Architecture",
    "ContinuityVerdict",
    "buffers_required",
    "check",
    "concurrent_slack",
    "effective_throughput",
    "is_continuous",
    "max_scattering",
    "max_scattering_mixed",
    "min_concurrency",
    "min_granularity",
    "mixed_heterogeneous_slack",
    "mixed_homogeneous_slack",
    "pipelined_slack",
    "sequential_slack",
    "slack",
    # granularity
    "PlacementPolicy",
    "derive_policy",
    "granularity_range",
    "max_granularity",
    "scattering_lower_bound",
    # buffering
    "BufferPlan",
    "buffers_for_average_continuity",
    "fast_forward_block",
    "read_ahead_required",
    "slow_motion_accumulation_rate",
    "task_switch_read_ahead",
    # admission
    "AdmissionController",
    "AdmissionDecision",
    "RequestDescriptor",
    "ServiceParameters",
    "TransitionPlan",
    "k_steady",
    "k_transition",
    "n_max",
    "round_feasible",
    "round_time",
    "service_parameters",
    "solve_heterogeneous_k",
    # editing bounds
    "SeamRepairBound",
    "copy_bound",
    "copy_bound_dense",
    "copy_bound_sparse",
    "seam_repair_bound",
    # variable rate (§6.2 extension)
    "BlockSizeProfile",
    "VbrComparison",
    "average_scattering_bound",
    "block_size_profile",
    "group_read_ahead",
    "strict_scattering_bound",
    "vbr_gain",
]
