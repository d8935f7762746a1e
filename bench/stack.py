"""Stack construction: the one module that reaches below ``repro.api``.

Everything else in ``bench/`` speaks ``repro.api`` messages to a
``MediaServer`` or ``MediaCluster``.  This module builds those from the
class constructors (never from the ``*/scenarios.py`` helpers, which
the scenario-registry roadmap item plans to delete), generates captured
media for recording, reads the public counters the digest and the layer
metrics need, and resolves the dotted names ``bench/trace.py`` wraps.
The pinned names are listed in ``bench/README.md``.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import MediaCluster, MediaServer
from repro.cluster.bounds import demand_max_flow, full_catalog_bound
from repro.cluster.node import ClusterNode
from repro.cluster.placement import (
    CatalogTitle,
    PlacementMap,
    PlacementPolicy,
    zipf_popularity,
)
from repro.cluster.router import CLUSTER_SLOS
from repro.config import TESTBED_1991
from repro.disk.factory import FAST_DRIVE, TESTBED_DRIVE, build_drive
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.fs import MultimediaStorageManager
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.obs.observer import Observability
from repro.obs.slo import SloMonitor
from repro.rope import MultimediaRopeServer

DRIVES = {"testbed": TESTBED_DRIVE, "fast": FAST_DRIVE}

#: The one user who records, edits and deletes in every workload.
LIBRARIAN = "librarian"


@dataclass
class ServerStack:
    """One MediaServer and what the workloads need to know about it."""

    server: MediaServer
    #: ``msm.admission.capacity`` for a video stream: n_max of §3.4.
    capacity: int
    #: Simulated playback seconds of one full video block.
    block_seconds: float
    ropes: List[str] = field(default_factory=list)
    obs: Optional[Observability] = None

    def servers(self) -> List[MediaServer]:
        return [self.server]


@dataclass
class ClusterStack:
    """One MediaCluster, its placement, and the bound's operands."""

    cluster: MediaCluster
    nodes: List[ClusterNode]
    placement: PlacementMap
    titles: Tuple[str, ...]
    per_node_streams: int
    block_seconds: float
    obs: Optional[Observability] = None

    def servers(self) -> List[MediaServer]:
        return [node.server for node in self.nodes]

    def analytic_bound(self, demand: Dict[str, int]) -> Tuple[int, int]:
        """(full-catalog bound, max-flow bound for *demand*)."""
        return (
            full_catalog_bound(len(self.nodes), self.per_node_streams),
            demand_max_flow(self.placement, demand, self.per_node_streams),
        )


def _media_server(
    drive_name: str, cache_blocks: int, batch_window: float, obs=None,
    label: Optional[str] = None,
) -> MediaServer:
    profile = TESTBED_1991
    drive = build_drive(DRIVES[drive_name])
    if label is not None:
        # Per-drive profiler rollups should distinguish the shards.
        drive.profile_label = label
    msm = MultimediaStorageManager(
        drive,
        profile.video,
        profile.audio,
        profile.video_device,
        profile.audio_device,
        obs=obs,
    )
    return MediaServer(
        MultimediaRopeServer(msm),
        batch_window=batch_window,
        cache_blocks=cache_blocks,
        obs=obs,
    )


def build_server(
    drive: str = "testbed",
    cache_blocks: int = 128,
    batch_window: float = 0.0,
) -> ServerStack:
    """A MediaServer over a fresh drive and storage manager."""
    server = _media_server(drive, cache_blocks, batch_window)
    msm = server.mrs.msm
    descriptor = msm.descriptor_for_media(True)
    return ServerStack(
        server=server,
        capacity=msm.admission.capacity(descriptor),
        block_seconds=descriptor.block_playback,
    )


def video_frames(seconds: float, source: str) -> list:
    """Captured video for *seconds* of recording (input data)."""
    return frames_for_duration(TESTBED_1991.video, seconds, source=source)


def talk_spurts(seconds: float, silence_ratio: float, seed: int) -> list:
    """Captured speech-like audio with seeded talk spurts (input data)."""
    return generate_talk_spurts(
        TESTBED_1991.audio, seconds, silence_ratio, random.Random(seed)
    )


def record_rope(
    stack: ServerStack,
    frames: Optional[list] = None,
    chunks: Optional[list] = None,
    viewers: Sequence[str] = (),
    editors: Sequence[str] = (),
) -> str:
    """RECORD then STOP: one new rope, returned by id."""
    mrs = stack.server.mrs
    request_id, rope_id = mrs.record(
        LIBRARIAN,
        frames=frames,
        chunks=chunks,
        play_access=tuple(viewers),
        edit_access=tuple(editors),
    )
    mrs.stop(request_id)
    stack.ropes.append(rope_id)
    return rope_id


def rope_shape(stack: ServerStack, rope_id: str) -> Tuple[int, float]:
    """(segment count, duration in seconds) of one rope."""
    rope = stack.server.mrs.get_rope(rope_id)
    return len(rope.segments), rope.duration


def stored_blocks(stack: ServerStack, rope_id: str) -> int:
    """Disk blocks the rope's strands occupy (silence holders excluded)."""
    mrs = stack.server.mrs
    return sum(
        mrs.msm.get_strand(strand_id).stored_block_count
        for strand_id in mrs.get_rope(rope_id).referenced_strands()
    )


def repair_blocks_copied(stack: ServerStack) -> int:
    """Blocks the last edit's §4.2 scattering repair copied."""
    report = stack.server.mrs.last_repair
    return report.blocks_copied if report is not None else 0


def cluster_observability(seed: int) -> Observability:
    """The stock cluster preset: sampled obs + cluster SLOs + profiler."""
    obs = Observability.for_scale(seed=seed)
    obs.slo = SloMonitor(obs.registry, CLUSTER_SLOS)
    obs.enable_profiler()
    return obs


def build_cluster(
    nodes: int,
    titles: int,
    seconds: float,
    per_node_streams: int,
    min_replicas: int,
    cache_blocks: int,
    viewers: Sequence[str],
    batch_window: float = 0.25,
    kill: Optional[Tuple[int, int]] = None,
    observed: bool = False,
    seed: int = 0,
) -> ClusterStack:
    """Plan placement, build and load the nodes, warm every replica.

    *kill* is ``(node index, chunk boundary)`` for a scheduled
    HEAD_FAILURE; *observed* switches the stock cluster observability
    on, with node-scoped views; *seed* goes into its span ids and the
    fault plan.
    """
    obs = cluster_observability(seed) if observed else None
    catalog = tuple(
        CatalogTitle(
            title_id=f"T{rank:02d}",
            seconds=seconds,
            popularity=zipf_popularity(rank),
        )
        for rank in range(1, titles + 1)
    )
    node_ids = [f"node-{index:02d}" for index in range(nodes)]
    placement = PlacementPolicy(min_replicas=min_replicas).plan(
        catalog, node_ids, per_node_streams
    )
    access = tuple(viewers) + ("warmer",)
    built: List[ClusterNode] = []
    for node_id in node_ids:
        node = ClusterNode(
            node_id=node_id,
            server=_media_server(
                "testbed", cache_blocks, batch_window,
                obs=obs.scoped(node_id) if obs is not None else None,
                label=f"{node_id}.drive",
            ),
            capacity=per_node_streams,
        )
        for title in catalog:
            if node_id in placement.replicas(title.title_id):
                node.record_title(title, access)
        built.append(node)
    for node in built:
        for title_id in sorted(node.local_ropes):
            node.warm(title_id)
    plan = None
    if kill is not None:
        node_index, boundary = kill
        plan = FaultPlan(
            [
                FaultSpec(
                    kind=FaultKind.HEAD_FAILURE,
                    at_op=boundary,
                    drive_index=node_index,
                )
            ],
            seed=seed,
        )
    cluster = MediaCluster(built, placement, fault_plan=plan, obs=obs)
    descriptor = built[0].server.mrs.msm.descriptor_for_media(True)
    return ClusterStack(
        cluster=cluster,
        nodes=built,
        placement=placement,
        titles=tuple(title.title_id for title in catalog),
        per_node_streams=per_node_streams,
        block_seconds=descriptor.block_playback,
        obs=obs,
    )


def zipf_weights(count: int) -> List[float]:
    """Zipf(1) demand weights for ranks 1..count."""
    return [zipf_popularity(rank) for rank in range(1, count + 1)]


#: Counters that are levels or peaks, not running totals.
LEVELS = frozenset({
    "fs.occupancy_peak", "fs.strands", "obs.spans", "obs.spans_dropped",
})


def occupancy(stack: ServerStack) -> float:
    """Fraction of the drive's block slots in use."""
    return stack.server.mrs.msm.occupancy


def counters(stack) -> Dict[str, float]:
    """Public counters of a stack, summed over its servers.

    Everything here is a modelled (simulated) statistic or an exact
    count, so it goes into the ``sim_digest`` as well as the layer
    metrics: ``DriveStats``, ``cache.stats``, the RPC channel totals,
    the storage occupancy, and the observer's span counts.
    """
    out = {
        "drive.reads": 0, "drive.writes": 0, "drive.seek_sim_s": 0.0,
        "drive.rotation_sim_s": 0.0, "drive.transfer_sim_s": 0.0,
        "drive.faults_injected": 0,
        "cache.hits": 0, "cache.misses": 0, "cache.evictions": 0,
        "cache.pin_failures": 0,
        "rpc.calls": 0, "rpc.bytes": 0,
        "fs.occupancy_peak": 0.0, "fs.strands": 0,
    }
    for server in stack.servers():
        msm = server.mrs.msm
        stats = msm.drive.stats
        out["drive.reads"] += stats.reads
        out["drive.writes"] += stats.writes
        out["drive.seek_sim_s"] += stats.seek_time
        out["drive.rotation_sim_s"] += stats.rotation_time
        out["drive.transfer_sim_s"] += stats.transfer_time
        out["drive.faults_injected"] += stats.faults_injected
        if server.cache is not None:
            cache = server.cache.stats
            out["cache.hits"] += cache.hits
            out["cache.misses"] += cache.misses
            out["cache.evictions"] += cache.evictions
            out["cache.pin_failures"] += cache.pin_failures
        out["rpc.calls"] += server.channel.call_count
        out["rpc.bytes"] += server.channel.bytes_transferred
        out["fs.occupancy_peak"] = max(
            out["fs.occupancy_peak"], msm.occupancy
        )
        out["fs.strands"] += len(msm.strand_ids())
    obs = stack.obs
    out["obs.spans"] = len(obs.tracer) if obs is not None else 0
    out["obs.spans_dropped"] = (
        obs.tracer.dropped_count if obs is not None else 0
    )
    return out


def resolve(path: str):
    """``(owner, attribute name)`` for ``module:Class.method``, or None.

    None means the name no longer exists — a later refactor renamed or
    removed it — and the tracer lists it as a missing target instead of
    failing.  ``module:function`` names resolve to the module itself,
    which is how a ``from x import f`` binding is wrapped where it is
    used.
    """
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def strand_block_count(strand) -> int:
    """Blocks a stored strand occupies (a ``store_*_strand`` result)."""
    return strand.stored_block_count
