"""Outside-in tracing: wrap each layer's public functions from here.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces the
class (or module) attribute of every target below with a timing
wrapper, ``uninstall`` puts the originals back, and the end-to-end run
never installs anything — so a refactor that renames an internal method
shows up as a *missing target* in the traced pass, never as a broken
benchmark.

Per-request and per-epoch boundaries record a span (name, start, end,
parent span, repetition id); per-block boundaries (drive and cache
reads, cache lookups) only add to a call count and a nanosecond total,
which keeps the tracing overhead within a small factor.  A target's
*self time* is its duration minus the time spent in wrapped callees.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from bench import stack

SPAN, COUNT = "span", "count"


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``key`` names it in spans and reports."""

    layer: str
    key: str
    path: str
    mode: str = SPAN
    #: Optional ``result -> int`` folded into ``Stat.result_sum``.
    measure: Optional[Callable[[object], int]] = None


def _targets() -> Tuple[Target, ...]:
    out: List[Target] = []

    def add(layer, module, owner, names, mode=SPAN, measure=None):
        for name in names:
            out.append(Target(
                layer, f"{owner}.{name}", f"{module}:{owner}.{name}",
                mode, measure,
            ))

    add("cluster", "repro.cluster.router", "MediaCluster",
        ["serve", "route"])
    add("cluster", "repro.cluster.placement", "PlacementPolicy", ["plan"])
    add("cluster", "repro.cluster.node", "ClusterNode",
        ["serve", "record_title", "warm"])
    add("server", "repro.server.media_server", "MediaServer",
        ["serve", "open", "play", "pause", "resume", "stop"])
    # media_server binds the function by name, so wrap that binding.
    out.append(Target(
        "server", "group_into_batches",
        "repro.server.media_server:group_into_batches",
    ))
    add("service.rpc", "repro.service.rpc", "RpcChannel", ["invoke"])
    add("fs", "repro.fs.storage_manager", "MultimediaStorageManager",
        ["admit", "release", "delete_strand"])
    add("fs", "repro.fs.storage_manager", "MultimediaStorageManager",
        ["store_video_strand", "store_audio_strand", "store_mixed_strand"],
        measure=stack.strand_block_count)
    add("fs", "repro.fs.storage_manager", "MultimediaStorageManager",
        ["collect_garbage"], measure=len)
    add("core", "repro.core.admission", "AdmissionController",
        ["admit", "release"])
    add("rope", "repro.rope.server", "MultimediaRopeServer",
        ["record", "open_request", "playback_plan", "stop", "insert",
         "replace", "substring", "concate", "delete", "delete_rope"])
    add("service.session", "repro.service.session", "PlaybackSession",
        ["fetch_sequence", "run"])
    add("service.rounds", "repro.service.rounds", "RoundRobinService",
        ["run"])
    add("disk.cache", "repro.disk.cache", "CachedDrive",
        ["read_slot", "traced_read"], mode=COUNT)
    add("disk.cache", "repro.disk.cache", "BlockCache",
        ["lookup", "insert"], mode=COUNT)
    add("disk.cache", "repro.disk.cache", "BlockCache",
        ["pin", "unpin", "resident_fraction"])
    add("disk.drive", "repro.disk.drive", "SimulatedDrive",
        ["read_slot", "traced_read", "write_slot"], mode=COUNT)
    add("obs", "repro.obs.observer", "Observability", ["snapshot"])
    return tuple(out)


TARGETS = _targets()
LAYERS = tuple(dict.fromkeys(target.layer for target in TARGETS))

#: The benchmark's own time between calls into the program.
DRIVER_LAYER = "bench"


class Stat:
    """Aggregate of one target within one region."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors", "result_sum")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.errors = 0
        self.result_sum = 0

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.errors += other.errors
        self.result_sum += other.result_sum

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9


#: Loop count of the calibration kernel, and how long it takes on the
#: reference host (this sandbox, quiet).
KERNEL_STEPS = 250_000
KERNEL_REF_S = 0.048


def kernel() -> float:
    """A fixed piece of pure-Python work; returns how long it took.

    Run right before and right after every timed stretch, it tells how
    fast the host was going just then: the shared sandbox has phases,
    minutes long, in which identical work takes half as long again.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0.0
    for i in range(KERNEL_STEPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += (i * 0.5) % 7.0
    return time.perf_counter() - start


class Region:
    """A timed stretch of the benchmark: set-up, run, or snapshot.

    ``seconds`` is the wall time as measured; ``slowdown`` is the
    calibration kernel's time around the stretch over its reference
    time (1.0 on the reference host when quiet), so
    ``seconds / slowdown`` is the time at the reference host speed.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.slowdown = 1.0


class Tracer:
    """Times regions always; wraps targets and keeps spans when enabled.

    With ``enabled=False`` (the end-to-end run) :meth:`region` is a
    ``perf_counter`` pair between two calibration kernels and nothing
    is installed.
    """

    def __init__(self, enabled: bool = False, span_limit: int = 400_000):
        self.enabled = enabled
        self.span_limit = span_limit
        self.rep = 0
        #: (key, start_ns, end_ns, parent index or -1, rep) per span.
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self.spans_dropped = 0
        self.missing: List[str] = []
        #: region name -> target key -> Stat, summed over repetitions.
        self.by_region: Dict[str, Dict[str, Stat]] = {}
        #: region name -> [duration_ns, driver self_ns], summed likewise.
        self.region_ns: Dict[str, List[int]] = {}
        self._live: Dict[str, Stat] = {}
        self._stack: List[List[int]] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that still exists; list the ones that don't."""
        if not self.enabled:
            return
        for target in TARGETS:
            resolved = stack.resolve(target.path)
            if resolved is None:
                self.missing.append(target.key)
                continue
            owner, name = resolved
            original = owner.__dict__.get(name, getattr(owner, name))
            setattr(owner, name, self._wrap(original, target))
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def _wrap(self, function, target: Target):
        stat = self._live[target.key] = Stat()
        frames = self._stack
        spans = self.spans
        now = time.perf_counter_ns
        key = target.key
        keep_span = target.mode == SPAN
        measure = target.measure
        tracer = self

        def wrapper(*args, **kwargs):
            parent = frames[-1][1] if frames else -1
            if keep_span and len(spans) < tracer.span_limit:
                index = len(spans)
                spans.append(None)
            else:
                # Aggregate-only: callees attach to the nearest span.
                index = parent
                if keep_span:
                    tracer.spans_dropped += 1
            frame = [0, index]
            frames.append(frame)
            start = now()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = now()
                frames.pop()
                elapsed = end - start
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if index != parent:
                    spans[index] = (key, start, end, parent, tracer.rep)
            if measure is not None:
                stat.result_sum += measure(result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # -- regions ------------------------------------------------------------------

    @contextmanager
    def region(self, name: str):
        """Time one stretch between two calibration kernels; when
        tracing, the stretch is the root span too."""
        box = Region(name)
        before = kernel()
        try:
            if self.enabled:
                with self._root(box):
                    yield box
            else:
                start = time.perf_counter()
                try:
                    yield box
                finally:
                    box.seconds = time.perf_counter() - start
        finally:
            box.slowdown = (before + kernel()) / 2.0 / KERNEL_REF_S

    @contextmanager
    def _root(self, box: Region):
        index = len(self.spans)
        self.spans.append(None)
        frame = [0, index]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (
                f"{DRIVER_LAYER}.{box.name}", start, end, -1, self.rep
            )
            box.seconds = (end - start) / 1e9
            totals = self.region_ns.setdefault(box.name, [0, 0])
            totals[0] += end - start
            totals[1] += end - start - frame[0]
            folded = self.by_region.setdefault(box.name, {})
            for key, stat in self._live.items():
                if stat.calls:
                    folded.setdefault(key, Stat()).add(stat)
                    stat.__init__()

    # -- reading ------------------------------------------------------------------

    def stat(self, region: str, *keys: str) -> Optional[Stat]:
        """Sum of the named targets in *region*; None if all are missing."""
        if all(key in self.missing for key in keys):
            return None
        total = Stat()
        for key in keys:
            found = self.by_region.get(region, {}).get(key)
            if found is not None:
                total.add(found)
        return total

    def layer_self_s(self, region: str) -> Dict[str, float]:
        """Host self-time per layer in *region*, driver time included."""
        out = {layer: 0.0 for layer in LAYERS}
        folded = self.by_region.get(region, {})
        for target in TARGETS:
            found = folded.get(target.key)
            if found is not None:
                out[target.layer] += found.self_s
        out[DRIVER_LAYER] = self.region_ns.get(region, [0, 0])[1] / 1e9
        return out

    def residual(self) -> float:
        """Largest share of a root span its self-times do not explain.

        Every root's duration must equal its own self-time plus the
        self-times of the spans and counted calls beneath it; a wrapper
        that lost a frame (an exception path, a re-entrant call) would
        show up here.
        """
        worst = 0.0
        for region, (duration, _driver) in self.region_ns.items():
            if not duration:
                continue
            explained = sum(self.layer_self_s(region).values()) * 1e9
            worst = max(worst, abs(duration - explained) / duration)
        return worst

    def dump(self, path: Path, workload: str) -> None:
        """Write the spans and aggregates kept in memory to *path*."""
        document = {
            "workload": workload,
            "columns": ["name", "start_ns", "end_ns", "parent", "rep"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "missing_targets": self.missing,
            "aggregates": {
                region: {
                    key: {
                        "calls": stat.calls,
                        "total_ns": stat.total_ns,
                        "self_ns": stat.self_ns,
                        "errors": stat.errors,
                    }
                    for key, stat in sorted(folded.items())
                }
                for region, folded in sorted(self.by_region.items())
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")))
