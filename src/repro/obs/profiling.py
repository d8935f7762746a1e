"""Deterministic cost-attribution profiling.

:class:`CostProfiler` answers "where does round time actually go?"
without sacrificing the byte-stability contract every other obs surface
keeps.  It decomposes a run's **modeled** time into the phases of
:data:`PHASES`, per drive, per cluster node and per stream.  It is a
*view*: a drive and a cache front end handed an observer register
themselves once — under the node id of the
:meth:`~repro.obs.Observability.scoped` view they were handed, if any —
and every rollup is computed, when asked, from the
:class:`~repro.disk.drive.DriveStats` /
:class:`~repro.disk.cache.CacheStats` those objects keep anyway — so
the profile cannot disagree with them and a block costs the profiler
nothing.  Only what no other record holds is written: the delay fault
recovery adds and each stream's share of a round, which the loop
folds per stream and hands over once a run ends.  Costs are simulated
seconds only, so two runs at the same seed serialize byte-identically
(the ``repro profile --json`` acceptance bar).

Phase taxonomy (docs/OBSERVABILITY.md).  The paper's §3 cost model has
two per-block components, positioning and transfer; the other two are
what sits in front of the mechanism and what a fault adds:

========================  ====================================================
``seek``                  positioning, the paper's ``l_ds``: read as
                          ``DriveStats.seek_time + rotation_time``
``transfer``              media transfer: read as ``DriveStats.transfer_time``
``cache_lookup``          residency probes: read as ``CacheStats.hits +
                          misses``, costing ``hits * hit_time``
``fault_recovery``        delay of doomed attempts and retry backoff (it
                          *overlaps* the seek/transfer charged to the failed
                          attempts: attribution, not conservation); written,
                          one add per fault outcome
========================  ====================================================

``ops`` of ``seek`` / ``transfer`` counts every access whose time the
mechanism charged, an attempt a fault doomed included.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ParameterError

__all__ = ["PHASES", "CostProfiler"]

#: The fixed phase taxonomy modeled time decomposes into.
PHASES: Tuple[str, ...] = ("seek", "transfer", "cache_lookup", "fault_recovery")

#: Retained per-round checkpoints (the Perfetto counter tracks): when the
#: series fills, every other sample is dropped and the stride doubles.
CHECKPOINT_LIMIT = 256
#: Per-stream rows a summary lists.
TOP_STREAMS = 8

#: key -> ``{"ops", "cost_s"}``: the shape of every rollup.
_Table = Dict[Optional[str], Dict[str, Union[int, float]]]


def _add(table: _Table, key: Optional[str], ops: int, cost: float) -> None:
    row = table.get(key)
    if row is None:
        row = table[key] = {"ops": 0, "cost_s": 0.0}
    row["ops"] += ops
    row["cost_s"] += cost


def _ranked(table: _Table) -> List[Tuple]:
    """Rows by (cost desc, ops desc, key): fully ordered, so stable."""
    return sorted(
        table.items(),
        key=lambda item: (-item[1]["cost_s"], -item[1]["ops"], item[0]),
    )


def _read_drive(drive) -> Tuple[str, Tuple]:
    """A mechanism's label and ``(phase, ops, cost_s)`` rows to date."""
    stats, charged = drive.stats, drive.charged_accesses
    return drive.profile_label, (
        ("seek", charged, stats.seek_time + stats.rotation_time),
        ("transfer", charged, stats.transfer_time),
    )


def _read_cache(cached) -> Tuple[str, Tuple]:
    """The same for a cache front end, under its mechanism's label."""
    stats = cached.cache.stats
    probes = stats.hits + stats.misses
    return cached.inner.profile_label, (
        ("cache_lookup", probes, stats.hits * cached.hit_time),
    )


class CostProfiler:
    """Deterministic per-phase view of where modeled time went.

    ``seek``, ``transfer`` and ``cache_lookup`` are read from the
    watched devices' own counters (as deltas against their values when
    first watched; the label is read late: whoever owns a drive may name
    it after building it).  ``fault_recovery`` and the per-stream
    attribution are the two things written.
    """

    def __init__(self) -> None:
        #: (device, node it was attached through, reader, its rows then).
        self._watched: List[Tuple[object, Optional[str], object, Tuple]] = []
        #: node (None outside a cluster) -> fault-recovery delay.
        self._faults: _Table = {}
        self._streams: _Table = {}
        #: (simulated time, per-PHASES cumulative cost tuple).
        self._checkpoints: List[Tuple[float, Tuple[float, ...]]] = []
        self._checkpoint_stride = 1
        self._checkpoint_calls = 0

    # -- what is registered and what is written ----------------------------------

    def _watch(self, device, node: Optional[str], read) -> None:
        if all(seen is not device for seen, *_ in self._watched):
            self._watched.append((device, node, read, read(device)[1]))

    def watch_drive(self, drive, node: Optional[str] = None) -> None:
        """Read *drive*'s ``DriveStats`` from now on (once per drive,
        however often an observer is attached to it)."""
        self._watch(drive, node, _read_drive)

    def watch_cache(self, cached, node: Optional[str] = None) -> None:
        """Read a ``CachedDrive``'s ``CacheStats`` from now on."""
        self._watch(cached, node, _read_cache)

    def fault(self, cost: float, node: Optional[str] = None) -> None:
        """One fault outcome added *cost* modeled seconds of delay."""
        _add(self._faults, node, 1, cost)

    def stream_cost(self, stream_id: str) -> float:
        """What *stream_id*'s turns have cost so far: the loop that opens
        it folds each of its turns' costs onto this."""
        return self._streams.get(stream_id, {}).get("cost_s", 0.0)

    def fold_stream(self, stream_id: str, ops: int, cost: float) -> None:
        """A loop served *ops* more blocks of *stream_id*, which now cost
        *cost* in all: :meth:`stream_cost` plus its turns', in turn order."""
        _add(self._streams, stream_id, ops, 0.0)
        self._streams[stream_id]["cost_s"] = cost

    def checkpoint(self, time: float) -> None:
        """Sample the cumulative per-phase costs at simulated *time*.

        The service loop calls this once per round; decimation keeps the
        retained series under :data:`CHECKPOINT_LIMIT` samples regardless
        of round count, and which rounds survive is a pure function of
        the call sequence (no randomness, no wall clock).
        """
        self._checkpoint_calls += 1
        if self._checkpoint_calls % self._checkpoint_stride:
            return
        phases = self._tables()[0]
        self._checkpoints.append(
            (time, tuple(phases[phase]["cost_s"] for phase in PHASES))
        )
        if len(self._checkpoints) >= CHECKPOINT_LIMIT:
            self._checkpoints = self._checkpoints[::2]
            self._checkpoint_stride *= 2

    # -- rollups -----------------------------------------------------------------

    def _rows(self) -> Iterator[Tuple]:
        """``(drive label, node, phase, ops, cost_s)``: what each watched
        device counted since it was first watched, then the faults."""
        for device, node, read, then in self._watched:
            label, now = read(device)
            for (phase, ops, cost), (_, ops_then, cost_then) in zip(now, then):
                yield label, node, phase, ops - ops_then, cost - cost_then
        for node, row in self._faults.items():
            yield None, node, "fault_recovery", row["ops"], row["cost_s"]

    def _tables(self) -> Tuple[_Table, Dict[str, _Table], Dict[str, _Table]]:
        """(total, per drive label, per node), each by phase; a phase
        appears under a drive or node once it has counted something."""
        phases: _Table = {}
        for phase in PHASES:
            _add(phases, phase, 0, 0.0)
        drives: Dict[str, _Table] = {}
        nodes: Dict[str, _Table] = {}
        for label, node, phase, ops, cost in self._rows():
            if ops:
                _add(phases, phase, ops, cost)
                if label is not None:
                    _add(drives.setdefault(label, {}), phase, ops, cost)
                if node is not None:
                    _add(nodes.setdefault(node, {}), phase, ops, cost)
        return phases, drives, nodes

    def summary_dict(self) -> Dict:
        """The whole profile as a JSON-ready, byte-stable dict.

        Shares are cost-weighted and sum to 1.0 (± float eps) — all zero
        while nothing has cost anything; ``top`` ranks the phases and the
        costliest streams by (cost desc, ops desc, name).
        """
        phases, drives, nodes = self._tables()
        total = sum(row["cost_s"] for row in phases.values())
        for row in phases.values():
            row["share"] = row["cost_s"] / total if total > 0.0 else 0.0
        return {
            "phases": phases,
            "total_cost_s": total,
            "total_ops": sum(row["ops"] for row in phases.values()),
            "top": [{"phase": phase, **row} for phase, row in _ranked(phases)],
            "per_stream": {
                "count": len(self._streams),
                "top": [
                    {"stream": stream_id, **row}
                    for stream_id, row in _ranked(self._streams)[:TOP_STREAMS]
                ],
            },
            "per_drive": drives,
            "per_node": nodes,
            "checkpoints": len(self._checkpoints),
        }

    def top_cost_centers(self, n: Optional[int] = None) -> List[Dict]:
        """The *n* hottest phases (all when None), each with its name,
        ops, modeled cost and share."""
        if n is not None and n < 1:
            raise ParameterError(f"top n must be >= 1, got {n}")
        return self.summary_dict()["top"][:n]

    def drive_busy_time(self) -> float:
        """``DriveStats.busy_time`` of the watched drives since they were
        first watched — what ``seek`` + ``transfer`` must add up to."""
        return sum(
            device.stats.busy_time - sum(cost for _, _, cost in then)
            for device, _node, read, then in self._watched
            if read is _read_drive
        )

    def render(self, top: Optional[int] = None) -> List[str]:
        """The operator-facing lines: the total, the *top* cost centers,
        then one rollup line per drive and per node."""
        summary = self.summary_dict()
        lines = [
            f"  total: {summary['total_ops']} ops, "
            f"{summary['total_cost_s']:.6f}s modeled",
            "  cost centers:",
        ]
        for entry in self.top_cost_centers(top):
            lines.append(
                f"    {entry['phase']:<20} ops={entry['ops']:<10} "
                f"cost={entry['cost_s']:.6f}s share={entry['share']:.4f}"
            )
        for kind in ("drive", "node"):
            for name, table in sorted(summary[f"per_{kind}"].items()):
                lines.append(
                    f"  {kind} {name:<15} "
                    f"ops={sum(row['ops'] for row in table.values()):<10} "
                    f"cost={sum(row['cost_s'] for row in table.values()):.6f}s"
                )
        return lines

    def chrome_counter_events(self) -> List[Dict]:
        """Perfetto ``"C"`` counter events: one track per phase.

        Each retained checkpoint becomes one sample per phase that ever
        carried cost, on counter tracks named ``profile.<phase>`` —
        loadable next to the span export in ui.perfetto.dev.
        """
        phases = self._tables()[0]
        active = [
            index for index, phase in enumerate(PHASES)
            if phases[phase]["cost_s"] > 0.0
        ]
        return [
            {
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "name": f"profile.{PHASES[index]}",
                "ts": round(time * 1e6, 3),
                "args": {"cost_ms": round(costs[index] * 1e3, 6)},
            }
            for time, costs in self._checkpoints
            for index in active
        ]
