"""Property-based tests for the observability layer (hypothesis).

The invariants golden files alone cannot pin down:

(a) column well-ordering — the loop's per-block columns the timeline is
    tallied from are monotonically timestamped and consistent for *any*
    serviced workload, faulted or not;
(b) conservation — ``consumed + skipped == enqueued`` for every
    completed session, and timeline skips equal the continuity
    metrics' skips;
(c) histogram arithmetic — bucket counts always sum to the observation
    count (with overflow), for arbitrary bounds and samples;
(d) determinism — the full snapshot is byte-identical across two runs
    of the same seeded workload.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.obs import MetricsRegistry, Observability
from repro.rope.server import BlockFetch
from repro.service.rounds import RoundRobinService, StreamState

#: Generous playback duration: properties target event ordering and
#: conservation, not deadline pressure.
BLOCK_PLAYBACK = 0.2

workloads = st.fixed_dictionaries(
    {
        "streams": st.integers(min_value=1, max_value=3),
        "blocks": st.integers(min_value=2, max_value=10),
        "k": st.integers(min_value=1, max_value=4),
        "seed": st.integers(min_value=0, max_value=2**16),
        "transient": st.integers(min_value=0, max_value=3),
        "defects": st.integers(min_value=0, max_value=2),
        "budget": st.integers(min_value=0, max_value=2),
    }
)


def _run_observed(spec):
    """Service a synthetic multi-stream workload under observation."""
    drive = build_drive()
    streams = []
    all_slots = []
    for i in range(spec["streams"]):
        base = i * spec["blocks"] * 3
        slots = list(range(base, base + spec["blocks"] * 3, 3))
        all_slots.extend(slots)
        fetches = [
            BlockFetch(
                slot=slot, bits=drive.block_bits, duration=BLOCK_PLAYBACK
            )
            for slot in slots
        ]
        streams.append(
            StreamState(
                request_id=f"r{i}", fetches=fetches, buffer_capacity=4
            )
        )
    faults = spec["transient"] + spec["defects"]
    if faults and faults <= len(all_slots):
        plan = FaultPlan.random(
            seed=spec["seed"],
            slots=all_slots,
            transient=spec["transient"],
            defects=spec["defects"],
        )
        drive.attach_injector(FaultInjector(plan))
    obs = Observability()
    service = RoundRobinService(
        drive,
        lambda round_number, active: spec["k"],
        recovery=RecoveryPolicy(retry_budget=spec["budget"]),
        obs=obs,
    )
    metrics = service.run(streams)
    return obs, metrics, streams


class TestTimelineProperties:
    @settings(deadline=None, max_examples=25)
    @given(spec=workloads)
    def test_events_well_ordered_and_conserved(self, spec):
        """Blocks land in order, each finishes playing no earlier than it
        landed, and a skip names a landed block — the columns the
        timeline's stages are tallied from."""
        obs, _metrics, streams = _run_observed(spec)
        for stream in streams:
            ready = stream.ready
            assert ready == sorted(ready), stream.request_id
            if stream.clock_start is not None:
                assert len(stream.ends) == len(ready)
                assert all(
                    end >= landed for end, landed in zip(stream.ends, ready)
                )
            assert stream.skipped_indices <= set(range(len(ready)))
        for session_id in obs.timeline.sessions():
            assert obs.timeline.conservation_holds(session_id), (
                obs.timeline.stage_counts(session_id)
            )

    @settings(deadline=None, max_examples=25)
    @given(spec=workloads)
    def test_timeline_skips_equal_metric_skips(self, spec):
        obs, metrics, _streams = _run_observed(spec)
        timeline_skips = sum(
            obs.timeline.stage_counts(sid).get("skipped", 0)
            for sid in obs.timeline.sessions()
        )
        assert timeline_skips == sum(m.skips for m in metrics.values())

    @settings(deadline=None, max_examples=25)
    @given(spec=workloads)
    def test_delivered_counter_matches_metrics(self, spec):
        obs, metrics, _streams = _run_observed(spec)
        delivered = obs.registry.counter("session.blocks_delivered")
        assert delivered.value == sum(
            m.blocks_delivered for m in metrics.values()
        )


class TestHistogramProperties:
    @settings(deadline=None, max_examples=100)
    @given(
        bounds=st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        samples=st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=50,
        ),
    )
    def test_bucket_counts_sum_to_count(self, bounds, samples):
        hist = MetricsRegistry().histogram("h", sorted(bounds))
        for value in samples:
            hist.observe(value)
        assert sum(hist.counts) + hist.overflow == hist.count
        assert hist.count == len(samples)

    @settings(deadline=None, max_examples=25)
    @given(spec=workloads)
    def test_run_histograms_satisfy_invariant(self, spec):
        obs, _metrics, _streams = _run_observed(spec)
        snapshot = obs.registry.snapshot_dict()
        assert snapshot["histograms"], "run recorded no histograms"
        for name, data in snapshot["histograms"].items():
            assert sum(data["counts"]) + data["overflow"] == (
                data["count"]
            ), name


class TestSnapshotDeterminism:
    @settings(deadline=None, max_examples=15)
    @given(spec=workloads)
    def test_same_seed_same_snapshot(self, spec):
        first, _, _ = _run_observed(spec)
        second, _, _ = _run_observed(spec)
        assert first.snapshot() == second.snapshot()
        assert Observability.diff(
            first.snapshot(), second.snapshot()
        ) == {}
