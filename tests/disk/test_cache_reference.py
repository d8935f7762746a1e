"""The cached read against an ``OrderedDict`` model of an LRU with pins.

``LruModel`` states the cache's contract plainly.  Residency is an
``OrderedDict`` in recency order, oldest first; pins are counts.  A read
of a resident slot is a hit: it moves to the newest end and costs
nothing.  A miss reads the drive underneath, then makes the slot
resident, evicting the oldest unpinned slot when full (refusing the
insert when every slot is pinned).  A media defect on a miss drops the
slot instead.  An invalidation or a write drops residency, counting
when the slot was resident or pinned.  A pin is all-or-nothing over
resident slots.  Generated sequences of reads, traced reads, pins,
unpins, invalidations, writes, injected faults and media defects run
through ``CachedDrive`` and through the model over a twin drive, with an
observer attached and without.  After every step the resident order,
the pins, ``CacheStats.as_dict()``, the inner drive's counters and the
returned duration (or raised fault) must be equal, the observer's
``cache.*`` counters must read the stats, and a traced read must report
one access with its hit, miss or fault status.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.disk.cache import BlockCache, CachedDrive
from repro.errors import MediaDefectError, ParameterError, TransientReadError
from repro.obs import Observability


class LruModel:
    """A bounded LRU over slots with pins, in front of *drive*; it has
    ``CachedDrive``'s surface, its ``cache`` being itself."""

    def __init__(self, drive, capacity):
        self.drive, self.capacity, self.cache = drive, capacity, self
        self.resident, self.pins = OrderedDict(), {}
        self.stats = dict.fromkeys((
            "hits", "misses", "insertions", "evictions", "invalidations",
            "pin_failures",
        ), 0)

    def read_slot(self, slot):
        if slot in self.resident:
            self.resident.move_to_end(slot)
            self.stats["hits"] += 1
            return 0.0
        self.stats["misses"] += 1
        try:
            duration = self.drive.read_slot(slot)
        except MediaDefectError:
            self.invalidate(slot)
            raise
        if len(self.resident) >= self.capacity:
            unpinned = [held for held in self.resident if held not in self.pins]
            if not unpinned:
                return duration
            del self.resident[unpinned[0]]
            self.stats["evictions"] += 1
        self.resident[slot] = None
        self.stats["insertions"] += 1
        return duration

    def traced_read(self, slot, bits, now, rec, parent):
        return self.read_slot(slot)

    def invalidate(self, slot):
        if slot in self.resident or slot in self.pins:
            self.stats["invalidations"] += 1
        self.resident.pop(slot, None)

    def pin(self, slots):
        if any(slot not in self.resident for slot in slots):
            self.stats["pin_failures"] += 1
            return False
        for slot in slots:
            self.pins[slot] = self.pins.get(slot, 0) + 1
        return True

    def unpin(self, slots):
        for slot in slots:
            if slot in self.pins:
                self.pins[slot] -= 1
                if not self.pins[slot]:
                    del self.pins[slot]

    def write_slot(self, slot):
        self.invalidate(slot)
        return self.drive.write_slot(slot)


class Calls:
    """A recorder that logs every call made on it."""

    def __init__(self):
        self.log = []
        self.spans = 0

    def __getattr__(self, name):
        def record(*args):
            self.log.append((name, args))
            if name in ("cache_read", "span_begin"):
                self.spans += 1
                return self.spans
            return None

        return record


class ScriptedInjector:
    """Raises the fault scripted for a slot on its next access, once."""

    def __init__(self):
        self.faults = {}

    def pre_check(self, slot):
        return None

    def post_check(self, slot, elapsed, busy_time):
        kind = self.faults.pop(slot, None)
        if kind is None:
            return None
        error = MediaDefectError if kind == "defect" else TransientReadError
        return error(f"scripted {kind}", slot=slot, elapsed=elapsed)


def _stacks(capacity, observed):
    """``((CachedDrive, its injector), (the model, its twin's injector))``."""
    pair = []
    for wrap in (lambda drive: CachedDrive(drive, BlockCache(capacity)),
                 lambda drive: LruModel(drive, capacity)):
        drive, injector = build_drive(), ScriptedInjector()
        drive.attach_injector(injector)
        pair.append((wrap(drive), injector))
    cached = pair[0][0]
    cached.observer = Observability() if observed else None
    cached.attach_cache_observer(cached.observer)
    return pair


#: Six slots on different cylinders, and one past the drive's end.
SLOTS = st.sampled_from([n * 593 for n in range(6)] + [build_drive().slots])
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), SLOTS),
        st.tuples(st.just("traced"), SLOTS),
        st.tuples(st.just("pin"), st.lists(SLOTS, max_size=3)),
        st.tuples(st.just("unpin"), st.lists(SLOTS, max_size=3)),
        st.tuples(st.just("invalidate"), SLOTS),
        st.tuples(st.just("write"), SLOTS),
        st.tuples(st.just("defect"), SLOTS),
        st.tuples(st.just("transient"), SLOTS),
    ),
    max_size=60,
)


def _apply(cached, injector, step, tracer):
    kind, arg = step
    try:
        if kind == "read":
            return cached.read_slot(arg)
        if kind == "traced":
            return cached.traced_read(arg, None, 1.0, tracer, "parent")
        if kind == "pin":
            return cached.cache.pin(arg)
        if kind == "unpin":
            return cached.cache.unpin(arg)
        if kind == "invalidate":
            return cached.cache.invalidate(arg)
        if kind == "write":
            return cached.write_slot(arg)
        injector.faults[arg] = kind
        return None
    except (MediaDefectError, TransientReadError) as fault:
        return type(fault).__name__, fault.elapsed
    except ParameterError as error:
        return str(error)


def _state(cached):
    """What the model and the cached drive must agree on after a step."""
    model = isinstance(cached, LruModel)
    cache = cached if model else cached.cache
    inner = (cached.drive if model else cached.inner).stats
    return (
        list(cache.resident if model else cache._resident),
        dict(cache.pins if model else cache._pins),
        cache.stats if model else cache.stats.as_dict(),
        (inner.reads, inner.writes, inner.busy_time, inner.faults_injected),
    )


def assert_observed(cached):
    """An observer's ``cache.*`` counters are reads of the stats."""
    if cached.observer is None:
        return
    counters = cached.observer.registry.snapshot_dict()["counters"]
    stats, names = cached.cache.stats.as_dict(), ("hits", "misses", "evictions")
    assert set(counters) <= {f"cache.{name}" for name in names}
    for name in names:
        assert counters.get(f"cache.{name}", 0) == stats[name], name


def assert_traced(tracer, slot, result, hit):
    """A traced read is one access under the parent, closed as a hit, a
    miss or its fault when it returned or raised."""
    status = "hit" if hit else "miss"
    if isinstance(result, tuple):
        status = "defect" if result[0] == "MediaDefectError" else result[0]
    elif isinstance(result, str):
        status = "ParameterError"
    elapsed = result if isinstance(result, float) else (
        result[1] if isinstance(result, tuple) else 0.0
    )
    assert tracer.log[0] == ("cache_read", (1.0, "parent", slot))
    assert tracer.log[-1] == ("span_end", (1, 1.0 + elapsed, status))


class TestOneFrameReadMatchesTheReference:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=STEPS,
        capacity=st.integers(1, 5),
        observed=st.booleans(),
    )
    def test_generated_sequences_agree(self, steps, capacity, observed):
        (cached, faults), (model, model_faults) = _stacks(capacity, observed)
        for step in steps:
            tracer, hits = Calls(), model.stats["hits"]
            result = _apply(cached, faults, step, tracer)
            assert result == _apply(model, model_faults, step, None), step
            assert _state(cached) == _state(model), step
            assert_observed(cached)
            if step[0] == "traced":
                assert_traced(tracer, step[1], result, model.stats["hits"] > hits)

    def test_a_full_pinned_cache_refuses_the_insert_and_keeps_order(self):
        (new, _), (model, _) = _stacks(2, True)
        for target in (new, model):
            target.read_slot(0)
            target.read_slot(593)
            assert target.cache.pin([0, 593])
            target.read_slot(2 * 593)
        assert _state(new) == _state(model)
        assert list(new.cache._resident) == [0, 593]
        assert isinstance(new.cache._resident, OrderedDict)

    def test_a_defect_on_a_pinned_absent_slot_counts_its_invalidation(self):
        states = []
        for target, injector in _stacks(2, True):
            for step in (
                ("read", 593), ("pin", [593]), ("invalidate", 593),
                ("defect", 593), ("read", 593), ("defect", 593),
                ("traced", 593),
            ):
                _apply(target, injector, step, Calls())
            states.append(_state(target))
        assert states[0] == states[1]
        assert states[0][2]["invalidations"] == 3
