"""The one-frame cached read against the path it replaced.

``CachedDrive.read_slot`` does the residency test, the LRU refresh, the
counters, the inner read and the insert in its own body.  The reference
below is the earlier path, kept verbatim in behaviour: ``_probe`` (a
``BlockCache.lookup``) and ``_miss`` (the inner read, then
``BlockCache.insert`` with its ``_next_victim`` scan).  Neither reports a
probe or an eviction: an observer reads the ``cache.*`` counters off
``CacheStats``.  Generated sequences of reads, traced reads, pins,
unpins, invalidations, writes, injected faults and media defects run
through both, with an observer attached and without; after every step
the resident order, the pins, ``CacheStats.as_dict()``, the inner
drive's counters, the returned duration (or raised fault), the
observer's counters and the tracing recorder's calls must be equal.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.disk.cache import BlockCache, CachedDrive
from repro.errors import MediaDefectError, ParameterError, TransientReadError
from repro.obs import Observability


class ReferenceCache(BlockCache):
    """``BlockCache`` with the earlier ``lookup`` / ``insert`` /
    ``_next_victim``."""

    def lookup(self, slot):
        if slot in self._resident:
            self._resident.move_to_end(slot)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, slot):
        if slot in self._resident:
            self._resident.move_to_end(slot)
            return True
        while len(self._resident) >= self.capacity:
            victim = self._next_victim()
            if victim is None:
                return False
            del self._resident[victim]
            self.stats.evictions += 1
        self._resident[slot] = None
        self.stats.insertions += 1
        return True

    def _next_victim(self):
        for slot in self._resident:
            if slot not in self._pins:
                return slot
        return None


class ReferenceCachedDrive(CachedDrive):
    """``CachedDrive`` whose reads take the earlier ``_probe`` / ``_miss``
    path."""

    def read_slot(self, slot, bits=None):
        if self._probe(slot):
            return self.hit_time
        return self._miss(slot, self.inner.read_slot, bits)

    def traced_read(self, slot, bits, now, rec, parent):
        span = rec.cache_read(now, parent, slot)
        if self._probe(slot):
            rec.span_end(span, now + self.hit_time, "hit")
            return self.hit_time
        below = span if span is not None else parent
        try:
            duration = self._miss(
                slot, self.inner.traced_read, bits, now, rec, below
            )
        except Exception as fault:
            defect = isinstance(fault, MediaDefectError)
            rec.span_end(
                span, now + getattr(fault, "elapsed", 0.0),
                "defect" if defect else type(fault).__name__,
            )
            raise
        rec.span_end(span, now + duration, "miss")
        return duration

    def _probe(self, slot):
        return self.cache.lookup(slot)

    def _miss(self, slot, read_inner, *args):
        try:
            duration = read_inner(slot, *args)
        except MediaDefectError:
            self.cache.invalidate(slot)
            raise
        self.cache.insert(slot)
        return duration


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


def _stack(cache_class, drive_class, capacity, observed):
    drive = build_drive()
    injector = ScriptedInjector()
    drive.attach_injector(injector)
    cached = drive_class(drive, cache_class(capacity))
    cached.observer = Observability() if observed else None
    cached.attach_cache_observer(cached.observer)
    return cached, injector


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
    inner = cached.inner.stats
    return (
        list(cached.cache._resident),
        dict(cached.cache._pins),
        cached.cache.stats.as_dict(),
        (inner.reads, inner.writes, inner.busy_time, inner.faults_injected),
        cached.observer.registry.snapshot_dict()["counters"]
        if cached.observer is not None else None,
    )


class TestOneFrameReadMatchesTheReference:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=STEPS,
        capacity=st.integers(1, 5),
        observed=st.booleans(),
    )
    def test_generated_sequences_agree(self, steps, capacity, observed):
        new, new_faults = _stack(BlockCache, CachedDrive, capacity, observed)
        old, old_faults = _stack(
            ReferenceCache, ReferenceCachedDrive, capacity, observed
        )
        new_tracer, old_tracer = Calls(), Calls()
        for step in steps:
            assert _apply(new, new_faults, step, new_tracer) == _apply(
                old, old_faults, step, old_tracer
            ), step
            assert _state(new) == _state(old), step
            assert new_tracer.log == old_tracer.log, step

    def test_a_full_pinned_cache_refuses_the_insert_and_keeps_order(self):
        new, _ = _stack(BlockCache, CachedDrive, 2, True)
        old, _ = _stack(ReferenceCache, ReferenceCachedDrive, 2, True)
        for cached in (new, old):
            cached.read_slot(0)
            cached.read_slot(593)
            assert cached.cache.pin([0, 593])
            cached.read_slot(2 * 593)
        assert _state(new) == _state(old)
        assert list(new.cache._resident) == [0, 593]
        assert isinstance(new.cache._resident, OrderedDict)

    def test_a_defect_on_a_pinned_absent_slot_counts_its_invalidation(self):
        states = []
        for cache_class, drive_class in (
            (BlockCache, CachedDrive), (ReferenceCache, ReferenceCachedDrive)
        ):
            cached, injector = _stack(cache_class, drive_class, 2, True)
            tracer = Calls()
            for step in (
                ("read", 593), ("pin", [593]), ("invalidate", 593),
                ("defect", 593), ("read", 593), ("defect", 593),
                ("traced", 593),
            ):
                _apply(cached, injector, step, tracer)
            states.append((_state(cached), tracer.log))
        assert states[0] == states[1]
        assert states[0][0][2]["invalidations"] == 3
