"""Export digests: every observed export of every scenario, pinned.

``tests/golden/export_digests.json`` holds the sha256 of
``obs.snapshot()`` and of the sorted-key Chrome trace for each
registered scenario at ``smoke()`` size (seeds 0 and 7, with and without
the profiler), the bare ``scale`` loop under each observability preset,
and a few larger fixtures that reach the sampled finalize walk.  The
digests were generated before the hot path was moved behind the
recorder seam, so any refactor of the loop, drive, cache or fault
recovery that changes one byte of any export fails here.  Regenerate
intentionally with ``pytest --regen-golden``.
"""

import hashlib
import json

import pytest

from repro.obs import Observability
from repro.scenarios import REGISTRY, get

pytestmark = pytest.mark.golden

SEEDS = (0, 7)

SCALE = get("scale")
FAULT = get("fault")

#: The presets the bare loop is pinned under (``scale`` runs unobserved
#: by default, so its configurations are listed explicitly).
PRESETS = {
    "default": lambda seed: Observability(seed=seed),
    "for_scale": Observability.for_scale,
    "for_profiling": Observability.for_profiling,
}


def _sampled_profiled(seed):
    obs = Observability.for_scale(seed=seed)
    obs.enable_profiler()
    return obs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _export(obs) -> dict:
    return {
        "snapshot": _digest(obs.snapshot()),
        "trace": _digest(json.dumps(obs.to_chrome_trace(), sort_keys=True)),
    }


def _sampled_fixtures():
    """Runs long enough to reach the every-64th lattice under
    ``for_scale``: a continuous load (closed-form consumption ends), a
    stalled one (the running fold), and a faulted playback (skips on
    the sampled walk, with and without a head failure)."""
    yield "scale-continuous-sampled", SCALE(
        streams=2, blocks_per_stream=150, label="cont"
    )
    yield "scale-stalled-sampled", SCALE(
        streams=6, blocks_per_stream=150, label="stall",
        arrivals="staggered",
    )
    # Seeds chosen so faults land on sampled indexes: 16 retries and
    # skips inside the keep-first prefix, 17 skips block 64 (lattice).
    for seed in (16, 17):
        yield f"fault-sampled-seed{seed}", FAULT(
            seed=seed, seconds=20.0, transient=9, defects=5
        )
    yield "fault-head-sampled", FAULT(
        seed=16, seconds=20.0, head_failure_at_op=100
    )


def compute_digests() -> dict:
    digests = {}
    for name in sorted(REGISTRY):
        for seed in SEEDS:
            for profile in (False, True):
                scenario = REGISTRY[name].smoke(seed=seed)
                obs = scenario.observability(profile=profile)
                if not obs.enabled:
                    continue
                scenario.run(obs)
                key = f"{name}/seed{seed}/{'profiled' if profile else 'plain'}"
                digests[key] = _export(obs)
    for preset, build in PRESETS.items():
        for seed in SEEDS:
            obs = build(seed=seed)
            SCALE.smoke(seed=seed).run(obs)
            digests[f"scale/seed{seed}/{preset}"] = _export(obs)
    for key, scenario in _sampled_fixtures():
        for label, build in (
            ("for_scale", Observability.for_scale),
            ("for_scale+profiler", _sampled_profiled),
        ):
            obs = build(seed=scenario.seed)
            scenario.run(obs)
            digests[f"{key}/{label}"] = _export(obs)
    return digests


def test_exports_match_pinned_digests(golden):
    golden(
        "export_digests.json",
        json.dumps(compute_digests(), indent=2, sort_keys=True),
    )


def test_fixture_reaches_both_definitions_of_consumption_end():
    """The trap the digests exist for: a miss-free stream's span ends at
    ``deadline + duration`` of its last block, a stalled one's at the
    running fold — both must be exercised on *sampled* indexes."""
    fixtures = dict(_sampled_fixtures())
    for key, continuous in (
        ("scale-continuous-sampled", True),
        ("scale-stalled-sampled", False),
    ):
        obs = Observability.for_scale(seed=0)
        run = fixtures[key].run(obs)
        assert all(
            m.continuous is continuous for m in run.result.metrics.values()
        )
        sampled = {
            event.block_index for event in obs.timeline
            if event.stage.value == "consumed"
        }
        assert {0, 7, 64, 128} <= sampled and 8 not in sampled
    obs = Observability.for_scale(seed=17)
    fixtures["fault-sampled-seed17"].run(obs)
    skipped = {
        e.block_index for e in obs.timeline if e.stage.value == "skipped"
    }
    assert 64 in skipped
    assert obs.tracer.spans(name="fault.skip")
