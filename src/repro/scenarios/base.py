"""The Scenario protocol, the one ScenarioRun result, and the registry.

A scenario is a frozen, picklable dataclass whose fields *are* its
parameters, registered once under its ``name`` by :func:`register`.
Everything that runs a canonical workload — the ``repro`` CLI views,
the goldens — looks the class up here, builds it (``--set`` from a plain
spec dict), and calls :meth:`Scenario.run`; the answer is always a
:class:`ScenarioRun`.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import (
    ClassVar,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.api import ClusterServeResult
from repro.config import TESTBED_1991
from repro.errors import ParameterError
from repro.media.frames import frames_for_duration
from repro.obs.observer import Observability
from repro.service.session import SessionResult

__all__ = [
    "DEFAULT_SEED",
    "METRIC_KEYS",
    "REGISTRY",
    "Scenario",
    "ScenarioRun",
    "get",
    "record_video",
    "register",
]

#: Seed shared by the goldens and the chaos tests.
DEFAULT_SEED = 20260806

#: Deterministic metric keys every run reports (None = not applicable).
METRIC_KEYS = (
    "blocks_delivered",
    "misses",
    "rounds",
    "continuity_ratio",
    "reject_rate",
    "cache_hit_ratio",
    "slo_breaches",
    "slo_breach_events",
    "handoffs",
    "handoff_clean_ratio",
)

#: name -> scenario class; filled by :func:`register`.
REGISTRY: Dict[str, Type["Scenario"]] = {}


def register(cls: Type["Scenario"]) -> Type["Scenario"]:
    """Class decorator: file *cls* in the registry under ``cls.name``."""
    if cls.name in REGISTRY:
        raise ParameterError(f"scenario {cls.name!r} is already registered")
    REGISTRY[cls.name] = cls
    return cls


def get(name: str) -> Type["Scenario"]:
    """The scenario class registered as *name*."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(sorted(REGISTRY))}"
        ) from None


def record_video(
    mrs, owner: str, seconds: float, source: str, viewers: Sequence[str] = ()
) -> str:
    """RECORD then STOP *seconds* of testbed video; returns the rope id.

    The frames are a pure function of *source*, so a scenario's content
    is reproducible in any process.
    """
    frames = frames_for_duration(TESTBED_1991.video, seconds, source=source)
    request_id, rope_id = mrs.record(
        owner, frames=frames, play_access=tuple(viewers)
    )
    mrs.stop(request_id)
    return rope_id


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    """A guarded ratio: None instead of dividing by zero or NaN."""
    if denominator != denominator or numerator != numerator:
        return None
    if denominator == 0:
        return None
    return numerator / denominator


def _parse(text: str, accepted: Tuple[type, ...]) -> object:
    """CLI text as the first accepted type it reads as (else unchanged)."""
    lowered = text.lower()
    if type(None) in accepted and lowered == "none":
        return None
    if bool in accepted and lowered in ("true", "false"):
        return lowered == "true"
    for kind in (float, int):
        if kind in accepted:
            try:
                return kind(text)
            except ValueError:
                pass
    return text


@dataclass(frozen=True)
class Scenario:
    """One canonical workload; subclasses add their sizing fields.

    Class attributes describe how the scenario appears elsewhere:

    ``name``
        The registry key and CLI ``--scenario`` choice.
    ``sampled``
        Observe through :meth:`Observability.for_scale` (large runs).
    ``smoke_sizing``
        Field overrides of the tiny CI variant (:meth:`smoke`).
    """

    name: ClassVar[str]
    sampled: ClassVar[bool] = False
    smoke_sizing: ClassVar[Mapping[str, object]] = {}

    seed: int = DEFAULT_SEED

    # -- construction from plain data ---------------------------------------------

    @classmethod
    def field_types(cls) -> Dict[str, Tuple[type, ...]]:
        """Field name -> the concrete types it admits (float takes int)."""
        hints = typing.get_type_hints(cls)
        out = {}
        for spec in dataclasses.fields(cls):
            members = typing.get_args(hints[spec.name]) or (hints[spec.name],)
            out[spec.name] = tuple(
                kind
                for member in members
                for kind in ((int, float) if member is float else (member,))
            )
        return out

    @classmethod
    def from_spec(
        cls, spec: Mapping[str, object], smoke: bool = False,
        text: bool = False,
    ) -> "Scenario":
        """Build from a plain dict, type-checking every entry against
        the fields (and, for CLI *text*, parsing the strings first)."""
        types = cls.field_types()
        valid = f"valid parameters of {cls.name!r}: {', '.join(types)}"
        typed = {}
        for key, value in spec.items():
            if key not in types:
                raise ParameterError(f"unknown parameter {key!r}; {valid}")
            accepted = types[key]
            if text and str not in accepted:
                value = _parse(value, accepted)
            if not isinstance(value, accepted) or (
                isinstance(value, bool) and bool not in accepted
            ):
                wanted = "/".join(kind.__name__ for kind in accepted)
                raise ParameterError(
                    f"parameter {key} must be {wanted}, got {value!r}; "
                    f"{valid}"
                )
            typed[key] = value
        return cls.smoke(**typed) if smoke else cls(**typed)

    def _require_counts(self, *keys: str) -> None:
        """Refuse a count field below 1.  A scenario's ``__post_init__``
        is its one validator: ``--set`` and a direct construction
        reject the same values."""
        for key in keys:
            if getattr(self, key) < 1:
                raise ParameterError(
                    f"{key} must be >= 1, got {getattr(self, key)}"
                )

    @classmethod
    def smoke(cls, **overrides) -> "Scenario":
        """The tiny variant ``scripts/check.sh`` and ``--smoke`` run."""
        return cls(**{**cls.smoke_sizing, **overrides})

    # -- running ------------------------------------------------------------------

    def observability(self, profile: bool = False) -> Observability:
        """The scenario's default observer; *profile* adds the profiler."""
        obs = (
            Observability.for_scale(seed=self.seed) if self.sampled
            else Observability(seed=self.seed)
        )
        obs.enable_slos()
        if profile:
            obs.enable_profiler()
        return obs

    def run(self, obs: Optional[Observability] = None) -> "ScenarioRun":
        """Run to completion; ``obs=None`` means :meth:`observability`."""
        raise NotImplementedError

    def profile_section(self, run: "ScenarioRun") -> Dict[str, object]:
        """The byte-stable cost-attribution section of a profiled *run*
        (all modeled time and op counts, never wall clock)."""
        return run.obs.profiler.summary_dict()

    # -- scoring a run (what ScenarioRun.metrics/healthy answer) ------------------

    def metrics(self, run: "ScenarioRun") -> Dict[str, Optional[float]]:
        """Simulation outcomes on :data:`METRIC_KEYS`, one branch per
        ``repro.api`` result type; None = not applicable."""
        result = run.result
        out: Dict[str, Optional[float]] = dict.fromkeys(METRIC_KEYS)
        if isinstance(result, SessionResult):
            # The bare loop scores block-level continuity.
            delivered = sum(
                m.blocks_delivered for m in result.metrics.values()
            )
            out.update(
                blocks_delivered=delivered,
                misses=result.total_misses,
                rounds=result.rounds,
                continuity_ratio=_ratio(
                    delivered - result.total_misses, delivered
                ),
                reject_rate=0.0,
            )
        else:
            serves = (
                tuple(r for node in result.per_node for r in node.results)
                if isinstance(result, ClusterServeResult) else (result,)
            )
            hits = sum(s.cache_stats.get("hits", 0) for s in serves)
            lookups = hits + sum(
                s.cache_stats.get("misses", 0) for s in serves
            )
            out.update(
                blocks_delivered=sum(
                    s.blocks_delivered for s in result.statuses
                ),
                misses=result.total_misses,
                rounds=sum(s.rounds for s in serves),
                continuity_ratio=_ratio(
                    result.continuous_sessions, result.admitted
                ),
                reject_rate=_ratio(
                    len(result.rejects), len(result.statuses)
                ),
                cache_hit_ratio=_ratio(hits, lookups),
            )
        if isinstance(result, ClusterServeResult):
            out.update(
                handoffs=len(result.handoffs),
                handoff_clean_ratio=result.handoff_clean_ratio,
            )
        if run.obs.slo is not None:
            # Unresolved breaches gate golden cells; transitions are
            # counted apart because healthy runs breach transiently
            # (the cache-warm SLO always starts cold).
            summary = run.obs.slo.summary_dict()
            out.update(
                slo_breaches=len(summary["breached_now"]),
                slo_breach_events=sum(
                    1 for event in summary["breach_events"]
                    if event["to"] == "breach"
                ),
            )
        return out

    def healthy(self, run: "ScenarioRun") -> bool:
        """The exit-code predicate: what was admitted played, glitching
        only where a fault was injected."""
        result = run.result
        if isinstance(result, SessionResult):
            return result.total_misses == result.total_skips
        return result.total_misses == sum(s.skips for s in result.statuses)


@dataclass
class ScenarioRun:
    """A completed scenario: the one result type of every run.

    How it is scored is its scenario's business (:meth:`Scenario.metrics`
    and friends); this object carries the evidence.
    """

    scenario: Scenario
    obs: Observability
    #: SessionResult (bare loop / playback), ServeResult or
    #: ClusterServeResult — the measured (last) epoch.
    result: object
    #: The distributed-VoD analytical bounds (cluster runs only).
    bounds: object = None
    #: What was driven: the rope server, MediaServer or MediaCluster.
    stack: object = None
    #: What ran before the measured epoch: server-hot's warm-up results.
    warmups: Tuple = ()

    def snapshot(self, include_profile: bool = False) -> str:
        """The run's stable JSON snapshot (golden-file content)."""
        return self.obs.snapshot(include_profile=include_profile)

    def metrics(self) -> Dict[str, Optional[float]]:
        """Deterministic outcomes on :data:`METRIC_KEYS`; byte-identical
        across runs at the same parameters."""
        return self.scenario.metrics(self)

    def healthy(self) -> bool:
        """Whether the run met its scenario's bar (the CLI exit code)."""
        return self.scenario.healthy(self)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready summary (``repro run --json``)."""
        out: Dict[str, object] = {
            "scenario": self.scenario.name,
            "params": dataclasses.asdict(self.scenario),
            "metrics": self.metrics(),
            "healthy": self.healthy(),
        }
        if hasattr(self.result, "to_dict"):
            out["result"] = self.result.to_dict()
        if self.bounds is not None:
            out["bounds"] = self.bounds.to_dict()
        return out
