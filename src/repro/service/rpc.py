"""An in-process stand-in for the prototype's MRS↔MSM transport (§5.2).

In the prototype "the MRS of our testbed system is implemented on a
SPARCstation, whereas the MSM is implemented on a PC-AT", talking over
TCP/IP; applications link a "rope stub library which uses remote procedure
calls to contact the MRS".  The reproduction keeps both layers in one
process (the repro brief's substitution), but preserves the *boundary*: a
:class:`RpcChannel` intercepts every cross-layer call, records it with
estimated marshalled sizes, and forbids calls to private attributes — so
the layering claim ("decoupled design ... permits their execution on
different hardware") stays checkable.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.errors import ParameterError

__all__ = ["RpcCall", "RpcChannel", "estimate_bytes", "stub_for"]


@dataclass(frozen=True)
class RpcCall:
    """One logged cross-layer invocation."""

    method: str
    argument_bytes: int
    result_bytes: int


def estimate_bytes(value: Any) -> int:
    """Rough marshalled size of a call argument/result.

    Deliberately crude — the point is relative magnitude (rope metadata is
    tiny; media never crosses the boundary), not wire-format accuracy.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set)):
        return 8 + sum(estimate_bytes(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(
            estimate_bytes(k) + estimate_bytes(v) for k, v in value.items()
        )
    if isinstance(value, enum.Enum):
        # An enum marshals as its value (the API types use string values).
        return estimate_bytes(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Typed request/response messages (repro.api and friends): a
        # small envelope plus every field, recursively — so nested
        # dataclasses and collections are sized instead of falling into
        # the scalar-attributes guess below.
        return 16 + sum(
            estimate_bytes(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    # Arbitrary objects: count their public scalar attributes.
    total = 16
    for name in dir(value):
        if name.startswith("_"):
            continue
        try:
            attribute = getattr(value, name)
        except Exception:
            continue
        if isinstance(attribute, (int, float, str, bool)):
            total += estimate_bytes(attribute)
    return total


class RpcChannel:
    """Call log and policy enforcement for one layer boundary.

    Given a recorder *rec* (:func:`repro.obs.recorder.recorder_for`), any
    call carrying a ``trace`` keyword (a marshalled span context —
    size-counted like every other argument) is reported to it, and the
    trace field the callee receives is the one the recorder hands back —
    so one session's trace stays a single connected tree across the
    boundary.
    """

    def __init__(self, name: str, rec: Any = None):
        self.name = name
        self._rec = rec
        self.calls: List[RpcCall] = []

    def invoke(
        self, target: Any, method: str, *args: Any, **kwargs: Any
    ) -> Any:
        """Call ``target.method(*args, **kwargs)`` through the channel."""
        if method.startswith("_"):
            raise ParameterError(
                f"RPC channel {self.name!r} refuses private method "
                f"{method!r}; cross-layer calls use public interfaces only"
            )
        bound = getattr(target, method)
        if not callable(bound):
            raise ParameterError(
                f"{method!r} on {type(target).__name__} is not callable"
            )
        rec, span = self._rec, None
        if rec is not None and kwargs.get("trace") is not None:
            span, kwargs = rec.rpc_begun(self.name, method, kwargs)
        argument_bytes = estimate_bytes(list(args)) + estimate_bytes(kwargs)
        try:
            result = bound(*args, **kwargs)
        except Exception:
            if span is not None:
                rec.rpc_ended(span, failed=True)
            raise
        if span is not None:
            rec.rpc_ended(span)
        self.calls.append(
            RpcCall(
                method=method,
                argument_bytes=argument_bytes,
                result_bytes=estimate_bytes(result),
            )
        )
        return result

    @property
    def call_count(self) -> int:
        """Total cross-layer calls."""
        return len(self.calls)

    @property
    def bytes_transferred(self) -> int:
        """Total estimated marshalled bytes both ways."""
        return sum(c.argument_bytes + c.result_bytes for c in self.calls)

    def calls_by_method(self) -> Dict[str, int]:
        """Histogram of invoked methods."""
        histogram: Dict[str, int] = {}
        for call in self.calls:
            histogram[call.method] = histogram.get(call.method, 0) + 1
        return histogram


class _Stub:
    """Attribute-proxy produced by :func:`stub_for`."""

    def __init__(self, target: Any, channel: RpcChannel):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_channel", channel)

    def __getattr__(self, name: str) -> Any:
        target = object.__getattribute__(self, "_target")
        channel = object.__getattribute__(self, "_channel")
        attribute = getattr(target, name)
        if callable(attribute):
            def call(*args: Any, **kwargs: Any) -> Any:
                return channel.invoke(target, name, *args, **kwargs)
            return call
        return attribute


def stub_for(target: Any, channel: RpcChannel) -> Any:
    """A client-side stub routing method calls through *channel*.

    Mirrors the prototype's "rope stub library": applications hold the
    stub, never the server object, and every call is logged.
    """
    return _Stub(target, channel)
