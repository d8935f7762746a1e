"""repro — a reproduction of Rangan & Vin's multimedia file system.

This library re-implements, from scratch and in pure Python, the system
described in P. Venkat Rangan and Harrick M. Vin, *Designing File Systems
for Digital Video and Audio* (SOSP 1991):

* the **analytical storage model** relating disk and device characteristics
  to recording rates, yielding storage *granularity* and *scattering*
  parameters that guarantee continuous retrieval (:mod:`repro.core`);
* the **admission-control algorithm** that decides whether a new
  storage/retrieval request can be serviced without violating any active
  request's real-time constraints (:mod:`repro.core.admission`);
* a simulated **disk substrate** with constrained block allocation
  (:mod:`repro.disk`) and simulated **media devices** (:mod:`repro.media`);
* the **Multimedia Storage Manager** — strands, 3-level block indices,
  silence elimination, garbage collection (:mod:`repro.fs`);
* the **Multimedia Rope Server** — ropes, synchronization information, the
  copy-free editing operations INSERT / REPLACE / SUBSTRING / CONCATE /
  DELETE, and the §4.2 scattering-repair algorithm (:mod:`repro.rope`);
* the round-based real-time **service loop** and the continuity scorer
  used to validate continuity empirically (:mod:`repro.service`,
  :mod:`repro.sim`);
* experiment drivers regenerating every quantitative figure in the
  paper (:mod:`repro.analysis`).

The supported public surface is the typed message API plus the two
deployment front ends:

* :mod:`repro.api` — the request/response dataclasses every client
  speaks, single-server and cluster alike (re-exported here:
  :class:`OpenSessionRequest`, :class:`SessionStatus`,
  :class:`ServeResult`, :class:`ClusterServeResult`, …);
* :class:`repro.server.MediaServer` — owns the storage-manager +
  rope-server + service stack and serves request queues end to end with
  batched admission, a block cache, and typed overload;
* :class:`repro.cluster.MediaCluster` — N sharded MediaServers behind
  the same typed API: popularity-aware placement, least-loaded replica
  routing, and deterministic inter-node session handoff.

Quick start::

    from repro import MediaServer, OpenSessionRequest
    from repro.server import build_media_server

    server = build_media_server()
    # ... record ropes via server.mrs, then:
    result = server.serve(
        [OpenSessionRequest(client_id="alice", rope_id="R0001")]
    )
    print(result.continuous_sessions)

The canonical seed-deterministic workloads (the goldens, ``python -m
repro run --scenario NAME``) are one registry,
:mod:`repro.scenarios`::

    from repro.scenarios import get

    run = get("server-hot")(sessions=50, strands=5).run()
    print(run.metrics(), run.healthy())

The lower layers (``core``, ``disk``, ``fs``, ``rope``, ``service``, …)
stay importable for library use and experiments; import their classes
from the owning module (the old deprecated top-level aliases, e.g.
``repro.PlaybackSession``, have been removed).
"""

from repro import (
    analysis,
    api,
    cluster,
    config,
    core,
    disk,
    errors,
    faults,
    fs,
    media,
    obs,
    rope,
    server,
    service,
    sim,
    units,
)
from repro.api import (
    ClusterServeResult,
    HandoffRecord,
    Media,
    NodeServeResult,
    NodeStatus,
    OpenSessionRequest,
    OpenSessionResponse,
    PauseRequest,
    PlayRequest,
    RejectReason,
    ResumeRequest,
    ServeResult,
    SessionState,
    SessionStatus,
    StopRequest,
)
from repro.cluster import MediaCluster
from repro.server import MediaServer

__version__ = "2.0.0"

__all__ = [
    "ClusterServeResult",
    "HandoffRecord",
    "Media",
    "MediaCluster",
    "MediaServer",
    "NodeServeResult",
    "NodeStatus",
    "OpenSessionRequest",
    "OpenSessionResponse",
    "PauseRequest",
    "PlayRequest",
    "RejectReason",
    "ResumeRequest",
    "ServeResult",
    "SessionState",
    "SessionStatus",
    "StopRequest",
    "analysis",
    "api",
    "cluster",
    "config",
    "core",
    "disk",
    "errors",
    "faults",
    "fs",
    "media",
    "obs",
    "rope",
    "server",
    "service",
    "sim",
    "units",
    "__version__",
]
