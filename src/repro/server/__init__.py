"""The multi-tenant media-server front end.

:class:`MediaServer` owns the storage-manager + rope-server + service
stack and serves client request queues end to end: session lifecycle
(open → play/pause/resume → stop) over simulated time, batched admission
with shared reads (:mod:`repro.server.batching`), a bounded LRU block
cache between the service loop and the drive
(:mod:`repro.disk.cache`), and graceful overload with typed reject
reasons.  Clients speak only the :mod:`repro.api` message types.

The canonical seed-deterministic workloads (``server-steady``,
``server-hot``, ``server-fault``) live in :mod:`repro.scenarios`.
"""

from repro.server.batching import BatchKey, RequestBatch, group_into_batches
from repro.server.media_server import MediaServer, build_media_server

__all__ = [
    "BatchKey",
    "MediaServer",
    "RequestBatch",
    "build_media_server",
    "group_into_batches",
]
