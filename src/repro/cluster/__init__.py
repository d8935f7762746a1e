"""Distributed VoD cluster: sharded MediaServers behind one typed API.

The cluster layer scales the paper's single-server machinery to a
multi-node deployment while keeping the :mod:`repro.api` surface:

* :mod:`repro.cluster.placement` — popularity-aware striping and
  mirroring of strands across nodes;
* :mod:`repro.cluster.node` — one MediaServer shard (own drive array,
  own block cache) plus the routing metadata the cluster needs;
* :mod:`repro.cluster.router` — :class:`MediaCluster`: least-loaded
  replica admission, chunked serving, deterministic node kills with
  inter-node session handoff, and :func:`build_cluster`;
* :mod:`repro.cluster.bounds` — the distributed-VoD analytical bounds
  (single-video, full-catalog, storage, max-flow demand) the measured
  cluster is reported against.

The canonical seed-deterministic run is the ``cluster-scale`` scenario
in :mod:`repro.scenarios`.
"""

from repro.cluster.bounds import (
    ClusterBounds,
    bounds_for_placement,
    demand_max_flow,
    full_catalog_bound,
    single_video_bound,
    storage_feasible,
)
from repro.cluster.node import ClusterNode, build_node
from repro.cluster.placement import (
    CatalogTitle,
    PlacementMap,
    PlacementPolicy,
    zipf_popularity,
)
from repro.cluster.router import CLUSTER_SLOS, MediaCluster, build_cluster

__all__ = [
    "CLUSTER_SLOS",
    "CatalogTitle",
    "ClusterBounds",
    "ClusterNode",
    "MediaCluster",
    "PlacementMap",
    "PlacementPolicy",
    "bounds_for_placement",
    "build_cluster",
    "build_node",
    "demand_max_flow",
    "full_catalog_bound",
    "single_video_bound",
    "storage_feasible",
    "zipf_popularity",
]
