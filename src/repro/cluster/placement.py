"""Popularity-aware striping and mirroring of strands across nodes.

The placement policy answers the VoD scaling question the single-server
stack cannot: which node(s) should hold each catalog title so the
cluster's aggregate stream capacity is actually reachable?  Following
the distributed-VoD bounds (see :mod:`repro.cluster.bounds`), a title
``v`` with expected demand ``d_v`` can never serve more than
``r_v * u`` concurrent streams (``r_v`` replicas, ``u`` per-node stream
capacity), so the policy:

* **mirrors** — gives each title ``ceil(expected_demand / u)`` replicas
  (clamped to ``[min_replicas, nodes]``), so popular titles get the
  replica count their demand needs;
* **stripes** — assigns replicas to the least expected-load node first,
  spreading consecutive titles across the array so no node becomes the
  hot shard.

Demand defaults to the declared catalog popularity; a caller may pass
observed demand instead (e.g. the router's ``cluster.opens.<title>``
counters), so a cluster can be re-planned from what viewers actually
watched rather than what the catalog predicted.

Everything is a pure function of its inputs: the same catalog, node
list, and demand always produce the identical :class:`PlacementMap`,
which is what makes the router's decisions byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ParameterError, UnknownRopeError, check_count, check_seconds

__all__ = [
    "CatalogTitle",
    "PlacementMap",
    "PlacementPolicy",
    "zipf_popularity",
]


@dataclass(frozen=True)
class CatalogTitle:
    """One title of the sharded catalog.

    Attributes
    ----------
    title_id:
        Cluster-wide name clients put in ``OpenSessionRequest.rope_id``
        (the router maps it to each replica node's local rope).
    seconds:
        Recorded duration of the title's strand.
    popularity:
        Relative demand weight (any positive scale; only ratios
        matter).
    """

    title_id: str
    seconds: float = 1.0
    popularity: float = 1.0

    def __post_init__(self) -> None:
        if not self.title_id:
            raise ParameterError("title_id must be non-empty")
        check_seconds(f"title {self.title_id}: seconds", self.seconds)
        if self.seconds <= 0:
            raise ParameterError(
                f"title {self.title_id}: seconds must be > 0, "
                f"got {self.seconds}"
            )
        if self.popularity <= 0:
            raise ParameterError(
                f"title {self.title_id}: popularity must be > 0, "
                f"got {self.popularity}"
            )


def zipf_popularity(rank: int, exponent: float = 1.0) -> float:
    """The classic VoD popularity model: weight ``1 / rank^exponent``."""
    if rank < 1:
        raise ParameterError(f"rank must be >= 1, got {rank}")
    return 1.0 / (rank ** exponent)


@dataclass(frozen=True)
class PlacementMap:
    """An immutable title -> ordered replica-node assignment.

    The replica order is meaningful: it is the deterministic tie-break
    order the router walks when several replicas report equal load.
    """

    assignments: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        seen = set()
        for title, replicas in self.assignments:
            if title in seen:
                raise ParameterError(
                    f"title {title!r} assigned more than once"
                )
            seen.add(title)
            if not replicas:
                raise ParameterError(
                    f"title {title!r} has no replicas"
                )
            if len(set(replicas)) != len(replicas):
                raise ParameterError(
                    f"title {title!r} lists a node twice: {replicas}"
                )

    def titles(self) -> Tuple[str, ...]:
        """Every placed title, in assignment order."""
        return tuple(title for title, _ in self.assignments)

    def replicas(self, title_id: str) -> Tuple[str, ...]:
        """The ordered replica nodes of one title (:class:`UnknownRopeError`,
        a ``KeyError``, if absent)."""
        for title, nodes in self.assignments:
            if title == title_id:
                return nodes
        raise UnknownRopeError(title_id)

    def has_title(self, title_id: str) -> bool:
        """Whether the placement knows this title at all."""
        return any(title == title_id for title, _ in self.assignments)

    def titles_on(self, node_id: str) -> Tuple[str, ...]:
        """Every title replicated onto one node, in assignment order."""
        return tuple(
            title
            for title, nodes in self.assignments
            if node_id in nodes
        )

    def replica_counts(self) -> Dict[str, int]:
        """title -> replica count, for the bounds computation."""
        return {
            title: len(nodes) for title, nodes in self.assignments
        }


class PlacementPolicy:
    """Derives a :class:`PlacementMap` from catalog, nodes, and demand.

    Parameters
    ----------
    min_replicas:
        Floor on every title's replica count (2 gives each title a
        failover target, which is what the handoff path needs).
    max_replicas:
        Optional ceiling; defaults to the node count.
    """

    def __init__(
        self,
        min_replicas: int = 1,
        max_replicas: Optional[int] = None,
    ):
        if min_replicas < 1:
            raise ParameterError(
                f"min_replicas must be >= 1, got {min_replicas}"
            )
        if max_replicas is not None and max_replicas < min_replicas:
            raise ParameterError(
                f"max_replicas {max_replicas} < min_replicas "
                f"{min_replicas}"
            )
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas

    def plan(
        self,
        titles: Sequence[CatalogTitle],
        node_ids: Sequence[str],
        per_node_streams: int,
        demand: Optional[Mapping[str, float]] = None,
    ) -> PlacementMap:
        """Assign every title to an ordered replica set.

        ``demand`` overrides the catalog popularity (e.g. with observed
        open counts); titles absent from it fall back to their declared
        popularity.
        """
        if not titles:
            raise ParameterError("catalog must be non-empty")
        if not node_ids:
            raise ParameterError("node list must be non-empty")
        if len(set(node_ids)) != len(node_ids):
            raise ParameterError(f"duplicate node ids: {node_ids}")
        check_count("per_node_streams", per_node_streams)
        if self.min_replicas > len(node_ids):
            raise ParameterError(
                f"min_replicas {self.min_replicas} exceeds the node count "
                f"{len(node_ids)} (replicas of a title sit on distinct nodes)"
            )
        nodes = list(node_ids)
        weights: Dict[str, float] = {}
        for title in titles:
            weight = title.popularity
            if demand is not None and title.title_id in demand:
                observed = float(demand[title.title_id])
                if observed > 0:
                    weight = observed
            weights[title.title_id] = weight
        total_weight = sum(weights.values())
        capacity = len(nodes) * per_node_streams
        ceiling = min(self.max_replicas or len(nodes), len(nodes))
        # Expected concurrent viewers of each title if the cluster runs
        # at full capacity; a title needs ceil(expected / u) replicas to
        # serve them (the single-video bound, inverted).
        replica_counts: Dict[str, int] = {}
        for title in titles:
            expected = weights[title.title_id] / total_weight * capacity
            needed = math.ceil(expected / per_node_streams)
            replica_counts[title.title_id] = max(
                self.min_replicas, min(needed, ceiling)
            )
        # Stripe replicas onto the least expected-load node first.
        # Titles are placed in descending demand order so the heavy
        # titles claim the emptiest nodes; ties break on catalog order,
        # then on node order — all deterministic.
        order = sorted(
            range(len(titles)),
            key=lambda i: (-weights[titles[i].title_id], i),
        )
        load: Dict[str, float] = {node: 0.0 for node in nodes}
        assignments: Dict[str, Tuple[str, ...]] = {}
        node_rank = {node: i for i, node in enumerate(nodes)}
        for index in order:
            title = titles[index]
            count = replica_counts[title.title_id]
            share = (
                weights[title.title_id] / total_weight * capacity / count
            )
            chosen: list = []
            for _ in range(count):
                candidates = [n for n in nodes if n not in chosen]
                target = min(
                    candidates,
                    key=lambda n: (load[n], node_rank[n]),
                )
                chosen.append(target)
                load[target] += share
            assignments[title.title_id] = tuple(chosen)
        return PlacementMap(
            assignments=tuple(
                (title.title_id, assignments[title.title_id])
                for title in titles
            )
        )

