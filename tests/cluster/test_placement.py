"""Placement policy: popularity-aware mirroring and striping."""

import pytest

from repro.cluster import (
    CatalogTitle,
    PlacementMap,
    PlacementPolicy,
    zipf_popularity,
)
from repro.errors import ParameterError

pytestmark = pytest.mark.cluster


def _catalog(n, seconds=1.0):
    return [
        CatalogTitle(
            title_id=f"T{rank:02d}",
            seconds=seconds,
            popularity=zipf_popularity(rank),
        )
        for rank in range(1, n + 1)
    ]


def _nodes(n):
    return [f"node-{i:02d}" for i in range(n)]


class TestZipf:
    def test_weights_decay_with_rank(self):
        assert zipf_popularity(1) == 1.0
        assert zipf_popularity(2) == 0.5
        assert zipf_popularity(4) == 0.25

    def test_rank_must_be_positive(self):
        with pytest.raises(ParameterError):
            zipf_popularity(0)


class TestPlacementMap:
    def test_rejects_duplicate_titles(self):
        with pytest.raises(ParameterError, match="more than once"):
            PlacementMap(assignments=(
                ("T01", ("node-00",)), ("T01", ("node-01",)),
            ))

    def test_rejects_empty_replica_set(self):
        with pytest.raises(ParameterError, match="no replicas"):
            PlacementMap(assignments=(("T01", ()),))

    def test_rejects_repeated_node(self):
        with pytest.raises(ParameterError, match="twice"):
            PlacementMap(assignments=(("T01", ("node-00", "node-00")),))

    def test_lookups(self):
        placement = PlacementMap(assignments=(
            ("T01", ("node-00", "node-01")),
            ("T02", ("node-01",)),
        ))
        assert placement.replicas("T01") == ("node-00", "node-01")
        assert placement.titles_on("node-01") == ("T01", "T02")
        assert placement.has_title("T02")
        assert not placement.has_title("T99")
        assert placement.replica_counts() == {"T01": 2, "T02": 1}


class TestPolicy:
    def test_every_title_gets_min_replicas(self):
        placement = PlacementPolicy(min_replicas=2).plan(
            _catalog(8), _nodes(4), per_node_streams=8
        )
        for title, replicas in placement.assignments:
            assert len(replicas) >= 2, title

    def test_popular_titles_get_more_replicas(self):
        # With a strongly skewed catalog the rank-1 title needs more
        # mirrors than the tail to reach its share of the capacity.
        placement = PlacementPolicy(min_replicas=1).plan(
            _catalog(8), _nodes(8), per_node_streams=4
        )
        counts = placement.replica_counts()
        assert counts["T01"] > counts["T08"]

    def test_plan_is_deterministic(self):
        args = (_catalog(10), _nodes(5), 8)
        a = PlacementPolicy(min_replicas=2).plan(*args)
        b = PlacementPolicy(min_replicas=2).plan(*args)
        assert a == b

    def test_striping_leaves_no_node_empty(self):
        # Striping balances expected demand, not raw title counts: a
        # node can absorb many light tail titles, but none may sit idle
        # while the catalog has work to mirror.
        placement = PlacementPolicy(min_replicas=2).plan(
            _catalog(10), _nodes(5), per_node_streams=8
        )
        per_node = [
            len(placement.titles_on(node)) for node in _nodes(5)
        ]
        assert min(per_node) >= 1

    def test_hot_title_lands_on_distinct_nodes_first(self):
        # The rank-1 title is placed first and takes the emptiest
        # nodes; its replica set never repeats a node.
        placement = PlacementPolicy(min_replicas=2).plan(
            _catalog(10), _nodes(5), per_node_streams=8
        )
        replicas = placement.replicas("T01")
        assert len(set(replicas)) == len(replicas)

    def test_demand_override_beats_declared_popularity(self):
        catalog = _catalog(4)
        # Observed demand inverts the Zipf ranking: the nominal tail
        # title is actually the hot one.
        hot_tail = PlacementPolicy(min_replicas=1).plan(
            catalog, _nodes(4), per_node_streams=2,
            demand={"T04": 100.0, "T01": 1.0},
        )
        counts = hot_tail.replica_counts()
        assert counts["T04"] > counts["T01"]

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            PlacementPolicy(min_replicas=0)
        with pytest.raises(ParameterError):
            PlacementPolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ParameterError, match="non-empty"):
            PlacementPolicy().plan([], _nodes(2), 4)
        with pytest.raises(ParameterError, match="duplicate"):
            PlacementPolicy().plan(
                _catalog(2), ["node-00", "node-00"], 4
            )
        # Used to surface as a bare ValueError from min() (bench
        # Finding 12); both values are named at plan time.
        with pytest.raises(
            ParameterError, match="min_replicas 3 exceeds the node count 2"
        ):
            PlacementPolicy(min_replicas=3).plan(_catalog(2), _nodes(2), 4)

