"""Four small scenario cells, their deterministic metrics pinned as one golden.

The bare round loop, the hot-strand server with its cache off and on,
and the three-node cluster that loses a node mid-run are each built from
their parameters, run with their default observer, and
``{cell id: run.metrics()}`` is compared byte for byte against
``tests/golden/scenario_cells.json``.  Two of them are acceptance runs:
they must also end with no SLO breached, and the cluster's handoffs must
stay clean.  Regenerate intentionally with ``pytest --regen-golden``
(the diff then goes through review).
"""

import json

import pytest

from repro.scenarios import get

pytestmark = pytest.mark.golden

#: cell id -> (registered scenario, its parameters).
CELLS = {
    "scale-testbed-uniform-n4-b16-seed0": ("scale", {
        "arrivals": "uniform", "blocks_per_stream": 16,
        "buffer_capacity": 8, "drive": "testbed", "k": 4, "seed": 0,
        "streams": 4,
    }),
    "server-hot-s4x2-c0-batchon-seed0": ("server-hot", {
        "batch_window": 0.25, "batching": True, "cache_blocks": 0,
        "seconds": 1.0, "seed": 0, "sessions": 4, "strands": 2,
    }),
    "server-hot-s4x2-c256-batchon-seed0": ("server-hot", {
        "batch_window": 0.25, "batching": True, "cache_blocks": 256,
        "seconds": 1.0, "seed": 0, "sessions": 4, "strands": 2,
    }),
    "cluster-n3-s12-t4-seed0": ("cluster-scale", {
        "chunks": 3, "kill_chunk": 1, "kill_node": 1, "min_replicas": 2,
        "nodes": 3, "per_node_streams": 8, "seconds": 1.0, "seed": 0,
        "sessions": 12, "titles": 4,
    }),
}

#: The acceptance cells.  The cache-off server cell rejects by §3.4
#: design, so its breached SLOs are pinned by the golden, not refused.
ACCEPTANCE = (
    "server-hot-s4x2-c256-batchon-seed0", "cluster-n3-s12-t4-seed0",
)


@pytest.fixture(scope="module")
def metrics():
    return {
        cell_id: get(name)(**params).run().metrics()
        for cell_id, (name, params) in CELLS.items()
    }


def test_cell_metrics_match_the_golden(golden, metrics):
    golden(
        "scenario_cells.json", json.dumps(metrics, indent=2, sort_keys=True)
    )


@pytest.mark.parametrize("cell_id", ACCEPTANCE)
def test_an_acceptance_cell_ends_with_no_slo_breached(metrics, cell_id):
    assert metrics[cell_id]["slo_breaches"] == 0


def test_the_cluster_cell_hands_off_cleanly(metrics):
    cluster = metrics["cluster-n3-s12-t4-seed0"]
    assert cluster["handoffs"] >= 1
    assert cluster["handoff_clean_ratio"] >= 0.9
