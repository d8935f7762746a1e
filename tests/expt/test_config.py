"""Unit tests for experiment-matrix configs: schema, expansion, hashing."""

import json

import pytest

from repro.expt import (
    ExperimentConfig,
    ExperimentConfigError,
    canonical_json,
    config_hash,
    load_config,
    smoke_config,
)
from repro.expt.config import SMOKE_CONFIG_DICT


def _minimal(**overrides):
    raw = {
        "schema_version": 2,
        "name": "unit",
        "workloads": [{"kind": "scale", "streams": 2,
                       "blocks_per_stream": 8}],
    }
    raw.update(overrides)
    return raw


class TestValidation:
    def test_minimal_config_validates(self):
        config = ExperimentConfig.from_dict(_minimal())
        assert config.name == "unit"
        assert config.drives == ("testbed",)
        assert config.seeds == (0,)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown config"):
            ExperimentConfig.from_dict(_minimal(topology="ring"))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ExperimentConfigError, match="schema_version"):
            ExperimentConfig.from_dict(_minimal(schema_version=99))

    def test_missing_workloads_rejected(self):
        raw = _minimal()
        del raw["workloads"]
        with pytest.raises(ExperimentConfigError, match="workloads"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ExperimentConfigError, match="kind"):
            ExperimentConfig.from_dict(
                _minimal(workloads=[{"kind": "warp-drive"}])
            )

    def test_unknown_workload_param_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown param"):
            ExperimentConfig.from_dict(_minimal(
                workloads=[{"kind": "scale", "streamz": 2}]
            ))

    def test_non_positive_param_rejected(self):
        with pytest.raises(
            ExperimentConfigError,
            match=r"workloads\[0\] \(scale\): streams must be >= 1, got 0",
        ):
            ExperimentConfig.from_dict(_minimal(
                workloads=[{"kind": "scale", "streams": 0}]
            ))

    @pytest.mark.parametrize("kind, key", [
        ("scale", "streams"), ("scale", "k"), ("server-hot", "sessions"),
        ("server-hot", "strands"), ("cluster-scale", "sessions"),
    ])
    def test_scenario_is_the_one_validator(self, kind, key):
        # A config and `--set` construct the same dataclass, so they
        # refuse the same value with the same message.
        from repro.errors import ParameterError
        from repro.scenarios import get

        with pytest.raises(ParameterError) as from_set:
            get(kind).from_spec({key: "0"}, smoke=True, text=True)
        with pytest.raises(ExperimentConfigError) as from_config:
            ExperimentConfig.from_dict(_minimal(
                workloads=[{"kind": kind, key: 0}]
            ))
        assert str(from_set.value) == f"{key} must be >= 1, got 0"
        assert str(from_config.value) == (
            f"workloads[0] ({kind}): {from_set.value}"
        )

    def test_zero_is_a_value_where_the_scenario_takes_it(self):
        # Node 0 can be the one that dies; a zero batching window is
        # per-request admission.
        config = ExperimentConfig.from_dict(_minimal(workloads=[
            {"kind": "cluster-scale", "nodes": 3, "sessions": 8,
             "titles": 4, "kill_node": 0},
            {"kind": "server-hot", "sessions": 4, "strands": 2,
             "batch_window": 0.0},
        ]))
        cluster, server = config.expand()
        assert cluster.spec_dict()["kill_node"] == 0
        assert server.spec_dict()["batch_window"] == 0.0

    def test_unknown_drive_rejected(self):
        with pytest.raises(ExperimentConfigError, match="drive"):
            ExperimentConfig.from_dict(
                _minimal(axes={"drives": ["floppy"]})
            )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown axes"):
            ExperimentConfig.from_dict(
                _minimal(axes={"node_count": [1]})
            )

    def test_tolerances_key_refused(self):
        # The gate's rules are one constant table; a config cannot
        # carry its own (and host time is not the gate's to judge).
        with pytest.raises(
            ExperimentConfigError, match="unknown config key.*tolerances"
        ):
            ExperimentConfig.from_dict(_minimal(
                tolerances={"misses": {"kind": "max", "limit": 1}}
            ))

    def test_pre_tolerance_removal_file_fails_on_the_version_line(self):
        with pytest.raises(
            ExperimentConfigError, match="schema_version must be 2, got 1"
        ):
            ExperimentConfig.from_dict(_minimal(
                schema_version=1, tolerances={},
            ))

    def test_duplicate_cells_rejected(self):
        workload = {"kind": "scale", "streams": 2, "blocks_per_stream": 8}
        config = ExperimentConfig.from_dict(
            _minimal(workloads=[workload, dict(workload)])
        )
        with pytest.raises(ExperimentConfigError, match="duplicate"):
            config.expand()


class TestExpansion:
    def test_expansion_is_deterministic(self):
        a = [c.cell_id for c in smoke_config().expand()]
        b = [c.cell_id for c in smoke_config().expand()]
        assert a == b

    def test_scale_consumes_drives_and_seeds_only(self):
        config = ExperimentConfig.from_dict(_minimal(axes={
            "drives": ["testbed", "fast"],
            "cache_blocks": [0, 64, 128],
            "batching": [True, False],
            "seeds": [0, 7],
        }))
        cells = config.expand()
        # cache and batching axes must not multiply scale cells.
        assert len(cells) == 2 * 2
        assert {c.spec_dict()["drive"] for c in cells} == {
            "testbed", "fast",
        }
        assert {c.spec_dict()["seed"] for c in cells} == {0, 7}

    def test_server_consumes_cache_batching_seeds(self):
        config = ExperimentConfig.from_dict(_minimal(
            workloads=[{"kind": "server-hot", "sessions": 4,
                        "strands": 2}],
            axes={
                "drives": ["testbed", "fast"],
                "cache_blocks": [0, 64],
                "batching": [True, False],
                "seeds": [0],
            },
        ))
        cells = config.expand()
        # the drive axis must not multiply server cells.
        assert len(cells) == 2 * 2

    def test_golden_binds_to_acceptance_configuration_only(self):
        config = ExperimentConfig.from_dict(_minimal(
            workloads=[{"kind": "server-hot", "sessions": 4,
                        "strands": 2, "golden": True}],
            axes={"cache_blocks": [0, 64], "batching": [True, False]},
        ))
        golden = {
            c.cell_id: c.golden for c in config.expand()
        }
        assert golden == {
            "server-hot-s4x2-c0-batchon-seed0": False,
            "server-hot-s4x2-c0-batchoff-seed0": False,
            "server-hot-s4x2-c64-batchon-seed0": True,
            "server-hot-s4x2-c64-batchoff-seed0": False,
        }

    def test_smoke_matrix_shape(self):
        cells = smoke_config().expand()
        kinds = [c.kind for c in cells]
        assert kinds == [
            "scale", "server-hot", "server-hot", "cluster-scale",
        ]
        assert sum(1 for c in cells if c.golden) == 2

    def test_cluster_consumes_seeds_only(self):
        config = ExperimentConfig.from_dict(_minimal(
            workloads=[{"kind": "cluster-scale", "nodes": 3,
                        "sessions": 8, "titles": 4}],
            axes={
                "drives": ["testbed", "fast"],
                "cache_blocks": [0, 64],
                "batching": [True, False],
                "seeds": [0, 7],
            },
        ))
        cells = config.expand()
        # drive/cache/batching axes must not multiply cluster cells.
        assert len(cells) == 2
        assert [c.cell_id for c in cells] == [
            "cluster-n3-s8-t4-seed0", "cluster-n3-s8-t4-seed7",
        ]


class TestHashing:
    def test_hash_is_key_order_insensitive(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a).startswith("sha256:")

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_config_hash_changes_with_content(self):
        base = smoke_config()
        altered = ExperimentConfig.from_dict({
            **SMOKE_CONFIG_DICT,
            "description": "different",
        })
        assert base.hash != altered.hash

    def test_roundtrip_preserves_hash(self):
        config = smoke_config()
        again = ExperimentConfig.from_dict(config.to_dict())
        assert config.hash == again.hash


class TestLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_minimal()))
        config = load_config(str(path))
        assert config.name == "unit"

    def test_missing_file_has_clear_error(self, tmp_path):
        with pytest.raises(ExperimentConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json_has_clear_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_committed_full_config_expands(self):
        # experiments/full.json is the only copy of the full matrix
        # (`--config` loads it; `--smoke` is the builtin): it must keep
        # loading and expanding so the file cannot rot.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        config = load_config(str(root / "experiments" / "full.json"))
        assert config.name == "full"
        cells = config.expand()
        # scale: 4 rows x 2 drives x 2 seeds; server-hot: 2 caches x
        # 2 batching x 2 seeds; cluster-scale: 2 seeds.
        assert [c.kind for c in cells] == (
            ["scale"] * 16 + ["server-hot"] * 8 + ["cluster-scale"] * 2
        )
        assert len({c.cell_id for c in cells}) == len(cells)
        assert sum(c.golden for c in cells) == 4
        assert max(c.spec_dict().get("streams", 0) for c in cells) == 1000
