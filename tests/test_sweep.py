"""Sweep orchestration: cell grids, tree construction policy, report emission."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from geograph.data import SyntheticConfig, generate_synthetic, subsample_labels
from geograph import sweep
from geograph.errors import ArgumentError, NumericError
from geograph.models import DccaConfig, GcnConfig, MlpConfig, TrainConfig, trained_config
from geograph.sweep import (
    CSV_HEADER,
    MODEL_NAMES,
    SweepSpec,
    build_region_tree,
    emit_report,
    labels_for_training,
    load_sweep_file,
    prepare_views,
    run_sweep,
    tree_bucket,
)


@pytest.fixture(scope="module")
def small_bundle():
    return generate_synthetic(
        SyntheticConfig(n_users=80, n_regions=2, vocab_size=40, p_in=0.1, p_out=0.01),
        seed=0,
    )


def _small_spec(**overrides):
    base = dict(
        fractions=(1.0,),
        models=("gcn",),
        seeds=(0,),
        depths=(1,),
        hidden=8,
        epochs=3,
        lr=0.02,
        dropout=0.0,
        bucket=10,
        dcca={"proj_hidden": 0, "proj_out": 4, "stage1_epochs": 3},
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        SweepSpec(models=("transformer",))
    with pytest.raises(ArgumentError):
        SweepSpec(fractions=(0.0,))
    for axis in ("models", "fractions", "depths", "seeds"):
        with pytest.raises(ArgumentError, match="need at least one model"):
            SweepSpec(**{axis: ()})
    with pytest.raises(ArgumentError):
        SweepSpec(depths=(0,))
    with pytest.raises(ArgumentError):
        SweepSpec(tree_from="dev")
    with pytest.raises(ArgumentError):
        SweepSpec(min_df=-1)
    with pytest.raises(ArgumentError):
        SweepSpec(max_comention_degree=-1)
    # the knobs every cell's configs check, checked once for the spec
    for bad, message in [({"epochs": 0}, "epochs"), ({"dropout": 1.5}, "dropout"),
                         ({"hidden": 0}, "hidden"), ({"dcca": {"reg": -1.0}}, "reg"),
                         ({"lr": 0.0}, "^lr must be > 0"), ({"lr": -1e-3}, "^lr must be > 0"),
                         ({"lr": float("nan")}, "^lr must be > 0"),
                         ({"dcca": {"stage1_lr": 0.0}}, "stage1_lr must be > 0"),
                         ({"dcca": {"stage1_lr": float("nan")}}, "stage1_lr must be > 0"),
                         ({"bucket": 0}, "bucket must be >= 1"),
                         ({"lam": float("nan")}, "lam must be >= 0"),
                         ({"max_df_ratio": 0.0}, "max_df_ratio must be in"),
                         ({"seeds": (1, -1)}, "^seed must be >= 0, got -1$"),
                         # a repeated grid value would run a cell twice and count it twice
                         ({"models": ("gcn", "mlp", "gcn")}, "^models repeats 'gcn'$"),
                         ({"fractions": (0.5, 1.0, 0.5)}, r"^fractions repeats 0\.5$"),
                         ({"depths": (1, 1)}, "^depths repeats 1$"),
                         ({"seeds": (0, 0, 1)}, "^seeds repeats 0$")]:
        with pytest.raises(ArgumentError, match=message):
            SweepSpec(**bad)
    with pytest.raises(TypeError, match="proj_width"):  # a sweep file gets ArgumentError
        SweepSpec(dcca={"proj_width": 4})


def test_spec_training_defaults_are_the_configs_defaults():
    spec, train_cfg = SweepSpec(), TrainConfig()
    assert spec.hidden == GcnConfig().hidden == MlpConfig().hidden == DccaConfig().clf_hidden
    assert (spec.epochs, spec.lr, spec.dropout) == (
        train_cfg.epochs, train_cfg.lr, train_cfg.dropout)


def test_load_sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "models": ["gcn", "mlp"],
        "seeds": [0, 1],
        "dataset": {"synthetic": {"n_users": 50}},
        "out": "results",
    }))
    spec, dataset, out = load_sweep_file(path)
    assert spec.models == ("gcn", "mlp") and spec.seeds == (0, 1)
    assert dataset == {"synthetic": (SyntheticConfig(n_users=50), 0)}
    assert out == "results"
    path.write_text(json.dumps({"modles": ["gcn"]}))
    with pytest.raises(ArgumentError):
        load_sweep_file(path)


@pytest.mark.parametrize("fields, message", [
    ({"dataset": 5}, "dataset is 5, not dict"),
    ({"dataset": {"synthetic": [1]}}, "dataset.synthetic is [1], not dict"),
    ({"dataset": {"synthetic": {"n_user": 50}}}, "unknown key dataset.synthetic.n_user"),
    ({"dataset": {"synthetic": {"n_users": "50"}}}, "dataset.synthetic.n_users is '50', not int"),
    ({"dataset": {"users": 1, "edges": "e.tsv"}}, "dataset.users is 1, not str"),
    ({"hidden": "16"}, "hidden is '16', not int"),
    ({"lr": "x"}, "lr is 'x', not float"),
    ({"bucket_scale": True}, "unknown key bucket_scale"),
    ({"fractions": 0.5}, "fractions is 0.5, not a list of float"),
    ({"seeds": [0, 1.5]}, "seeds is [0, 1.5], not a list of int"),
    ({"dcca": {"proj_out": 2.5}}, "dcca.proj_out is 2.5, not int"),
    ({"dcca": {"bogus": 1}}, "unknown key dcca.bogus"),
    ({"out": 3}, "out is 3, not str"),
    ({"epochs": 0}, "epochs must be >= 1"),
    ({"dropout": 1.5}, "dropout must be in [0, 1)"),
    ({"lr": 0}, "lr must be > 0, got 0"),
    ({"dcca": {"stage1_lr": -1}}, "stage1_lr must be > 0, got -1"),
    ({"hidden": 0}, "hidden must be >= 1"),
    ({"depths": [0]}, "depths must be >= 1"),
    ({"bucket": 0}, "bucket must be >= 1, got 0"),
    ({"bucket": -5}, "bucket must be >= 1, got -5"),
    ({"lam": -1.0}, "lam must be >= 0, got -1.0"),
    ({"lam": float("nan")}, "lam must be >= 0, got nan"),
    ({"max_df_ratio": 0.0}, "max_df_ratio must be in (0, 1], got 0.0"),
    ({"max_df_ratio": 1.5}, "max_df_ratio must be in (0, 1], got 1.5"),
    ({"dataset": {"synthetic": {"jitter_deg": 0.5}}}, "unknown key dataset.synthetic.jitter_deg"),
    ({"dataset": {"synthetic": {"train_frac": 0.5}}}, "unknown key dataset.synthetic.train_frac"),
    ({"dataset": {"edges": "e.tsv"}}, "dataset entry must give 'users'+'edges' or 'synthetic'"),
    ({"dataset": {"users": "u.jsonl", "synthetic": {}}},
     "dataset names both 'users'+'edges' and 'synthetic'"),
    ({"dataset": {"synthetic": {"words_per_user": -1}}}, "words_per_user must be >= 0, got -1"),
    ({"lam": float("inf")}, "lam must be finite, got inf"),
    ({"lr": float("inf")}, "lr must be finite, got inf"),
    ({"dcca": {"reg": float("inf")}}, "reg must be finite, got inf"),
    ({"dcca": {"reg": float("nan")}}, "reg must be > 0, got nan"),
    ({"dcca": {"stage1_lr": float("inf")}}, "stage1_lr must be finite, got inf"),
])
def test_load_sweep_file_names_the_bad_field(tmp_path, fields, message):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"dataset": {"synthetic": {}}, **fields}))
    with pytest.raises(ArgumentError, match=re.escape(message)) as info:
        load_sweep_file(path)
    assert str(info.value).startswith(f"{path}: ")


def test_tree_bucket():
    assert tree_bucket(50, 1.0, "labeled") == 50
    assert tree_bucket(50, 0.1, "labeled") == 5
    assert tree_bucket(50, 0.001, "labeled") == 1  # floored
    assert tree_bucket(50, 0.1, "all-train") == 50  # never scaled


def test_tree_source_policy(small_bundle):
    part = subsample_labels(small_bundle, 0.2, seed=0)
    labeled_tree = build_region_tree(small_bundle, part, bucket=10, fraction=0.2)
    full_tree = build_region_tree(
        small_bundle, part, bucket=10, fraction=0.2, tree_from="all-train"
    )
    # labeled mode sees only the labeled points with a scaled bucket;
    # all-train mode covers the whole train split at the unscaled bucket
    assert sum(labeled_tree.leaf_counts()) == part.train_idx.size
    assert sum(full_tree.leaf_counts()) == small_bundle.split_indices("train").size
    assert max(labeled_tree.leaf_counts()) <= tree_bucket(10, 0.2, "labeled")
    assert max(full_tree.leaf_counts()) <= 10
    with pytest.raises(ArgumentError):
        build_region_tree(small_bundle, part, 10, 0.2, tree_from="everything")


def test_labels_only_on_labeled_rows(small_bundle):
    part = subsample_labels(small_bundle, 0.3, seed=1)
    tree = build_region_tree(small_bundle, part, bucket=5, fraction=0.3)
    labels = labels_for_training(small_bundle, tree, part.train_idx)
    mask = np.zeros(len(small_bundle), dtype=bool)
    mask[part.train_idx] = True
    assert np.all(labels[~mask] == -1)
    assert np.all(labels[mask] >= 0)
    assert np.all(labels[mask] < tree.num_classes)


def test_run_sweep_grid_shape(small_bundle):
    spec = _small_spec(models=("gcn", "mlp"), depths=(1, 2), seeds=(0, 1))
    report = run_sweep(small_bundle, spec)
    # depth axis collapses for mlp: gcn gets 2 depths x 2 seeds, mlp 1 x 2
    assert len(report.cells) == 4 + 2
    mlp_depths = {c.depth for c in report.cells if c.model == "mlp"}
    assert mlp_depths == {1}
    assert all(not c.failed for c in report.cells)
    assert all(c.test is not None and c.dev is not None for c in report.cells)
    assert all(c.seconds >= 0.0 for c in report.cells)


def test_run_sweep_covers_every_model(small_bundle):
    spec = _small_spec(models=("gcn", "gcn-nohighway", "gcn-lp", "mlp", "dcca"))
    report = run_sweep(small_bundle, spec)
    failures = [(c.model, c.reason) for c in report.cells if c.failed]
    assert failures == []
    assert {c.model for c in report.cells} == set(spec.models)


def test_cell_config_matches_trained_meta(monkeypatch, caplog):
    # dcca keeps its default proj_out, wider than 300 users can correlate:
    # training caps it, says so once, and the cell records the width it
    # trained with.
    runs, run_cell = [], sweep.run_cell
    monkeypatch.setattr(sweep, "run_cell", lambda *args: runs.append(run_cell(*args)) or runs[-1])
    spec = _small_spec(models=MODEL_NAMES, depths=(2,),
                       dcca={"proj_hidden": 8, "stage1_epochs": 2})
    with caplog.at_level("WARNING", logger="geograph.models"):
        report = run_sweep(generate_synthetic(SyntheticConfig(n_users=300), seed=0), spec)
    assert len(runs) == len(report.cells) == len(MODEL_NAMES)
    harness = {"epochs", "lr", "dropout", "seed", "fraction", "bucket", "tree_from", "lam",
               "early_stop"}
    for cell, run in zip(report.cells, runs):
        meta = run.model.meta
        shared = set(cell.config) & set(meta)
        assert shared and {k: cell.config[k] for k in shared} == {k: meta[k] for k in shared}
        assert cell.config is run.config
        dcca_keys = set(asdict(DccaConfig())) if cell.model == "dcca" else set()
        assert set(cell.config) == harness | set(trained_config(run.model)) | dcca_keys
        if cell.model in ("mlp", "dcca"):
            assert not {"layers", "highway"} & set(cell.config)
        else:
            assert not [k for k in cell.config if k.startswith(("proj_", "stage1_"))]
    assert report.cells[-1].model == "dcca" and report.cells[-1].config["proj_out"] == 149
    warning, = [r for r in caplog.records if r.name == "geograph.models"]
    assert "proj_out 500" in warning.getMessage()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cell_failure_does_not_kill_sweep(small_bundle, monkeypatch):
    # an absurd fraction yields a single labeled point per class at best;
    # force a runtime failure instead: dcca stage 1 diverges at this rate
    spec = _small_spec(models=("dcca", "gcn"),
                       dcca={"proj_hidden": 4, "proj_out": 2,
                             "stage1_epochs": 5, "stage1_lr": 1e200})
    report = run_sweep(small_bundle, spec)
    by_model = {c.model: c for c in report.cells}
    assert by_model["dcca"].failed and by_model["dcca"].reason
    assert not by_model["gcn"].failed
    # The failed cell keeps the record of what it was asked to run, its
    # model config included.
    assert by_model["dcca"].config == sweep.run_config(spec, "dcca", 1.0, 1, 0)
    assert by_model["dcca"].config["stage1_lr"] == 1e200
    assert by_model["dcca"].config["clf_hidden"] == spec.hidden

    def diverge(*args):
        raise NumericError("training diverged: loss is nan at epoch 1")

    monkeypatch.setattr(sweep, "train", diverge)
    cell, = run_sweep(small_bundle, _small_spec(models=("gcn-nohighway",), depths=(3,))).cells
    assert cell.failed and cell.reason.startswith("NumericError")
    assert {k: cell.config[k] for k in ("hidden", "layers", "highway", "gate_bias")} == {
        "hidden": 8, "layers": 3, "highway": False, "gate_bias": -1.0}


def test_emit_report_layout(tmp_path, small_bundle):
    spec = _small_spec(models=("gcn",), seeds=(0, 1))
    report = run_sweep(small_bundle, spec)
    json_path, csv_path = emit_report(report, tmp_path / "out")
    payload = json.loads(json_path.read_text())
    assert payload["provenance"] == "synthetic"
    assert len(payload["cells"]) == 2
    agg = payload["aggregates"]
    assert len(agg) == 1 and agg[0]["seeds"] == 2
    assert "test_acc161_mean" in agg[0] and "test_acc161_std" in agg[0]
    assert all(cell["seconds"] > 0.0 for cell in payload["cells"])  # timings live here
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER == "model,fraction,depth,seed,acc161,mean_km,median_km"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 7
    assert first[0] == "gcn" and first[1] == "1" and first[2] == "1"
    float(first[4]), float(first[5]), float(first[6])  # parse as numbers


def test_reports_are_byte_stable(tmp_path, small_bundle):
    spec = _small_spec(models=("gcn", "mlp"), seeds=(0,))
    blobs = []
    for tag in ("a", "b"):
        report = run_sweep(small_bundle, spec)
        json_path, csv_path = emit_report(report, tmp_path / tag)
        payload = json.loads(json_path.read_text())
        for cell in payload["cells"]:
            cell["seconds"] = 0.0  # timings legitimately differ
        blobs.append((json.dumps(payload, sort_keys=True), csv_path.read_bytes()))
    assert blobs[0] == blobs[1]


def test_prepare_views_shapes(small_bundle):
    views = prepare_views(small_bundle)
    n = len(small_bundle)
    assert views.text.shape[0] == n
    assert views.adjacency.shape == (n, n)
    assert views.text.shape[1] == len(views.vocabulary.terms)
