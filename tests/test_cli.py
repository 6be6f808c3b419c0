"""End-to-end CLI behavior: subcommands, artifacts, exit codes, reruns."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geograph
from geograph import models
from geograph.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from geograph.cli import cli, main
from geograph.sweep import CSV_HEADER, MODEL_NAMES


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic corpus written through the synth subcommand."""
    out = tmp_path_factory.mktemp("corpus")
    code = main([
        "synth", "--out", str(out), "--n-users", "120", "--regions", "2",
        "--vocab-size", "40", "--p-in", "0.08", "--p-out", "0.005", "--seed", "0",
    ])
    assert code == 0
    return out / "users.jsonl", out / "edges.tsv"


def _train_args(corpus, out_dir, **overrides):
    users, edges = corpus
    opts = {
        "--users": str(users), "--edges": str(edges), "--model": "gcn",
        "--hidden": "8", "--layers": "1", "--epochs": "3", "--lr": "0.02",
        "--dropout": "0.0", "--bucket": "15", "--seed": "0", "--out": str(out_dir),
    }
    opts.update(overrides)
    args = ["train"]
    for key, value in opts.items():
        args.extend([key, value] if value is not None else [key])
    return args


def test_train_writes_artifacts(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(corpus, out)) == 0
    for name in ("model.ckpt", "predictions.csv", "report.json",
                 "per_class_dev.csv", "per_class_test.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == "gcn"
    assert report["config"]["tree_from"] == "labeled"
    assert set(report["metrics"]) == {"dev", "test"}
    assert report["metrics"]["test"]["acc161"] >= 0.0
    assert report["seconds"] > 0.0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "id,split,class_id,pred_lat,pred_lon"
    assert len(lines) == 121
    printed = capsys.readouterr().out
    assert "dev: acc@161" in printed and "test: acc@161" in printed


def test_train_then_eval_round_trip(corpus, tmp_path, capsys):
    users, edges = corpus
    out = tmp_path / "run"
    assert main(_train_args(corpus, out)) == 0
    train_report = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    code = main(["eval", "--model", str(out / "model.ckpt"),
                 "--users", str(users), "--edges", str(edges)])
    assert code == 0
    scored = json.loads(capsys.readouterr().out)
    assert set(scored) == {"train", "dev", "test"}
    for split in ("dev", "test"):
        assert scored[split]["acc161"] == pytest.approx(
            train_report["metrics"][split]["acc161"]
        )
        assert scored[split]["median_km"] == pytest.approx(
            train_report["metrics"][split]["median_km"]
        )


def test_train_rerun_is_deterministic(corpus, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(corpus, out_a)) == 0
    assert main(_train_args(corpus, out_b)) == 0
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    assert (out_a / "predictions.csv").read_bytes() == (out_b / "predictions.csv").read_bytes()


@pytest.mark.parametrize("model", ["gcn", "gcn-lp"])
def test_trained_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, model):
    """Training and prediction hold OpenBLAS at one thread, so a run writes
    the same bytes at one and at two threads, though OpenBLAS would otherwise
    split each weight gradient's reduction across them."""
    if not models._openblas_threads():
        pytest.skip("no OpenBLAS is loaded, so nothing pins the thread count")
    src = Path(geograph.__file__).resolve().parent.parent

    def geograph_run(threads: str, *args: str) -> None:
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "geograph", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    geograph_run("1", "synth", "--out", "c", "--n-users", "1000", "--seed", "0")
    for threads in ("1", "2"):
        geograph_run(threads, "train", "--users", "c/users.jsonl", "--edges", "c/edges.tsv",
                     "--model", model, "--layers", "2", "--hidden", "64", "--epochs", "20",
                     "--out", threads)
    for name in ("model.ckpt", "predictions.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_checkpoint_does_not_depend_on_where_the_corpus_lives(corpus, tmp_path):
    copy = tmp_path / "elsewhere" / "copy"
    copy.mkdir(parents=True)
    for path in corpus:
        (copy / path.name).write_bytes(path.read_bytes())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(corpus, out_a)) == 0
    assert main(_train_args((copy / "users.jsonl", copy / "edges.tsv"), out_b)) == 0
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


# dcca at its default widths trains 1,000-unit projections for 100 epochs.
_MODEL_FLAGS = {"dcca": {"--proj-hidden": "12", "--proj-out": "4", "--stage1-epochs": "5"}}


@pytest.mark.parametrize("model", ["gcn-lp", "mlp", "dcca"])
def test_train_other_models(corpus, tmp_path, model):
    out = tmp_path / model
    flags = _MODEL_FLAGS.get(model, {})
    assert main(_train_args(corpus, out, **{"--model": model, **flags})) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == model
    meta = load_checkpoint(out / "model.ckpt")[0].meta
    for flag, value in flags.items():
        name = flag[2:].replace("-", "_")
        assert report["config"][name] == int(value)
        if name in meta:
            assert meta[name] == int(value)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_report_config_matches_checkpoint_meta(corpus, tmp_path, caplog, model):
    # dcca keeps its default proj_out, wider than 120 users can correlate:
    # training caps it, says so once, and the report states the capped width.
    users, edges = corpus
    out = tmp_path / model
    flags = {"--proj-hidden": "12", "--stage1-epochs": "2"} if model == "dcca" else {}
    with caplog.at_level("WARNING", logger="geograph.models"):
        assert main(_train_args(corpus, out, **{"--model": model, "--layers": "2", **flags})) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    meta = load_checkpoint(out / "model.ckpt")[0].meta
    shared = set(config) & set(meta)
    assert shared and {k: config[k] for k in shared} == {k: meta[k] for k in shared}
    warnings = [r for r in caplog.records if r.name == "geograph.models"]
    if model == "dcca":
        assert config["proj_out"] == meta["proj_out"] == 59
        assert len(warnings) == 1 and "proj_out 500" in warnings[0].getMessage()
    else:
        assert not warnings
    # No key for a knob the model does not read.
    if model in ("mlp", "dcca"):
        assert not {"layers", "highway"} & set(config)
    if model != "dcca":
        assert not [key for key in config if key.startswith(("proj_", "stage1_"))]
    assert "lam" in config and "lambda" not in config
    # A one-cell sweep of the same run records the same config.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "models": [model], "depths": [2], "hidden": 8, "epochs": 3, "lr": 0.02,
        "dropout": 0.0, "bucket": 15, "dcca": {"proj_hidden": 12, "stage1_epochs": 2},
        "dataset": {"users": str(users), "edges": str(edges)},
    }))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    cell, = json.loads((tmp_path / "sweep" / "report.json").read_text())["cells"]
    assert cell["config"] == config


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Another graph, of 80 users, from the same generator."""
    out = tmp_path_factory.mktemp("small")
    assert main(["synth", "--out", str(out), "--n-users", "80", "--regions", "2",
                 "--vocab-size", "40", "--p-in", "0.08", "--p-out", "0.005", "--seed", "1"]) == 0
    return out / "users.jsonl", out / "edges.tsv"


@pytest.mark.parametrize("model", ["gcn", "gcn-lp", "mlp", "dcca"])
def test_eval_on_a_graph_of_another_size(corpus, small_corpus, tmp_path, capsys, model):
    # mlp, gcn-lp and dcca read one input column per user; gcn scores any graph.
    out = tmp_path / model
    assert main(_train_args(corpus, out, **{"--model": model, **_MODEL_FLAGS.get(model, {})})) == 0
    users, edges = small_corpus
    capsys.readouterr()
    code = main(["eval", "--model", str(out / "model.ckpt"), "--users", str(users),
                 "--edges", str(edges)])
    captured = capsys.readouterr()
    if model == "gcn":
        assert code == 0 and "test" in json.loads(captured.out)
    else:
        assert code == 1
        assert f"the {model} checkpoint was trained on 120 users, but the dataset has 80" \
            in captured.err


def test_train_fraction_and_tree_flags(corpus, tmp_path):
    out = tmp_path / "frac"
    args = _train_args(corpus, out, **{"--labeled-fraction": "0.3",
                                       "--tree-from": "all-train"})
    assert main(args) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["tree_from"] == "all-train"
    assert report["config"]["bucket"] == 15  # never scaled in all-train mode
    assert report["labeled_users"] < 120


def test_sweep_subcommand(corpus, tmp_path, capsys):
    users, edges = corpus
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "models": ["gcn", "mlp"],
        "seeds": [0],
        "hidden": 8,
        "epochs": 3,
        "lr": 0.02,
        "dropout": 0.0,
        "bucket": 15,
        "dataset": {"users": str(users), "edges": str(edges)},
    }))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    payload = json.loads((out / "report.json").read_text())
    assert {c["model"] for c in payload["cells"]} == {"gcn", "mlp"}
    assert "cells (0 failed)" in capsys.readouterr().out


@pytest.mark.parametrize("model", ["gcn", "gcn-lp", "mlp"])
def test_train_matches_one_cell_sweep(corpus, tmp_path, model):
    users, edges = corpus
    assert main(_train_args(corpus, tmp_path / "train", **{"--model": model,
                                                           "--layers": "2"})) == 0
    trained = json.loads((tmp_path / "train" / "report.json").read_text())["metrics"]["test"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "models": [model], "fractions": [1.0], "depths": [2], "seeds": [0],
        "hidden": 8, "epochs": 3, "lr": 0.02, "dropout": 0.0, "bucket": 15,
        "dataset": {"users": str(users), "edges": str(edges)},
    }))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    cell, = json.loads((tmp_path / "sweep" / "report.json").read_text())["cells"]
    assert cell["test"] == trained


def test_train_defaults_match_a_sweep_file_that_leaves_them_out(corpus, tmp_path):
    users, edges = corpus
    out = tmp_path / "train"
    assert main(["train", "--users", str(users), "--edges", str(edges), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dataset": {"users": str(users), "edges": str(edges)}}))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    cell, = json.loads((tmp_path / "sweep" / "report.json").read_text())["cells"]
    assert cell["config"] == report["config"]
    assert cell["test"] == report["metrics"]["test"]


def test_train_gcn_nohighway_has_no_gates(corpus, tmp_path):
    out = tmp_path / "run"
    assert main(_train_args(corpus, out, **{"--model": "gcn-nohighway", "--layers": "2"})) == 0
    model = load_checkpoint(out / "model.ckpt")[0]
    assert model.kind == "gcn" and model.meta["highway"] is False
    assert not [name for name in model.params if name.startswith("gate")]
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == "gcn-nohighway" and report["config"]["highway"] is False


def test_sweep_with_synthetic_dataset(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "models": ["gcn"],
        "seeds": [0],
        "hidden": 8,
        "epochs": 2,
        "dropout": 0.0,
        "bucket": 15,
        "dataset": {"synthetic": {"n_users": 60, "n_regions": 2, "vocab_size": 30,
                                  "p_in": 0.1, "p_out": 0.01, "seed": 1}},
        "out": str(tmp_path / "from_spec"),
    }))
    assert main(["sweep", "--spec", str(spec)]) == 0
    assert (tmp_path / "from_spec" / "report.csv").exists()


def test_exit_code_user_error(tmp_path, capsys):
    users = tmp_path / "users.jsonl"
    edges = tmp_path / "edges.tsv"
    users.write_text('{"id": "a", "lat": 1.0}\n')  # missing fields
    edges.write_text("")
    assert main(["train", "--users", str(users), "--edges", str(edges),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_train_rejects_nonpositive_lr(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(corpus, out, **{"--lr": "0"})) == 1
    assert "lr must be > 0, got 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_train_early_stop_end_to_end(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-users", "300", "--seed", "0"]) == 0
    corpus = (data / "users.jsonl", data / "edges.tsv")
    # The CLI's own dropout, lr and bucket, which ``_train_args`` overrides.
    flags = {"--hidden": "16", "--epochs": "40", "--dropout": "0.5", "--lr": "0.001",
             "--bucket": "50", "--early-stop": None}
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert main(_train_args(corpus, out, **flags)) == 0
    report = json.loads((runs[0] / "report.json").read_text())
    assert report["epochs_run"] <= 40
    assert report["config"]["early_stop"] is True
    assert (runs[0] / "model.ckpt").read_bytes() == (runs[1] / "model.ckpt").read_bytes()


def test_early_stop_without_dev_users_exits_1(corpus, tmp_path, capsys):
    users, edges = corpus
    rows = [json.loads(line) for line in users.read_text().splitlines()]
    no_dev = tmp_path / "users.jsonl"
    no_dev.write_text("".join(
        json.dumps({**row, "split": "test" if row["split"] == "dev" else row["split"]}) + "\n"
        for row in rows))
    out = tmp_path / "run"
    assert main(_train_args((no_dev, edges), out, **{"--early-stop": None})) == 1
    assert "early stopping needs dev users" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("flags, message", [
    ({"--bucket": "0"}, "bucket must be >= 1, got 0"),
    ({"--bucket": "-5"}, "bucket must be >= 1, got -5"),
    ({"--lambda": "-1"}, "lam must be >= 0, got -1.0"),
    ({"--seed": "-1"}, "seed must be >= 0, got -1"),
    ({"--lambda": "inf"}, "lam must be finite, got inf"),
])
def test_train_rejects_out_of_range_knobs(corpus, tmp_path, capsys, monkeypatch, flags, message):
    def no_load(*args):
        raise AssertionError("the dataset was loaded before the knobs were checked")

    monkeypatch.setattr("geograph.cli.load_dataset", no_load)
    out = tmp_path / "run"
    assert main(_train_args(corpus, out, **flags)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_zero_width_mlp(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(corpus, out, **{"--model": "mlp", "--hidden": "0"})) == 1
    assert "hidden must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields, message", [
    ({"dataset": 5}, "dataset is 5, not dict"),
    ({"dataset": {"synthetic": {"n_users": 60, "regions": 2}}}, "unknown key dataset.synthetic.regions"),
    ({"hidden": "16"}, "hidden is '16', not int"),
    ({"epochs": 0}, "epochs must be >= 1"),
    ({"dcca": {"bogus": 1}}, "unknown key dcca.bogus"),
    ({"fractions": 0.5}, "fractions is 0.5, not a list of float"),
    ({"models": []}, "need at least one model"),
    ({"bucket": 0}, "bucket must be >= 1, got 0"),
    ({"lam": -1.0}, "lam must be >= 0, got -1.0"),
    ({"max_df_ratio": 0.0}, "max_df_ratio must be in (0, 1], got 0.0"),
    ({"dataset": {"synthetic": {"words_per_user": -1}}}, "words_per_user must be >= 0, got -1"),
    ({"seeds": [-1]}, "seed must be >= 0, got -1"),
    ({"dataset": {"synthetic": {"seed": -3}}}, "seed must be >= 0, got -3"),
    ({"seeds": [0, 0, 1]}, "seeds repeats 0"),
    ({"models": ["gcn", "mlp"], "depths": [1, 1]}, "depths repeats 1"),
    # JSON's Infinity, which json.dumps writes for inf
    ({"lam": float("inf")}, "lam must be finite, got inf"),
    ({"lr": float("inf")}, "lr must be finite, got inf"),
])
def test_sweep_rejects_bad_spec_field(corpus, tmp_path, capsys, fields, message):
    users, edges = corpus
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dataset": {"users": str(users), "edges": str(edges)}, **fields}))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, out, message", [
    ({"dataset": {"synthetic": {"n_users": 60}}}, False, "no output directory"),
    ({}, True, "sweep spec needs a 'dataset' entry"),
    ({"dataset": {"users": "u.jsonl"}}, True, "must give 'users'+'edges' or 'synthetic'"),
    ({"dataset": {"users": "u.jsonl", "edges": "e.tsv", "synthetic": {"n_users": 60}}}, True,
     "dataset names both 'users'+'edges' and 'synthetic'"),
])
def test_sweep_needs_out_and_dataset(tmp_path, capsys, monkeypatch, spec, out, message):
    def no_load(*args, **kwargs):
        raise AssertionError("a dataset was loaded before the sweep file was checked")

    monkeypatch.setattr("geograph.cli.load_dataset", no_load)
    monkeypatch.setattr("geograph.cli.generate_synthetic", no_load)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    args = ["sweep", "--spec", str(path)] + (["--out", str(tmp_path / "out")] if out else [])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert message in err and str(path) in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--n-users", "-3"], "n_users must be >= 1, got -3"),
    (["--n-users", "0"], "n_users must be >= 1, got 0"),
    (["--words-per-user", "-1"], "words_per_user must be >= 0, got -1"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_synth_rejects_bad_sizes(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_every_readme_flag_exists():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    documented -= {"--no-build-isolation"}  # a pip flag
    options = {opt for command in cli.commands.values()
               for param in command.params for opt in param.opts}
    assert documented
    assert sorted(documented - options) == []
    assert sorted(options - documented) == []


def test_exit_code_bad_flag(capsys):
    assert main(["train", "--users", "/nonexistent", "--edges", "/nonexistent",
                 "--out", "/tmp/x"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_eval_rejects_checkpoint_header_without_meta(corpus, tmp_path, capsys):
    users, edges = corpus
    raw = json.dumps({"kind": "gcn"}).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw)
    assert main(["eval", "--model", str(bad), "--users", str(users),
                 "--edges", str(edges)]) == 1
    assert "'meta'" in capsys.readouterr().err


def test_eval_rejects_checkpoint_meta_without_config_keys(corpus, tmp_path, capsys):
    users, edges = corpus
    raw = json.dumps({"kind": "gcn", "meta": {}}).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw)
    assert main(["eval", "--model", str(bad), "--users", str(users),
                 "--edges", str(edges)]) == 1
    err = capsys.readouterr().err
    for key in ("hidden", "layers", "highway", "gate_bias"):
        assert f"'{key}'" in err


def test_eval_rejects_checkpoint_meta_of_wrong_type(corpus, tmp_path, capsys):
    users, edges = corpus
    meta = {"hidden": True, "layers": 1, "highway": 1, "gate_bias": "-1"}
    raw = json.dumps({"kind": "gcn", "meta": meta}).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw)
    assert main(["eval", "--model", str(bad), "--users", str(users),
                 "--edges", str(edges)]) == 1
    err = capsys.readouterr().err
    for key in ("hidden", "highway", "gate_bias"):
        assert f"'{key}'" in err
    assert "'layers'" not in err


@pytest.fixture(scope="module")
def trained_ckpt(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    # 6 hidden units against 8 classes, so a transposed out/W has another shape.
    assert main(_train_args(corpus, out, **{"--layers": "2", "--hidden": "6"})) == 0
    return out / "model.ckpt"


def _set(mapping, key, value):
    mapping[key] = value


_CONTEXT_EDITS = {
    "no tree": (lambda h: h["context"].pop("tree"), "lacks ['tree']"),
    "no vocabulary": (lambda h: h["context"].pop("vocabulary"), "lacks ['vocabulary']"),
    # The graph settings come from the checkpoint alone, never from a default.
    "no lam": (lambda h: h["context"].pop("lam"), "lacks ['lam']"),
    "no cap": (lambda h: h["context"].pop("max_comention_degree"),
               "lacks ['max_comention_degree']"),
    "rep of a string": (lambda h: _set(h["context"]["tree"]["leaves"][0], "rep", ["x", 1]),
                        "leaf 0 needs"),
    "rep off the globe": (lambda h: _set(h["context"]["tree"]["leaves"][1], "rep", [95.0, 0.0]),
                          "leaf 1 rep: (95.0, 0.0) is not"),
    # The meta's class count also sets the array shapes, so the tree changes.
    "num_classes mismatch": (lambda h: h["context"]["tree"]["leaves"].pop(),
                             "classes but its region tree has"),
    "df of strings": (lambda h: _set(h["context"]["vocabulary"], "df",
                                     [str(c) for c in h["context"]["vocabulary"]["df"]]),
                      "vocabulary needs"),
    "df above n_docs": (lambda h: _set(h["context"]["vocabulary"], "df",
                                       [h["context"]["vocabulary"]["n_docs"] + 1]
                                       * len(h["context"]["vocabulary"]["df"])),
                        "vocabulary 'df'"),
    "negative n_docs": (lambda h: _set(h["context"]["vocabulary"], "n_docs", -1),
                        "vocabulary 'n_docs' -1 is negative"),
    "lam of a string": (lambda h: _set(h["context"], "lam", "1.0"), "lam '1.0'"),
    "lam of NaN": (lambda h: _set(h["context"], "lam", float("nan")), "lam nan is no finite"),
    "lam of Infinity": (lambda h: _set(h["context"], "lam", float("inf")), "lam inf is no finite"),
    "negative lam": (lambda h: _set(h["context"], "lam", -1.0), "lam -1.0 is no finite"),
    "negative cap": (lambda h: _set(h["context"], "max_comention_degree", -1),
                     "max_comention_degree -1 is no integer"),
    "fractional cap": (lambda h: _set(h["context"], "max_comention_degree", 2.5),
                       "max_comention_degree 2.5 is no integer"),
}


def _with_header(raw: bytes, edit, keep_arrays: bool = True) -> bytes:
    """The checkpoint ``raw`` with its JSON header changed by ``edit``."""
    size = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + size])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = raw[16 + size:] if keep_arrays else b""
    return raw[:8] + len(new).to_bytes(8, "little") + new + arrays


def _eval_error(corpus, bad, capsys) -> str:
    """What ``eval`` prints on stderr for the checkpoint ``bad``; it must exit 1."""
    users, edges = corpus
    capsys.readouterr()
    assert main(["eval", "--model", str(bad), "--users", str(users),
                 "--edges", str(edges)]) == 1
    return capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(_CONTEXT_EDITS))
def test_eval_rejects_bad_checkpoint_context(corpus, trained_ckpt, tmp_path, capsys, case):
    edit, message = _CONTEXT_EDITS[case]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(trained_ckpt.read_bytes(), edit))
    err = _eval_error(corpus, bad, capsys)
    assert message in err and str(bad) in err, err


def test_eval_rejects_weights_of_another_dtype(corpus, trained_ckpt, tmp_path, capsys):
    # A gcn holds float32 weights: the same weights written as float64 make
    # a whole file, which loading refuses instead of predicting in float64.
    model, context = load_checkpoint(trained_ckpt)
    for tensor in model.params.values():
        tensor.data = tensor.data.astype(np.float64)
    bad = save_checkpoint(tmp_path / "bad.ckpt", model, context)
    err = _eval_error(corpus, bad, capsys)
    assert f"{bad}: gcn checkpoint array 'conv0/W' is <f8, not <f4" in err, err


def _bad_name_byte(raw: bytes) -> bytes:
    at = raw.index(b"conv0/W")
    return raw[:at] + b"\xff" + raw[at + 1:]


def _transpose_out_w(header) -> None:
    for name, shape, _ in header["arrays"]:
        if name == "out/W":
            shape.reverse()


def _int64_out_w(header) -> None:
    for entry in header["arrays"]:
        if entry[0] == "out/W":
            entry[2] = "<i8"


_CORRUPTIONS = {
    "bad UTF-8 in an array name": (_bad_name_byte, "bad checkpoint header"),
    "header length 2^62": (lambda raw: raw[:8] + (2**62).to_bytes(8, "little") + raw[16:],
                           "truncated checkpoint: a header of 4611686018427387904 bytes"),
    "no arrays": (lambda raw: _with_header(raw, lambda h: _set(h, "arrays", []), False),
                  "gcn checkpoint lacks array 'conv0/W'"),
    "transposed out/W": (lambda raw: _with_header(raw, _transpose_out_w),
                         "gcn checkpoint array 'out/W' has shape"),
    "16 bytes clipped": (lambda raw: raw[:-16], "truncated checkpoint: its arrays end at byte"),
    "2 bytes appended": (lambda raw: raw + b"\0\0", "trailing bytes in checkpoint"),
    "the previous format": (lambda raw: b"GEOCKPT2" + raw[8:],
                            "not a b'GEOCKPT3' model checkpoint: it starts b'GEOCKPT2'"),
    "an array of int64": (lambda raw: _with_header(raw, _int64_out_w),
                          "a list of [name, shape, dtype] entries with a dtype of <f4 or <f8"),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_eval_rejects_corrupt_checkpoint(corpus, trained_ckpt, tmp_path, capsys, case):
    corrupt, message = _CORRUPTIONS[case]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(trained_ckpt.read_bytes()))
    err = _eval_error(corpus, bad, capsys)
    assert err.startswith(f"error: {bad}: ") and message in err, err


def test_diverged_training_exits_nonzero_without_checkpoint(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-users", "300", "--seed", "0"]) == 0
    out = tmp_path / "run"
    args = _train_args((data / "users.jsonl", data / "edges.tsv"), out,
                       **{"--lr": "1e200", "--epochs": "40", "--hidden": "16"})
    with np.errstate(all="ignore"):
        code = main(args)
    assert code != 0
    assert re.search(r"diverged: loss is \w+ at epoch \d+", capsys.readouterr().err)
    assert not (out / "model.ckpt").exists()


def test_exit_code_runtime_failure(tmp_path, capsys):
    # users with no mention edges at lambda 0: zero-degree rows are a runtime error
    users = tmp_path / "users.jsonl"
    edges = tmp_path / "edges.tsv"
    rows = [json.dumps({"id": f"u{i}", "lat": 1.0 * i, "lon": 2.0, "text": "hi there",
                        "split": "train" if i < 3 else "test"}) for i in range(5)]
    users.write_text("\n".join(rows) + "\n")
    edges.write_text("")
    code = main(["train", "--users", str(users), "--edges", str(edges),
                 "--lambda", "0.0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def test_module_entry_point():
    src = Path(geograph.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "geograph", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for name in ("train", "sweep", "synth", "eval"):
        assert name in proc.stdout


def test_console_script_entry_point():
    proc = subprocess.run(["geograph", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("train", "sweep", "synth", "eval"):
        assert name in proc.stdout
