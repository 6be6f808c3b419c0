"""Supervision-fraction and depth sweeps with deterministic report emission.

A sweep trains every (model, fraction, depth, seed) cell on one dataset and
records dev and test metrics per cell plus mean/std aggregates over seeds.
Model names (``MODELS``) select architecture, gating and config: ``gcn``,
``gcn-nohighway``, ``gcn-lp``, ``mlp``, ``dcca``; the depth axis applies to the
graph-convolution models and collapses to a single cell for the others.

Each cell's ``config`` is its run record (``run_config``): the harness fields
it read and its model config, as asked for, then as trained. Reports are a
JSON summary, which also holds each cell's wall-clock seconds, and a
long-format CSV of test metrics, which is byte-stable across identical runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import DatasetBundle, Partition, SyntheticConfig, subsample_labels
from .errors import ArgumentError, finite
from .geo import EvalReport, RegionTree, evaluate
from .models import (
    KINDS,
    DccaConfig,
    EpochLog,
    GcnConfig,
    MlpConfig,
    TrainConfig,
    TrainedModel,
    is_json_type,
    predict_classes,
    train,
    trained_config,
)
from .sparse import SparseMatrix
from .views import ViewMatrices, build_mention_graph, build_text_view, normalize_adjacency

# Sweep model name -> (the model kind it trains, the one builder of its config
# from hidden width, depth and dcca overrides; hidden is dcca's classifier width).
MODELS = {
    "gcn": ("gcn", lambda hidden, depth, dcca: GcnConfig(hidden, depth)),
    "gcn-nohighway": ("gcn", lambda hidden, depth, dcca: GcnConfig(hidden, depth, highway=False)),
    "gcn-lp": ("gcn-lp", lambda hidden, depth, dcca: GcnConfig(hidden, depth)),
    "mlp": ("mlp", lambda hidden, depth, dcca: MlpConfig(hidden)),
    "dcca": ("dcca", lambda hidden, depth, dcca: DccaConfig(**{"clf_hidden": hidden, **dcca})),
}
MODEL_NAMES = tuple(MODELS)
# The names whose kind stacks graph convolutions take the depth axis.
DEPTH_AWARE = tuple(name for name, (kind, _) in MODELS.items()
                    if KINDS[kind].config is GcnConfig)

CSV_HEADER = "model,fraction,depth,seed,acc161,mean_km,median_km"


@dataclass(frozen=True)
class SweepSpec:
    """A grid of (model, fraction, depth, seed) cells, each axis listing
    distinct values, and the settings every cell shares. ``hidden``, ``epochs``,
    ``lr`` and ``dropout`` default to the config classes' defaults, as
    ``geograph train``'s flags do."""

    fractions: tuple[float, ...] = (1.0,)
    models: tuple[str, ...] = ("gcn",)
    seeds: tuple[int, ...] = (0,)
    depths: tuple[int, ...] = (1,)
    hidden: int = GcnConfig.hidden
    epochs: int = TrainConfig.epochs
    lr: float = TrainConfig.lr
    dropout: float = TrainConfig.dropout
    bucket: int = 50
    tree_from: str = "labeled"  # or "all-train": reuse the full train split
    lam: float = 1.0
    min_df: int = 2
    max_df_ratio: float = 0.5
    max_comention_degree: int = 1000
    dcca: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        if not (self.models and self.fractions and self.depths and self.seeds):
            raise ArgumentError("need at least one model, fraction, depth and seed")
        for axis in ("models", "fractions", "depths", "seeds"):
            values = getattr(self, axis)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ArgumentError(f"{axis} repeats {repeated[0]!r}")
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ArgumentError("fractions must lie in (0, 1]")
        unknown = sorted(set(self.models) - set(MODEL_NAMES))
        if unknown:
            raise ArgumentError(f"unknown models {unknown}; valid: {list(MODEL_NAMES)}")
        if any(d < 1 for d in self.depths):
            raise ArgumentError("depths must be >= 1")
        tree_bucket(self.bucket, 1.0, self.tree_from)  # checks both
        if self.min_df < 0 or self.max_comention_degree < 0:
            raise ArgumentError("min_df and max_comention_degree must be >= 0")
        if not finite("lam", self.lam) >= 0.0:
            raise ArgumentError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 < self.max_df_ratio <= 1.0:
            raise ArgumentError(f"max_df_ratio must be in (0, 1], got {self.max_df_ratio}")
        # The configs a cell builds check the ranges of the training knobs.
        for seed in self.seeds:
            TrainConfig(lr=self.lr, epochs=self.epochs, dropout=self.dropout, seed=seed)
        for _, build in MODELS.values():
            build(self.hidden, self.depths[0], self.dcca)


def _field_errors(values: dict, defaults: dict, where: str = "") -> list[str]:
    """One message per key of ``values`` that ``defaults`` lacks or whose value
    has another JSON type than the default (a list stands for a tuple)."""
    errors = []
    for name, value in values.items():
        default = defaults.get(name)
        if name not in defaults:
            errors.append(f"unknown key {where}{name}")
        elif isinstance(default, dict) and isinstance(value, dict):
            errors += _field_errors(value, default, f"{where}{name}.")
        elif isinstance(default, tuple):
            item = type(default[0])
            if not (isinstance(value, list) and all(is_json_type(v, item) for v in value)):
                errors.append(f"{where}{name} is {value!r}, not a list of {item.__name__}")
        elif not is_json_type(value, type(default)):
            errors.append(f"{where}{name} is {value!r}, not {type(default).__name__}")
    return errors


def load_sweep_file(path) -> tuple[SweepSpec, dict, str | None]:
    """Parse and check a sweep file: SweepSpec fields plus a ``dataset``
    source, exactly one of {"users": ..., "edges": ...} and {"synthetic":
    {...generator config...}}, and an optional ``out`` directory. The
    returned ``dataset`` holds a synthetic source as ``(SyntheticConfig,
    seed)``."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ArgumentError(f"{path}: sweep spec must be a JSON object")
    synthetic = {**asdict(SyntheticConfig()), "seed": 0}
    errors = _field_errors(raw, {**asdict(SweepSpec()), "dcca": asdict(DccaConfig()), "out": "",
                                 "dataset": {"users": "", "edges": "", "synthetic": synthetic}})
    if errors:
        raise ArgumentError(f"{path}: {'; '.join(errors)}")
    dataset, out = raw.pop("dataset", None), raw.pop("out", None)
    try:
        spec = SweepSpec(**raw)
        if dataset is None:
            raise ArgumentError("sweep spec needs a 'dataset' entry")
        files = {"users", "edges"} & dataset.keys()
        if files and "synthetic" in dataset:
            raise ArgumentError("dataset names both 'users'+'edges' and 'synthetic'; give one")
        if len(files) != 2 and "synthetic" not in dataset:
            raise ArgumentError("dataset entry must give 'users'+'edges' or 'synthetic'")
        if "synthetic" in dataset:
            synth = dict(dataset["synthetic"])
            seed = synth.pop("seed", 0)
            dataset["synthetic"] = (SyntheticConfig(**synth), seed)
    except ArgumentError as exc:
        raise ArgumentError(f"{path}: {exc}") from exc
    return spec, dataset, out


@dataclass
class CellResult:
    model: str
    fraction: float
    depth: int
    seed: int
    dev: EvalReport | None = None
    test: EvalReport | None = None
    seconds: float = 0.0
    config: dict = field(default_factory=dict)
    failed: bool = False
    reason: str | None = None


@dataclass
class RunReport:
    provenance: str
    spec: SweepSpec
    cells: list[CellResult] = field(default_factory=list)


# --------------------------------------------------------------------------
# shared preparation


def prepare_views(
    bundle: DatasetBundle,
    min_df: int = 2,
    max_df_ratio: float = 0.5,
    max_comention_degree: int = 1000,
) -> ViewMatrices:
    text, vocab = build_text_view(bundle.texts, min_df=min_df, max_df_ratio=max_df_ratio)
    adjacency = build_mention_graph(bundle.ids, bundle.mention_pairs, max_comention_degree)
    return ViewMatrices(text=text, adjacency=adjacency, vocabulary=vocab)


def spec_views(bundle: DatasetBundle, spec: SweepSpec) -> tuple[ViewMatrices, SparseMatrix]:
    """The views and normalized adjacency under a spec's vocabulary and graph knobs."""
    views = prepare_views(bundle, spec.min_df, spec.max_df_ratio, spec.max_comention_degree)
    return views, normalize_adjacency(views.adjacency, spec.lam)


def tree_bucket(bucket: int, fraction: float, tree_from: str) -> int:
    """The leaf-size target a region tree is built with.

    With few labeled points a full-size bucket collapses the tree to a single
    class, so a tree of the labeled users scales the bucket as
    round(bucket * fraction), floored at 1. An all-train tree never scales it.
    """
    if tree_from not in ("labeled", "all-train"):
        raise ArgumentError("tree_from must be 'labeled' or 'all-train'")
    if bucket < 1:
        raise ArgumentError(f"bucket must be >= 1, got {bucket}")
    if tree_from == "labeled":
        return max(1, int(round(bucket * fraction)))
    return bucket


def build_region_tree(
    bundle: DatasetBundle,
    partition: Partition,
    bucket: int,
    fraction: float,
    tree_from: str = "labeled",
) -> RegionTree:
    """Discretize coordinates into classes, from the labeled users by default.

    ``tree_from="all-train"`` reuses the whole train split's coordinates (the
    tree then ignores the labeled fraction, and the bucket is never scaled).
    Dev and test coordinates are excluded either way.
    """
    size = tree_bucket(bucket, fraction, tree_from)
    idx = partition.train_idx if tree_from == "labeled" else bundle.split_indices("train")
    return RegionTree.build(bundle.coords[idx], size)


def labels_for_training(
    bundle: DatasetBundle, tree: RegionTree, labeled_idx: np.ndarray
) -> np.ndarray:
    """Class ids for labeled users only; every other entry is -1.

    Held-out coordinates are never looked at here, which is what keeps
    training a pure function of the labeled rows.
    """
    labels = np.full(len(bundle), -1, dtype=np.intp)
    labels[labeled_idx] = tree.assign_many(bundle.coords[labeled_idx])
    return labels


def fit_model(
    model_name: str,
    depth: int,
    views: ViewMatrices,
    a_hat: SparseMatrix,
    labels: np.ndarray,
    num_classes: int,
    partition: Partition,
    hidden: int,
    train_cfg: TrainConfig,
    dcca_overrides: dict | None = None,
    dev_score=None,
):
    """Train one model by name; returns (model, history)."""
    kind, build = MODELS[model_name]
    return train(kind, a_hat, views.text, views.adjacency, labels, num_classes, partition,
                 build(hidden, depth, dcca_overrides or {}), train_cfg, dev_score)


def evaluate_model(
    model: TrainedModel,
    views: ViewMatrices,
    a_hat: SparseMatrix,
    tree: RegionTree,
    bundle: DatasetBundle,
    partition: Partition,
) -> dict[str, EvalReport]:
    preds = predict_classes(model, a_hat, views.text, views.adjacency)
    return score_predictions(preds, tree, bundle, partition)


def score_predictions(
    preds: np.ndarray, tree: RegionTree, bundle: DatasetBundle, partition: Partition
) -> dict[str, EvalReport]:
    """Dev and test reports for per-user class predictions (empty splits skipped)."""
    out = {}
    for name, idx in (("dev", partition.dev_idx), ("test", partition.test_idx)):
        if idx.size:
            out[name] = evaluate(preds[idx], bundle.coords[idx], tree)
    return out


def run_config(spec: SweepSpec, model_name: str, fraction: float, depth: int, seed: int,
               early_stop: bool = False, model: TrainedModel | None = None) -> dict:
    """The record of what a run read: its harness fields, the model config
    it asked for, and then the config ``model`` was trained with, whose
    values win (a width capped in training is recorded as trained). A run
    that failed has no model; its record keeps the first two parts."""
    config = {
        "epochs": spec.epochs, "lr": spec.lr, "dropout": spec.dropout, "seed": seed,
        "fraction": fraction,
        "bucket": tree_bucket(spec.bucket, fraction, spec.tree_from),
        "tree_from": spec.tree_from, "lam": spec.lam, "early_stop": early_stop,
    }
    _, build = MODELS[model_name]
    config.update(asdict(build(spec.hidden, depth, spec.dcca)))
    if model is not None:
        config.update(trained_config(model))
    return config


@dataclass
class CellRun:
    """One trained and scored cell."""

    model: TrainedModel
    history: list[EpochLog]
    partition: Partition
    tree: RegionTree
    preds: np.ndarray  # predicted class per user
    scores: dict[str, EvalReport]
    config: dict  # run_config's record


def run_cell(
    bundle: DatasetBundle,
    views: ViewMatrices,
    a_hat: SparseMatrix,
    spec: SweepSpec,
    model_name: str,
    fraction: float,
    depth: int,
    seed: int,
    early_stop: bool = False,
) -> CellRun:
    """Partition, region tree, labels, fit, one prediction and dev/test scores.

    ``spec`` supplies the harness settings; its grid axes are ignored.
    ``early_stop`` keeps the epoch with the best dev median error, which
    needs dev users and makes the trained weights depend on their coordinates.
    """
    train_cfg = TrainConfig(lr=spec.lr, epochs=spec.epochs, dropout=spec.dropout, seed=seed)
    partition = subsample_labels(bundle, fraction, seed)
    tree = build_region_tree(bundle, partition, spec.bucket, fraction, spec.tree_from)
    labels = labels_for_training(bundle, tree, partition.train_idx)
    dev_score = None
    if early_stop:
        if not partition.dev_idx.size:
            raise ArgumentError("early stopping needs dev users, and the dataset has none")
        dev_coords = bundle.coords[partition.dev_idx]

        def dev_score(preds: np.ndarray) -> float:
            return evaluate(preds[partition.dev_idx], dev_coords, tree).median_km

    model, history = fit_model(
        model_name, depth, views, a_hat, labels, tree.num_classes, partition, spec.hidden,
        train_cfg, spec.dcca, dev_score,
    )
    preds = predict_classes(model, a_hat, views.text, views.adjacency)
    scores = score_predictions(preds, tree, bundle, partition)
    config = run_config(spec, model_name, fraction, depth, seed, early_stop, model)
    return CellRun(model, history, partition, tree, preds, scores, config)


# --------------------------------------------------------------------------
# the sweep itself


def run_sweep(bundle: DatasetBundle, spec: SweepSpec) -> RunReport:
    views, a_hat = spec_views(bundle, spec)
    report = RunReport(provenance=bundle.provenance, spec=spec)

    for model_name in spec.models:
        depths = spec.depths if model_name in DEPTH_AWARE else (1,)
        for fraction in spec.fractions:
            for depth in depths:
                for seed in spec.seeds:
                    cell = CellResult(model_name, fraction, depth, seed)
                    start = time.perf_counter()
                    try:
                        run = run_cell(
                            bundle, views, a_hat, spec, model_name, fraction, depth, seed
                        )
                        cell.dev, cell.test = run.scores.get("dev"), run.scores.get("test")
                        cell.config = run.config
                    except Exception as exc:  # cell failures must not kill the sweep
                        cell.failed = True
                        cell.reason = f"{type(exc).__name__}: {exc}"
                        cell.config = run_config(spec, model_name, fraction, depth, seed)
                    cell.seconds = time.perf_counter() - start
                    report.cells.append(cell)
    return report


def _aggregate(cells: list[CellResult]) -> list[dict]:
    groups: dict[tuple, list[CellResult]] = {}
    for cell in cells:
        if not cell.failed:
            groups.setdefault((cell.model, cell.fraction, cell.depth), []).append(cell)
    out = []
    for (model, fraction, depth), members in sorted(groups.items()):
        entry = {"model": model, "fraction": fraction, "depth": depth, "seeds": len(members)}
        for split in ("dev", "test"):
            metrics = [getattr(c, split) for c in members if getattr(c, split) is not None]
            if not metrics:
                continue
            for name in ("acc161", "mean_km", "median_km"):
                values = np.array([getattr(m, name) for m in metrics])
                entry[f"{split}_{name}_mean"] = float(values.mean())
                entry[f"{split}_{name}_std"] = float(values.std())
        out.append(entry)
    return out


def emit_report(report: RunReport, out_dir) -> tuple[Path, Path]:
    """Write report.json and report.csv under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"

    payload = {
        "provenance": report.provenance,
        "spec": asdict(report.spec),
        "cells": [asdict(cell) for cell in report.cells],
        "aggregates": _aggregate(report.cells),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = [CSV_HEADER]
    for cell in report.cells:
        m = cell.test if cell.test is not None else cell.dev  # a failed cell has neither
        scores = "nan,nan,nan" if m is None else f"{m.acc161:.4f},{m.mean_km:.3f},{m.median_km:.3f}"
        lines.append(f"{cell.model},{cell.fraction:g},{cell.depth},{cell.seed},{scores}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return json_path, csv_path
