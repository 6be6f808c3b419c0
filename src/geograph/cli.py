"""Command-line entry points: train, sweep, synth, eval.

Exit codes: 0 on success, 1 when the invocation or input data is invalid,
2 when a run fails at runtime. All randomness is derived from --seed, and the
CSV artifacts are byte-identical across repeated identical invocations.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import click

from . import checkpoint as ckpt
from .data import DatasetBundle, SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from .errors import ArgumentError, DataFormatError, GeographError
from .geo import RegionTree, evaluate, export_per_class_csv
from .models import PATIENCE, DccaConfig, GcnConfig, TrainConfig, predict_classes
from .sweep import (MODEL_NAMES, SweepSpec, emit_report, load_sweep_file, run_cell, run_sweep,
                    spec_views)
from .views import Vocabulary, build_mention_graph, build_text_view, normalize_adjacency


# The dataclasses each command's flags feed, read for the flags' defaults.
_GCN_DEFAULTS, _SPEC_DEFAULTS, _TRAIN_DEFAULTS = GcnConfig(), SweepSpec(), TrainConfig()
_DCCA_DEFAULTS, _SYNTH_DEFAULTS = DccaConfig(), SyntheticConfig()


@click.group()
def cli():
    """Semi-supervised user geolocation over text and @-mention graphs."""


@cli.command()
@click.option("--users", "users_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--edges", "edges_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_name", type=click.Choice(MODEL_NAMES), default="gcn",
              show_default=True, help="Sweep model name; gcn-nohighway is gcn without gates.")
@click.option("--hidden", default=_GCN_DEFAULTS.hidden, show_default=True,
              help="Hidden layer width.")
@click.option("--layers", default=_GCN_DEFAULTS.layers, show_default=True,
              help="Hidden graph-conv layers; the softmax layer adds one more hop.")
@click.option("--bucket", default=_SPEC_DEFAULTS.bucket, show_default=True,
              help="Region tree leaf size target.")
@click.option("--tree-from", type=click.Choice(["labeled", "all-train"]),
              default=_SPEC_DEFAULTS.tree_from, show_default=True,
              help="Coordinates the region tree is built from; 'all-train' uses the whole "
                   "train split even when only a fraction of it is labeled.")
@click.option("--labeled-fraction", default=1.0, show_default=True,
              help="Fraction of the train split whose labels are visible.")
@click.option("--lambda", "lam", default=_SPEC_DEFAULTS.lam, show_default=True,
              help="Self-loop weight added before adjacency normalization.")
@click.option("--dropout", default=_TRAIN_DEFAULTS.dropout, show_default=True)
@click.option("--lr", default=_TRAIN_DEFAULTS.lr, show_default=True)
@click.option("--epochs", default=_TRAIN_DEFAULTS.epochs, show_default=True)
@click.option("--seed", default=_TRAIN_DEFAULTS.seed, show_default=True)
@click.option("--early-stop", is_flag=True,
              help=f"Keep the epoch with the best dev median error (patience {PATIENCE}). "
                   "Needs dev users; trained weights then depend on their coordinates.")
@click.option("--proj-hidden", default=_DCCA_DEFAULTS.proj_hidden, show_default=True,
              help="dcca: hidden width of each view's projection, 0 for a linear map.")
@click.option("--proj-out", default=_DCCA_DEFAULTS.proj_out, show_default=True,
              help="dcca: projected width of each view.")
@click.option("--stage1-epochs", default=_DCCA_DEFAULTS.stage1_epochs, show_default=True,
              help="dcca: correlation-training epochs.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def train(users_path, edges_path, model_name, hidden, layers, bucket, tree_from,
          labeled_fraction, lam, dropout, lr, epochs, seed, early_stop, proj_hidden,
          proj_out, stage1_epochs, out_dir):
    """Train one model and write checkpoint, report, and predictions."""
    start = time.perf_counter()
    dcca = {"proj_hidden": proj_hidden, "proj_out": proj_out, "stage1_epochs": stage1_epochs}
    spec = SweepSpec(seeds=(seed,), hidden=hidden, epochs=epochs, lr=lr, dropout=dropout,
                     bucket=bucket, tree_from=tree_from, lam=lam, dcca=dcca)
    bundle = load_dataset(users_path, edges_path)
    views, a_hat = spec_views(bundle, spec)
    run = run_cell(bundle, views, a_hat, spec, model_name, labeled_fraction, layers, seed,
                   early_stop=early_stop)
    tree, scores = run.tree, run.scores
    seconds = time.perf_counter() - start

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    context = {
        "vocabulary": views.vocabulary.to_dict(),
        "tree": tree.to_dict(),
        "lam": lam,
        "max_comention_degree": spec.max_comention_degree,
    }
    ckpt.save_checkpoint(out / "model.ckpt", run.model, context)
    _write_predictions(out / "predictions.csv", bundle, run.preds, tree)

    report = {
        "model": model_name,
        "config": run.config,
        "num_classes": tree.num_classes,
        "labeled_users": int(run.partition.train_idx.size),
        "epochs_run": len(run.history),
        "final_train_loss": run.history[-1].loss,
        "metrics": {k: dataclasses.asdict(v) for k, v in scores.items()},
        "seconds": seconds,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for split, rep in scores.items():
        idx = getattr(run.partition, f"{split}_idx")
        export_per_class_csv(run.preds[idx], bundle.coords[idx], tree, out / f"per_class_{split}.csv")
        click.echo(
            f"{split}: acc@161 {rep.acc161:.4f}  mean {rep.mean_km:.1f} km  "
            f"median {rep.median_km:.1f} km"
        )
    click.echo(f"wrote {out / 'model.ckpt'}")


def _write_predictions(path, bundle: DatasetBundle, preds, tree) -> None:
    reps = tree.rep_coords.tolist()
    lines = ["id,split,class_id,pred_lat,pred_lon"]
    for i, uid in enumerate(bundle.ids):
        lat, lon = reps[preds[i]]
        lines.append(f"{uid},{bundle.splits[i]},{preds[i]},{lat!r},{lon!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@cli.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_override", default=None, type=click.Path(file_okay=False),
              help="Report directory; overrides the spec's own 'out'.")
def sweep(spec_path, out_override):
    """Run the (model, fraction, depth, seed) grid described by a JSON spec."""
    spec, dataset_cfg, out_dir = load_sweep_file(spec_path)
    out_dir = out_override or out_dir
    if out_dir is None:
        raise ArgumentError(f"{spec_path}: no output directory: pass --out or set 'out'")
    if "synthetic" in dataset_cfg:
        config, seed = dataset_cfg["synthetic"]
        try:
            bundle = generate_synthetic(config, seed=seed)
        except ArgumentError as exc:  # the corpus seed, which only generation checks
            raise ArgumentError(f"{spec_path}: {exc}") from exc
    else:
        bundle = load_dataset(dataset_cfg["users"], dataset_cfg["edges"])
    report = run_sweep(bundle, spec)
    json_path, csv_path = emit_report(report, out_dir)
    failed = [c for c in report.cells if c.failed]
    click.echo(f"{len(report.cells)} cells ({len(failed)} failed) -> {csv_path}")
    for cell in failed:
        click.echo(
            f"  failed: {cell.model} fraction={cell.fraction:g} depth={cell.depth} "
            f"seed={cell.seed}: {cell.reason}",
            err=True,
        )


@cli.command()
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--n-users", default=_SYNTH_DEFAULTS.n_users, show_default=True)
@click.option("--regions", default=_SYNTH_DEFAULTS.n_regions, show_default=True)
@click.option("--vocab-size", default=_SYNTH_DEFAULTS.vocab_size, show_default=True)
@click.option("--p-in", default=_SYNTH_DEFAULTS.p_in, show_default=True,
              help="Same-region edge probability.")
@click.option("--p-out", default=_SYNTH_DEFAULTS.p_out, show_default=True,
              help="Cross-region edge probability.")
@click.option("--words-per-user", default=_SYNTH_DEFAULTS.words_per_user, show_default=True)
@click.option("--region-word-weight", default=_SYNTH_DEFAULTS.region_word_weight,
              show_default=True,
              help="Chance each token comes from the region's own term set.")
@click.option("--seed", default=0, show_default=True)
def synth(out_dir, n_users, regions, vocab_size, p_in, p_out, words_per_user,
          region_word_weight, seed):
    """Generate a homophilous synthetic corpus as users.jsonl + edges.tsv."""
    cfg = SyntheticConfig(
        n_users=n_users, n_regions=regions, vocab_size=vocab_size,
        p_in=p_in, p_out=p_out, words_per_user=words_per_user,
        region_word_weight=region_word_weight,
    )
    bundle = generate_synthetic(cfg, seed=seed)
    users_path, edges_path = save_dataset(bundle, out_dir)
    click.echo(f"wrote {users_path} and {edges_path} ({len(bundle)} users, "
               f"{len(bundle.mention_pairs)} mention pairs)")


@cli.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--users", "users_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--edges", "edges_path", required=True, type=click.Path(exists=True, dir_okay=False))
def eval_cmd(model_path, users_path, edges_path):
    """Score a checkpoint on a dataset; prints JSON metrics per split.

    Models whose input width depends on the user count (mlp, gcn-lp, dcca)
    can only be scored on a graph of as many users as they were trained on.
    """
    model, context = ckpt.load_checkpoint(model_path)
    vocab, tree, lam, cap = _read_context(model_path, model, context)
    bundle = load_dataset(users_path, edges_path)
    text, _ = build_text_view(bundle.texts, vocab=vocab)
    adjacency = build_mention_graph(bundle.ids, bundle.mention_pairs, cap)
    try:
        preds = predict_classes(model, normalize_adjacency(adjacency, lam), text, adjacency)
    except ArgumentError as exc:  # the checkpoint does not fit this dataset
        raise ArgumentError(f"{model_path}: {exc}") from exc

    out = {}
    for split in ("train", "dev", "test"):
        idx = bundle.split_indices(split)
        if idx.size == 0:
            continue
        rep = evaluate(preds[idx], bundle.coords[idx], tree)
        out[split] = {"n": int(idx.size), "acc161": rep.acc161,
                      "mean_km": rep.mean_km, "median_km": rep.median_km}
    click.echo(json.dumps(out, indent=2, sort_keys=True))


def _read_context(model_path, model, context: dict):
    """The vocabulary, region tree, lambda and co-mention cap a checkpoint
    holds, checked, since the file comes from outside."""
    try:
        missing = [key for key in ("vocabulary", "tree", "lam", "max_comention_degree")
                   if key not in context]
        if missing:
            raise DataFormatError(f"context lacks {missing}")
        tree = RegionTree.from_dict(context["tree"])
        if model.meta.get("num_classes") != tree.num_classes:
            raise DataFormatError(f"model predicts {model.meta.get('num_classes')!r} classes "
                                  f"but its region tree has {tree.num_classes}")
        lam, cap = context["lam"], context["max_comention_degree"]
        if type(lam) not in (int, float) or not 0 <= lam < float("inf"):
            raise DataFormatError(f"context lam {lam!r} is no finite number >= 0")
        if type(cap) is not int or cap < 0:
            raise DataFormatError(f"context max_comention_degree {cap!r} is no integer >= 0")
        return Vocabulary.from_dict(context["vocabulary"]), tree, lam, cap
    except DataFormatError as exc:
        raise DataFormatError(f"{model_path}: checkpoint {exc}") from exc


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 1
    except click.exceptions.ClickException as exc:
        exc.show()
        return 1
    except (ArgumentError, DataFormatError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except GeographError as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"runtime failure: {type(exc).__name__}: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
