"""The measured process for one workload (started by run.py, PYTHONPATH=src).

It imports geograph, sets up the training inputs through the library's public
stage functions in the order ``sweep.run_sweep`` and ``geograph train`` use,
then trains the workload's cells in whole rounds until ``--seconds`` have
passed. Peak RSS is read after the first round, before any check runs. The
result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

# Set-up is timed from process start, so this module imports nothing beyond
# numpy (which geograph imports anyway) until the inputs are ready.
from workloads import (BUCKET, LAMBDA, MAX_COMENTION_DEGREE, MAX_DF_RATIO, MIN_DF,
                       WORKLOADS)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def read_truth(users_path: Path, edges_path: Path):
    """Coordinates, splits and direct user-to-user mentions, parsed here."""
    coords, splits, index = [], [], {}
    with open(users_path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            row = json.loads(line)
            index[row["id"].lower()] = i
            coords.append((row["lat"], row["lon"]))
            splits.append(row["split"])
    direct = []
    with open(edges_path, encoding="utf-8") as fh:
        for line in fh:
            a, b = line.rstrip("\n").split("\t")
            i, j = index.get(a.lower()), index.get(b.lower())
            if i is not None and j is not None and i != j:
                direct.append((i, j))
    return np.array(coords), np.array(splits), np.array(direct, dtype=np.intp).reshape(-1, 2)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--users", type=Path, required=True)
    parser.add_argument("--edges", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from geograph import checkpoint, data, models, sweep, views

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    w = WORKLOADS[args.workload]

    bundle = data.load_dataset(args.users, args.edges)
    v = sweep.prepare_views(bundle, MIN_DF, MAX_DF_RATIO, MAX_COMENTION_DEGREE)
    a_hat = views.normalize_adjacency(v.adjacency, LAMBDA)
    partition = data.subsample_labels(bundle, w.fraction, args.seed)
    tree = sweep.build_region_tree(bundle, partition, BUCKET, w.fraction)
    labels = sweep.labels_for_training(bundle, tree, partition.train_idx)
    setup_s = time.perf_counter() - args.spawned
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return

    context = {"vocabulary": v.vocabulary.to_dict(), "tree": tree.to_dict(), "lam": LAMBDA,
               "max_comention_degree": MAX_COMENTION_DEGREE}
    ckpt_path = args.out.with_suffix(".ckpt")
    train_cfg = models.TrainConfig(lr=w.lr, epochs=w.epochs, dropout=w.dropout, seed=args.seed)

    def run_cell(model_name: str, depth: int) -> tuple[dict, object]:
        t0 = time.perf_counter()
        model, history = sweep.fit_model(model_name, depth, v, a_hat, labels, tree.num_classes,
                                          partition, w.hidden, train_cfg)
        t1 = time.perf_counter()
        scores = sweep.evaluate_model(model, v, a_hat, tree, bundle, partition)
        t2 = time.perf_counter()
        checkpoint.save_checkpoint(ckpt_path, model, context)
        loaded, _ = checkpoint.load_checkpoint(ckpt_path)
        reloaded = models.predict_classes(loaded, a_hat, v.text, v.adjacency)
        t3 = time.perf_counter()
        return {
            "fit_s": t1 - t0, "predict_s": t2 - t1, "wall_s": t3 - t0,
            "bytes": ckpt_path.stat().st_size,
            "first_loss": history[0].loss, "final_loss": history[-1].loss,
            "scores": {k: (r.acc161, r.mean_km, r.median_km) for k, r in scores.items()},
            "reloaded": reloaded,
        }, model

    rounds: list[list[dict | None]] = []
    failures: list[str] = []
    last_models: list = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.phase = len(rounds) + 1
        results, last_models = [], []
        for model_name, depth in w.cells:
            try:
                result, model = run_cell(model_name, depth)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{model_name}/d{depth}: {type(exc).__name__}: {exc}")
                result, model = None, None
            results.append(result)
            last_models.append(model)
        rounds.append(results)
        if len(rounds) == 1:
            # Garbage kept alive by reference cycles piles up across rounds
            # until a full collection, so only the first round's peak is the
            # same however many rounds fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall_gc()

    def per_round(key: str) -> float:
        return statistics.median(sum(r[key] for r in rs if r) for rs in rounds)

    ok_cells = [r for r in rounds[-1] if r]
    quality = {}
    if ok_cells:
        quality = {
            "final_train_loss": statistics.fmean(r["final_loss"] for r in ok_cells),
            "test_acc161": statistics.fmean(r["scores"]["test"][0] for r in ok_cells),
            "test_mean_km": statistics.fmean(r["scores"]["test"][1] for r in ok_cells),
            "test_median_km": statistics.fmean(r["scores"]["test"][2] for r in ok_cells),
        }
    round_s = statistics.median(sum(r["wall_s"] for r in rs if r) for rs in rounds)
    result = {
        "workload": w.name, "seed": args.seed, "rounds": len(rounds),
        "attempted": len(rounds) * len(w.cells), "failed": len(failures), "failures": failures,
        "setup_s": setup_s, "train_s": per_round("fit_s"), "predict_s": per_round("predict_s"),
        "round_s": round_s, "total_s": setup_s + round_s, "peak_rss_mb": peak_rss_mb,
        "rounds_fit_s": [sum(r["fit_s"] for r in rs if r) for rs in rounds],
        **quality,
        "cells": [{"cell": f"{n}/d{d}", **{k: r[k] for k in ("fit_s", "predict_s", "first_loss",
                                                                "final_loss", "scores")}}
                  for (n, d), r in zip(w.cells, rounds[-1]) if r],
        "check_errors": run_checks(args, w, v, a_hat, tree, partition, labels, rounds,
                                   last_models, models),
        "machine": machine(),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(len(rounds), {
            "views.adj_nnz": v.adjacency.nnz, "views.text_nnz": v.text.nnz,
            "geo.classes": tree.num_classes, "checkpoint.bytes": per_round("bytes"),
            "predict_s": per_round("predict_s"), **quality,
        })
    ckpt_path.unlink(missing_ok=True)
    args.out.write_text(json.dumps(result, indent=1))


def run_checks(args, w, v, a_hat, tree, partition, labels, rounds, last_models, models) -> list[str]:
    """Every check that fails, as a message; an empty list means correct."""
    import checks

    errors: list[str] = []

    def attempt(name: str, fn, *fn_args) -> None:
        try:
            fn(*fn_args)
        except checks.CheckFailed as exc:
            errors.append(f"{name}: {exc}")

    coords, splits, direct = read_truth(args.users, args.edges)
    attempt("partition", checks.check_partition, partition.train_idx, partition.dev_idx,
            partition.test_idx, splits, w.fraction)
    attempt("graph", checks.check_graph, v.adjacency.csr, a_hat.csr, LAMBDA, direct)
    leaves = [np.array([(p.lat, p.lon) for p in tree.members(c)]) for c in range(tree.num_classes)]
    reps = np.array([(p.lat, p.lon) for p in tree.representatives])
    bucket = max(1, int(round(BUCKET * w.fraction)))
    attempt("region tree", checks.check_region_tree, leaves, reps, bucket,
            coords[partition.train_idx], labels[partition.train_idx])
    majority = checks.majority_acc161(labels[partition.train_idx], reps, coords[partition.test_idx])
    gated = {d: r for (n, d), r in zip(w.cells, rounds[-1]) if n == "gcn" and r}

    for c, ((name, depth), model) in enumerate(zip(w.cells, last_models)):
        result = rounds[-1][c]
        if model is None:
            continue
        cell = f"{name}/d{depth}"
        preds = models.predict_classes(model, a_hat, v.text, v.adjacency)
        attempt(f"{cell} reload", checks.check_same, "reloaded predictions", preds,
                result["reloaded"])
        for split, idx in (("dev", partition.dev_idx), ("test", partition.test_idx)):
            attempt(f"{cell} {split} scores", checks.check_scores, preds[idx], reps, coords[idx],
                    result["scores"][split])
        if name == "gcn-nohighway" and depth in gated:
            attempt(f"{cell} gates", checks.check_gates_help,
                    gated[depth]["scores"]["test"][2], result["scores"]["test"][2])
        else:
            attempt(f"{cell} learning", checks.check_learning, result["first_loss"],
                    result["final_loss"], result["scores"]["test"][0], majority)
        for k, earlier in enumerate(rs[c] for rs in rounds[:-1]):
            if earlier is not None:
                attempt(f"{cell} round {k + 1}", checks.check_same, "predictions across rounds",
                        earlier["reloaded"], result["reloaded"])
        if model.kind == "gcn-lp":
            attempt(f"{cell} label block", checks.check_label_block, model.state["label_block"],
                    partition.train_idx, labels[partition.train_idx])
    return errors


if __name__ == "__main__":
    main()
