"""Correctness checks computed apart from geograph.

Every check takes plain numpy/scipy data and recomputes the expected value
with its own code (its own haversine, its own normalization), or tests a
property the method must have. None of them compares against stored outputs. A failed check raises ``CheckFailed``;
``selftest.py`` feeds each one a corrupted output to prove it can fail.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

EARTH_RADIUS_KM = 6371.0
ACC_KM = 161.0


class CheckFailed(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def great_circle_km(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Haversine distance between rows of two (m, 2) lat/lon arrays in degrees."""
    lat1, lon1 = np.radians(a[:, 0]), np.radians(a[:, 1])
    lat2, lon2 = np.radians(b[:, 0]), np.radians(b[:, 1])
    h = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def summarize(errors_km: np.ndarray) -> tuple[float, float, float]:
    """(Acc@161, mean km, median km)."""
    return (float(np.mean(errors_km <= ACC_KM)), float(np.mean(errors_km)),
            float(np.median(errors_km)))


def check_scores(pred: np.ndarray, reps: np.ndarray, truth: np.ndarray,
                 reported: tuple[float, float, float]) -> None:
    """The reported Acc@161/mean/median match errors recomputed from the
    predicted classes' representatives and the users' true coordinates."""
    expected = summarize(great_circle_km(reps[pred], truth))
    for name, want, got in zip(("acc161", "mean_km", "median_km"), expected, reported):
        _require(_close(want, got), f"{name}: reported {got!r}, recomputed {want!r}")


def check_partition(train_idx: np.ndarray, dev_idx: np.ndarray, test_idx: np.ndarray,
                    splits: np.ndarray, fraction: float) -> None:
    """Labeled users are ceil(fraction * |train|) distinct train-split users;
    dev and test are exactly their splits, so held-out labels never train."""
    train = np.nonzero(splits == "train")[0]
    _require(np.unique(train_idx).size == train_idx.size == math.ceil(fraction * train.size),
             f"{train_idx.size} labeled users for fraction {fraction} of {train.size}")
    _require(np.isin(train_idx, train).all(), "a labeled user is outside the train split")
    _require(np.array_equal(dev_idx, np.nonzero(splits == "dev")[0]), "dev indices differ")
    _require(np.array_equal(test_idx, np.nonzero(splits == "test")[0]), "test indices differ")


def check_graph(adjacency: sp.spmatrix, a_hat: sp.spmatrix, lam: float,
                direct: np.ndarray) -> None:
    """Mention graph is symmetric, binary, hollow and holds every direct
    mention (rows of ``direct`` are user-index pairs); ``a_hat`` equals
    D^-1/2 (A + lam I) D^-1/2 rebuilt here."""
    adj = sp.csr_matrix(adjacency)
    n = adj.shape[0]
    _require(adj.shape == (n, n), f"adjacency not square: {adj.shape}")
    _require((adj != adj.T).nnz == 0, "adjacency not symmetric")
    _require(np.all(adj.data == 1.0), "adjacency not binary")
    _require(not np.any(adj.diagonal()), "adjacency has a nonzero diagonal")
    if direct.size:
        present = np.asarray(adj[direct[:, 0], direct[:, 1]]).ravel()
        missing = int(np.sum(present != 1.0))
        _require(missing == 0, f"{missing} direct mentions missing from the graph")
    m = adj + lam * sp.identity(n, format="csr")
    inv_sqrt = sp.diags(1.0 / np.sqrt(np.asarray(m.sum(axis=1)).ravel()))
    expected = (inv_sqrt @ m @ inv_sqrt).tocsr()
    diff = abs(sp.csr_matrix(a_hat) - expected)
    worst = diff.max() if diff.nnz else 0.0
    _require(worst <= 1e-12, f"a_hat differs from the rebuilt normalization by {worst:g}")


def check_region_tree(leaves: list[np.ndarray], reps: np.ndarray, bucket: int,
                      labeled: np.ndarray, labels: np.ndarray) -> None:
    """Leaves partition the labeled users' coordinates, respect the bucket
    unless their points coincide, have componentwise-median representatives,
    and each labeled user's class is the leaf holding its point."""
    members = np.concatenate(leaves)
    key = lambda a: a[np.lexsort((a[:, 1], a[:, 0]))]  # noqa: E731
    _require(members.shape == labeled.shape and np.array_equal(key(members), key(labeled)),
             "leaves do not partition the labeled users")
    for c, pts in enumerate(leaves):
        _require(len(pts) <= bucket or np.all(pts == pts[0]),
                 f"leaf {c} holds {len(pts)} distinct points > bucket {bucket}")
        _require(np.array_equal(reps[c], np.median(pts, axis=0)),
                 f"leaf {c} representative is not the componentwise median")
    for i, c in enumerate(labels):
        _require(np.any(np.all(leaves[c] == labeled[i], axis=1)),
                 f"labeled user {i} assigned to leaf {c}, which does not hold its point")


def majority_acc161(train_labels: np.ndarray, reps: np.ndarray, truth: np.ndarray) -> float:
    """Acc@161 of predicting the most frequent training class for everyone."""
    top = np.bincount(train_labels).argmax()
    return summarize(great_circle_km(np.repeat(reps[top:top + 1], len(truth), axis=0), truth))[0]


def check_learning(first_loss: float, final_loss: float, acc161: float, majority: float) -> None:
    _require(final_loss < first_loss, f"final loss {final_loss} not below first {first_loss}")
    _require(acc161 > majority, f"test Acc@161 {acc161} not above majority-class {majority}")


def check_gates_help(gated_median_km: float, ungated_median_km: float) -> None:
    """At equal depth the highway-gated model beats the ungated one, which
    over-smooths (the paper's depth result); an ungated deep model is not
    expected to learn, so it gets this check instead of check_learning."""
    _require(gated_median_km < ungated_median_km,
             f"gated median {gated_median_km} km not below ungated {ungated_median_km} km")


def check_label_block(block: np.ndarray, labeled_idx: np.ndarray, labels: np.ndarray) -> None:
    """gcn-lp latched: held-out rows are distributions, labeled rows one-hot."""
    held = np.setdiff1d(np.arange(block.shape[0]), labeled_idx)
    rows = block[held]
    _require(np.all(rows >= 0.0) and np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9),
             "held-out label-block rows are not distributions (block never latched?)")
    one_hot = np.zeros((labeled_idx.size, block.shape[1]))
    one_hot[np.arange(labeled_idx.size), labels] = 1.0
    _require(np.array_equal(block[labeled_idx], one_hot), "labeled rows are not one-hot labels")


def check_same(name: str, a: np.ndarray, b: np.ndarray) -> None:
    _require(np.array_equal(a, b), f"{name}: arrays differ")
