"""Prove each correctness check can fail: a valid output passes, a corrupted
one is rejected. Runs in a fraction of a second on tiny hand-built data, needs
no geograph import, and is run by ``run.py`` before every benchmark run.

    python3 geobench/selftest.py
"""

from __future__ import annotations

import sys

import numpy as np
import scipy.sparse as sp

import checks
from checks import CheckFailed


def _expect_pass(name, fn, *args):
    try:
        fn(*args)
    except CheckFailed as exc:
        raise RuntimeError(f"{name}: valid output rejected ({exc})") from exc


def _expect_fail(name, fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return
    raise RuntimeError(f"{name}: corrupted output accepted")


def _normalize(adj, lam):
    d = np.asarray(adj.sum(axis=1)).ravel() + lam
    m = adj + lam * sp.identity(adj.shape[0])
    return sp.csr_matrix(m.multiply(1 / np.sqrt(np.outer(d, d))))


def run() -> int:
    rng = np.random.default_rng(0)
    cases = 0

    # scores
    reps = np.array([[30.0, -115.0], [40.0, -105.0], [30.5, -114.0]])
    truth = reps[[0, 1, 2, 0, 1]] + rng.normal(0, 0.8, size=(5, 2))
    pred = np.array([0, 1, 2, 1, 1])
    good = checks.summarize(checks.great_circle_km(reps[pred], truth))
    _expect_pass("scores", checks.check_scores, pred, reps, truth, good)
    for k, delta in ((0, 0.2), (1, 5.0), (2, 5.0)):
        bad = list(good)
        bad[k] += delta
        _expect_fail(f"scores[{k}]", checks.check_scores, pred, reps, truth, tuple(bad))
    cases += 4

    # partition
    splits = np.array(["train", "dev", "train", "test", "train", "train"])
    dev, test = np.array([1]), np.array([3])
    _expect_pass("partition", checks.check_partition, np.array([0, 4]), dev, test, splits, 0.5)
    _expect_fail("partition leak", checks.check_partition, np.array([0, 3]), dev, test, splits, 0.5)
    _expect_fail("partition size", checks.check_partition, np.array([0]), dev, test, splits, 0.5)
    _expect_fail("partition dev", checks.check_partition, np.array([0, 4]), np.array([5]), test,
                 splits, 0.5)
    cases += 4

    # mention graph and a_hat
    direct = np.array([[0, 1], [1, 2], [3, 4]])
    rows, cols = [0, 1, 1, 2, 3, 4, 0, 3], [1, 0, 2, 1, 4, 3, 3, 0]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(5, 5))
    a_hat = _normalize(adj, 1.0)
    _expect_pass("graph", checks.check_graph, adj, a_hat, 1.0, direct)
    skewed = a_hat.copy()
    skewed.data[0] *= 1.001
    corrupt = {
        "a_hat value": (adj, skewed),
        "a_hat lambda": (adj, _normalize(adj, 2.0)),
        "asymmetric": (adj + sp.csr_matrix(([1.0], ([2], [4])), shape=(5, 5)), a_hat),
        "weighted": (adj * 2.0, _normalize(adj * 2.0, 1.0)),
        "diagonal": (adj + sp.identity(5, format="csr"), a_hat),
    }
    for name, (a, h) in corrupt.items():
        _expect_fail(name, checks.check_graph, a, h, 1.0, direct)
    no_edge = adj.tolil()
    no_edge[3, 4] = no_edge[4, 3] = 0
    no_edge = no_edge.tocsr()
    no_edge.eliminate_zeros()
    _expect_fail("missing mention", checks.check_graph, no_edge, _normalize(no_edge, 1.0), 1.0, direct)
    cases += 7

    # region tree
    labeled = np.array([[30.0, -115.0], [30.2, -115.1], [40.0, -105.0], [40.1, -104.0]])
    leaves = [labeled[:2], labeled[2:]]
    reps = np.array([np.median(leaf, axis=0) for leaf in leaves])
    labels = np.array([0, 0, 1, 1])
    _expect_pass("tree", checks.check_region_tree, leaves, reps, 2, labeled, labels)
    moved = reps.copy()
    moved[1, 0] += 0.01
    _expect_fail("tree rep", checks.check_region_tree, leaves, moved, 2, labeled, labels)
    _expect_fail("tree partition", checks.check_region_tree, [labeled[:1], labeled[2:]], reps, 2,
                 labeled, labels)
    _expect_fail("tree bucket", checks.check_region_tree, leaves, reps, 1, labeled, labels)
    _expect_fail("tree labels", checks.check_region_tree, leaves, reps, 2, labeled,
                 np.array([0, 1, 1, 1]))
    same = [np.repeat(labeled[:1], 3, axis=0), labeled[3:]]
    _expect_pass("tree coincident", checks.check_region_tree, same,
                 np.array([labeled[0], labeled[3]]), 2, np.concatenate(same), np.array([0, 0, 0, 1]))
    cases += 6

    # learning
    _expect_pass("learning", checks.check_learning, 2.7, 0.9, 0.8, 0.25)
    _expect_fail("loss rose", checks.check_learning, 2.7, 2.8, 0.8, 0.25)
    _expect_fail("majority", checks.check_learning, 2.7, 0.9, 0.25, 0.25)
    maj = checks.majority_acc161(np.array([1, 1, 0]), reps, labeled)
    _expect_pass("majority value", checks.check_same, "maj", np.array(maj), np.array(0.5))
    _expect_pass("gates", checks.check_gates_help, 80.0, 900.0)
    _expect_fail("gates", checks.check_gates_help, 900.0, 80.0)
    cases += 6

    # gcn-lp label block
    block = np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0], [0.5, 0.5]])
    idx, lab = np.array([0, 2]), np.array([0, 1])
    _expect_pass("label block", checks.check_label_block, block, idx, lab)
    unlatched = block.copy()
    unlatched[[1, 3]] = 0.0
    _expect_fail("unlatched", checks.check_label_block, unlatched, idx, lab)
    _expect_fail("labeled row", checks.check_label_block, block, idx, np.array([1, 1]))
    cases += 3

    # checkpoint reload
    _expect_pass("reload", checks.check_same, "preds", np.array([1, 2]), np.array([1, 2]))
    _expect_fail("reload", checks.check_same, "preds", np.array([1, 2]), np.array([1, 3]))
    cases += 2
    return cases


if __name__ == "__main__":
    print(f"selftest: {run()} cases passed")
    sys.exit(0)
