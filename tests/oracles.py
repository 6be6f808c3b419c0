"""Brute-force reference implementations used only by tests.

Everything here re-derives its answer from first principles with plain
numpy/stdlib code and imports nothing from the package under test, so a bug
in the library cannot hide inside its own oracle.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass
class OracleResult:
    value: object
    tolerance: float
    ok: bool


def fd_gradient(loss_fn, params: dict[str, np.ndarray], h: float = 1e-6) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn at params, coordinate by coordinate.

    loss_fn must be a pure function of the dict's float64 arrays.
    """
    grads = {}
    for name, value in params.items():
        value = np.asarray(value, dtype=np.float64)
        grad = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[name][idx] = value[idx] + h
            up = loss_fn(bumped)
            bumped[name][idx] = value[idx] - h
            down = loss_fn(bumped)
            if not (math.isfinite(up) and math.isfinite(down)):
                raise ValueError(f"non-finite loss while probing {name}{idx}")
            grad[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads[name] = grad
    return grads


def max_relative_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-10) -> float:
    """inf-norm relative disagreement between two arrays, floored to dodge 0/0."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    num = np.max(np.abs(approx - exact)) if approx.size else 0.0
    den = max(np.max(np.abs(approx), initial=0.0), np.max(np.abs(exact), initial=0.0), floor)
    return float(num / den)


def exact_linear_cca(x1: np.ndarray, x2: np.ndarray, k: int, reg: float = 0.0) -> np.ndarray:
    """Top-k canonical correlations of two views, solved in closed form.

    Columns are centered; covariances use the 1/(n-1) convention with reg
    added to the diagonal of each view's own covariance. The correlations are
    the singular values of S11^{-1/2} S12 S22^{-1/2}.
    """
    x1 = x1 - x1.mean(axis=0)
    x2 = x2 - x2.mean(axis=0)
    n = x1.shape[0]
    s11 = x1.T @ x1 / (n - 1) + reg * np.eye(x1.shape[1])
    s22 = x2.T @ x2 / (n - 1) + reg * np.eye(x2.shape[1])
    s12 = x1.T @ x2 / (n - 1)

    def inv_sqrt(s: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(s)
        if vals.min() <= 0.0:
            raise ValueError("singular covariance; increase reg")
        return vecs @ np.diag(vals ** -0.5) @ vecs.T

    t = inv_sqrt(s11) @ s12 @ inv_sqrt(s22)
    singular = np.linalg.svd(t, compute_uv=False)
    return singular[:k]


def receptive_field(adjacency: np.ndarray, hops: int) -> list[frozenset]:
    """BFS ball of radius `hops` around every node of an undirected graph."""
    a = np.asarray(adjacency)
    n = a.shape[0]
    neighbors = [set(np.nonzero(a[i])[0].tolist()) for i in range(n)]
    balls = []
    for start in range(n):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if dist[u] == hops:
                continue
            for v in neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        balls.append(frozenset(dist))
    return balls


def dense_normalized_adjacency(a: np.ndarray, lam: float) -> np.ndarray:
    """Self-loop-smoothed symmetric normalization written as explicit loops."""
    n = a.shape[0]
    m = [[float(a[i][j]) + (lam if i == j else 0.0) for j in range(n)] for i in range(n)]
    degree = [sum(row) for row in m]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = m[i][j] / math.sqrt(degree[i] * degree[j])
    return out


def gcn_logits(a_hat: np.ndarray, x: np.ndarray, params: dict[str, np.ndarray], cfg) -> np.ndarray:
    """Eval-mode logits of the gated GCN, straight from its definition.

    Every hidden layer is the graph convolution relu(A_hat H W + b), the first
    one over the raw rows x. With cfg.highway, each later layer mixes that
    with its input through the gate sigmoid(H W_g + b_g). The output layer is
    A_hat H W_out + b_out. ``params`` maps names to arrays; ``cfg`` needs
    ``layers`` and ``highway``.
    """
    h = np.maximum(a_hat @ x @ params["conv0/W"] + params["conv0/b"], 0.0)
    for l in range(1, cfg.layers):
        new = np.maximum(a_hat @ h @ params[f"conv{l}/W"] + params[f"conv{l}/b"], 0.0)
        if cfg.highway:
            gate = 1.0 / (1.0 + np.exp(-(h @ params[f"gate{l}/W"] + params[f"gate{l}/b"])))
            new = gate * new + (1.0 - gate) * h
        h = new
    return a_hat @ h @ params["out/W"] + params["out/b"]


def highway(new: np.ndarray, carried: np.ndarray, wg: np.ndarray, bg: np.ndarray):
    """A highway gate as its own op: ``gate * new + (1 - gate) * carried``
    with ``gate = 1 / (1 + exp(-(carried @ wg + bg)))``, and its VJP.

    Returns the output and ``vjp(g)``, which gives the gradients of ``new``,
    ``carried``, ``wg`` and ``bg``. It is the reference whose bytes the
    package's gated layer must match after a ``graph_conv``, so every product
    and elementwise step runs in that layer's order.
    """
    gate = -(carried @ wg + bg)
    with np.errstate(over="ignore"):
        np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)
    out = new * gate
    kept = np.subtract(1.0, gate)
    kept *= carried
    out += kept

    def vjp(g):
        carry = np.subtract(1.0, gate)
        g_pre = g * new
        g_pre -= g * carried
        g_pre *= gate
        g_pre *= carry
        carry *= g
        carry += g_pre @ wg.T
        return g * gate, carry, carried.T @ g_pre, g_pre.sum(axis=0)

    return out, vjp


def newman_modularity(a: np.ndarray, communities: np.ndarray) -> float:
    """Q = (1/2m) sum_ij (A_ij - k_i k_j / 2m) [c_i == c_j]."""
    a = np.asarray(a, dtype=np.float64)
    communities = np.asarray(communities)
    two_m = a.sum()
    if two_m == 0:
        raise ValueError("empty graph has no modularity")
    k = a.sum(axis=1)
    same = communities[:, None] == communities[None, :]
    return float(((a - np.outer(k, k) / two_m) * same).sum() / two_m)


def kd_partition(points: list[tuple[float, float]], bucket: int) -> list[list[int]]:
    """Median-split partition of 2-d points, as plain recursive Python.

    Mirrors the documented splitting contract: widest-spread axis, lower
    median as the cut (ties left), recursion stops at `bucket` points or when
    all points coincide, and a cut equal to the axis maximum is lowered to
    the largest strictly smaller value. Returns leaves in left-first order.
    """
    leaves: list[list[int]] = []

    def recurse(indices: list[int]) -> None:
        lats = [points[i][0] for i in indices]
        lons = [points[i][1] for i in indices]
        spread_lat = max(lats) - min(lats)
        spread_lon = max(lons) - min(lons)
        if len(indices) <= bucket or max(spread_lat, spread_lon) == 0.0:
            leaves.append(list(indices))
            return
        axis = 0 if spread_lat >= spread_lon else 1
        values = sorted(p[axis] for p in (points[i] for i in indices))
        cut = statistics.median_low(values)
        if cut == values[-1]:
            cut = max(v for v in values if v < values[-1])
        left = [i for i in indices if points[i][axis] <= cut]
        right = [i for i in indices if points[i][axis] > cut]
        recurse(left)
        recurse(right)

    recurse(list(range(len(points))))
    return leaves


def _canonical_csr(n_rows: int, n_cols: int, rows, cols, values) -> sp.csr_matrix:
    """CSR with duplicates summed, zeros dropped and each row's columns sorted."""
    mat = sp.coo_matrix((np.asarray(values, dtype=np.float64), (rows, cols)),
                        shape=(n_rows, n_cols)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _words(text: str) -> list[str]:
    """Lowercased whitespace tokens that are not @-mentions."""
    return [t for t in text.lower().split() if not t.startswith("@")]


def vocabulary(texts: list[str], min_df: int, max_df_ratio: float) -> tuple[tuple, tuple, int]:
    """(terms, df, n_docs): sorted terms whose document frequency lies in
    [min_df, max_df_ratio * N], counted one document at a time."""
    counts: dict[str, int] = {}
    for text in texts:
        words = _words(text)
        for w in set(words):
            counts[w] = counts.get(w, 0) + 1
    kept = sorted(t for t, c in counts.items() if c >= min_df and c <= max_df_ratio * len(texts))
    return tuple(kept), tuple(counts[t] for t in kept), len(texts)


def text_view(texts: list[str], terms: tuple, df: tuple, n_docs: int) -> sp.csr_matrix:
    """Binary-tf idf rows over a fixed vocabulary, each l2-normalized on its own."""
    index = {t: i for i, t in enumerate(terms)}
    idf = np.log((1.0 + n_docs) / (1.0 + np.asarray(df, dtype=np.float64))) + 1.0
    rows, cols, vals = [], [], []
    for i, text in enumerate(texts):
        words = _words(text)
        hit = sorted({index[w] for w in words if w in index})
        if not hit:
            continue
        weights = idf[hit]
        weights = weights / np.sqrt(np.sum(weights * weights))
        rows.extend([i] * len(hit))
        cols.extend(hit)
        vals.extend(weights.tolist())
    return _canonical_csr(len(texts), len(terms), rows, cols, vals)


def mention_graph(user_ids: list[str], mention_pairs: list[tuple[str, str]],
                  max_comention_degree: int) -> sp.csr_matrix:
    """The collapsed mention graph, edge by edge: each handle's target user
    joins its mentioners, and the mentioners of a handle that at most
    ``max_comention_degree`` users mention form a clique."""
    n = len(user_ids)
    id_index = {u.lower(): i for i, u in enumerate(user_ids)}
    mentioners: dict[str, set[int]] = {}
    for mentioner, handle in mention_pairs:
        i = id_index.get(mentioner.lower())
        if i is not None:
            mentioners.setdefault(handle.lower(), set()).add(i)

    edges: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        if a != b:
            edges.add((a, b) if a < b else (b, a))

    for handle in sorted(mentioners):
        users = sorted(mentioners[handle])
        target = id_index.get(handle)
        if target is not None:
            for u in users:
                connect(u, target)
        if len(users) <= max_comention_degree:
            for j, u in enumerate(users):
                for v in users[j + 1:]:
                    connect(u, v)

    pairs = sorted(edges)
    rows = [a for a, b in pairs] + [b for a, b in pairs]
    cols = [b for a, b in pairs] + [a for a, b in pairs]
    return _canonical_csr(n, n, rows, cols, [1.0] * len(rows))
