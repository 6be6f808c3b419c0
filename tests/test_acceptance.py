"""Release gate: one test per acceptance criterion, each printing a verdict line.

The numbered criteria cover gradient correctness, graph-operator math,
receptive-field behavior, gating limits, correlation-analysis recovery,
supervision-ordering and depth studies on synthetic corpora, optional
external-corpus scores, and determinism/no-leak guarantees. Training-based
checks take a few minutes; criterion 8 is skipped unless a converted external
corpus is supplied (``$GEOTEXT_DATA`` or ``data/geotext/``).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import geograph.autodiff as ad
from geograph.data import (
    DatasetBundle,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
)
from geograph.models import (
    DccaConfig,
    GcnConfig,
    Partition,
    TrainConfig,
    cca_loss,
    gcn_forward,
    init_gcn_params,
    init_mlp_params,
    init_projection_params,
    lp_input,
    mlp_forward,
    one_hot,
    projection_forward,
    train,
)
from geograph.optim import ParamSet
from geograph.sparse import SparseMatrix, hstack
from geograph.sweep import (
    SweepSpec,
    emit_report,
    run_cell,
    run_sweep,
    spec_views,
)
from geograph.views import normalize_adjacency
from conftest import random_symmetric_adjacency
from oracles import (
    dense_normalized_adjacency,
    exact_linear_cca,
    fd_gradient,
    max_relative_error,
    receptive_field,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences for every model


def _gradient_check_variants(rng):
    """(name, params, loss_of) for each trainable configuration on one
    8-node / 6-term instance. loss_of must be a pure function of the params
    passed in, so finite differences can re-evaluate it."""
    n, terms, classes = 8, 6, 3
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, n, 0.45))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((n, terms)) + 0.05)
    rows = np.arange(5)
    targets = one_hot(rng.integers(0, classes, rows.size), classes)
    # Training computes logits for the labeled rows alone: the graph models
    # through those rows of a_hat, the row-local ones from those input rows.
    a_rows = a_hat.take_rows(rows)

    def ce(logits):
        return ad.softmax_cross_entropy(logits, targets)

    variants = []

    for highway in (True, False):
        cfg = GcnConfig(hidden=5, layers=2, highway=highway)
        params = init_gcn_params(rng, terms, classes, cfg)
        variants.append((
            f"gcn(highway={highway})",
            params,
            lambda ps, cfg=cfg: ce(gcn_forward(a_hat, x, ps, cfg, out_rows=a_rows)),
        ))

    block = np.zeros((n, classes))
    block[rows] = targets
    lp_features = lp_input(adj, block)
    lp_cfg = GcnConfig(hidden=5, layers=2, highway=True)
    lp_params = init_gcn_params(rng, n + classes, classes, lp_cfg)
    variants.append((
        "gcn-lp",
        lp_params,
        lambda ps: ce(gcn_forward(a_hat, lp_features, ps, lp_cfg, out_rows=a_rows)),
    ))

    xcat = hstack([x, a_hat]).take_rows(rows)
    mlp_params = init_mlp_params(rng, terms + n, 5, classes)
    variants.append(("mlp", mlp_params, lambda ps: ce(mlp_forward(xcat, ps))))

    dcfg = DccaConfig(proj_hidden=4, proj_out=2, reg=1e-2, clf_hidden=4)
    stage1 = ParamSet()
    init_projection_params(rng, "f1", terms, dcfg, stage1)
    init_projection_params(rng, "f2", n, dcfg, stage1)
    variants.append((
        "dcca-stage1",
        stage1,
        lambda ps: cca_loss(
            projection_forward(x, ps, "f1", dcfg),
            projection_forward(a_hat, ps, "f2", dcfg),
            dcfg.reg,
        ),
    ))

    z = np.hstack([
        projection_forward(x, stage1, "f1", dcfg).data,
        projection_forward(a_hat, stage1, "f2", dcfg).data,
    ])
    z_sparse = SparseMatrix.from_dense(z).take_rows(rows)
    stage2 = init_mlp_params(rng, z.shape[1], 4, classes)
    variants.append(("dcca-stage2", stage2, lambda ps: ce(mlp_forward(z_sparse, ps))))

    return variants


def test_criterion_1_gradients_match_finite_differences():
    start = time.perf_counter()
    tol = 1e-4
    worst = 0.0
    worst_at = ""
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        for name, params, loss_of in _gradient_check_variants(rng):
            loss = loss_of(params)
            params.zero_grads()
            ad.backward(loss)

            def loss_fn(values, loss_of=loss_of):
                ps = ParamSet()
                for pname, arr in values.items():
                    ps.add(pname, arr)
                return float(loss_of(ps).data)

            values = {p: params[p].data.copy() for p in params.names()}
            fd = fd_gradient(loss_fn, values, h=1e-5)
            for pname in params.names():
                # floor treats sub-1e-6 gradients as zero-scale so finite
                # difference noise on exactly-zero gradients is not amplified
                rel = max_relative_error(params[pname].grad, fd[pname], floor=1e-6)
                if rel > worst:
                    worst, worst_at = rel, f"{name} seed {seed} {pname}"
    elapsed = time.perf_counter() - start
    _verdict(
        1, "analytic gradients vs finite differences",
        worst <= tol and elapsed < 120.0,
        f"worst rel err {worst:.2e} at {worst_at or 'n/a'}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# criterion 2: graph normalization against a dense from-scratch oracle


def test_criterion_2_normalization_matches_dense_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 31))
        dense = random_symmetric_adjacency(rng, n, float(rng.uniform(0.1, 0.6)))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        got = normalize_adjacency(SparseMatrix.from_dense(dense), lam).to_dense()
        want = dense_normalized_adjacency(dense, lam)
        worst = max(worst, float(np.abs(got - want).max()))

    one = normalize_adjacency(SparseMatrix.from_dense(np.zeros((1, 1))), 1.0).to_dense()
    pair = normalize_adjacency(
        SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])), 1.0
    ).to_dense()
    closed_forms = bool(
        np.array_equal(one, np.array([[1.0]]))
        and np.array_equal(pair, np.full((2, 2), 0.5))
    )
    _verdict(
        2, "adjacency normalization vs dense oracle",
        worst <= 1e-12 and closed_forms,
        f"worst abs err {worst:.2e} over 100 graphs, closed forms exact: {closed_forms}",
    )


# --------------------------------------------------------------------------
# criterion 3: influence sets equal BFS balls of radius L+1


def _positive_gcn(rng, terms: int, hidden: int, classes: int, layers: int) -> ParamSet:
    """All-positive weights with zero biases: every input perturbation then
    propagates with a strictly positive coefficient, so reachability alone
    decides whether an output moves."""
    params = ParamSet()
    dims = [terms] + [hidden] * layers
    for l in range(layers):
        params.add(f"conv{l}/W", np.abs(rng.standard_normal((dims[l], dims[l + 1]))) + 0.05)
        params.add(f"conv{l}/b", np.zeros(dims[l + 1]))
    params.add("out/W", np.abs(rng.standard_normal((hidden, classes))) + 0.05)
    params.add("out/b", np.zeros(classes))
    return params


def test_criterion_3_receptive_field_equals_bfs_ball():
    rng = np.random.default_rng(999)
    graphs = 0
    nodes_checked = 0
    for g in range(20):
        n = int(rng.integers(6, 16))
        dense = random_symmetric_adjacency(rng, n, float(rng.uniform(0.12, 0.3)))
        layers = 1 + g % 2  # hidden conv layers; the output layer adds one hop
        cfg = GcnConfig(hidden=5, layers=layers, highway=False)
        params = _positive_gcn(rng, 6, 5, 3, layers)
        a_hat = normalize_adjacency(SparseMatrix.from_dense(dense), 1.0)
        x0 = rng.random((n, 6)) + 0.1

        def logits(x):
            return gcn_forward(a_hat, SparseMatrix.from_dense(x), params, cfg).data

        base = logits(x0)
        balls = receptive_field(dense, layers + 1)
        for j in range(n):
            bumped = x0.copy()
            bumped[j] += 1.0
            moved = logits(bumped)
            changed = {i for i in range(n) if not np.array_equal(moved[i], base[i])}
            assert changed == set(balls[j]), (
                f"graph {g} node {j}: influence set {sorted(changed)} "
                f"!= {layers + 1}-hop ball {sorted(balls[j])}"
            )
            nodes_checked += 1
        graphs += 1
    _verdict(
        3, "influence sets equal BFS hop balls",
        graphs == 20,
        f"{nodes_checked} perturbed nodes across {graphs} graphs, exact set equality",
    )


# --------------------------------------------------------------------------
# criterion 4: strongly negative gate biases make extra layers pass-through


def test_criterion_4_closed_gates_reproduce_shallow_model():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(4000 + seed)
        n, terms, classes, hidden = 10, 6, 3, 7
        adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, n, 0.4))
        a_hat = normalize_adjacency(adj, 1.0)
        x = SparseMatrix.from_dense(rng.random((n, terms)))

        deep_cfg = GcnConfig(hidden=hidden, layers=4, highway=True, gate_bias=-50.0)
        deep = init_gcn_params(rng, terms, classes, deep_cfg)
        shallow_cfg = GcnConfig(hidden=hidden, layers=1, highway=True)
        shallow = ParamSet()
        for name in ("conv0/W", "conv0/b", "out/W", "out/b"):
            shallow.add(name, deep[name].data.copy())

        deep_logits = gcn_forward(a_hat, x, deep, deep_cfg).data
        shallow_logits = gcn_forward(a_hat, x, shallow, shallow_cfg).data
        worst = max(worst, float(np.abs(deep_logits - shallow_logits).max()))
    _verdict(
        4, "gate bias -50 reduces depth-4 model to its shallow core",
        worst <= 1e-9,
        f"worst logit deviation {worst:.2e} over 5 instances",
    )


# --------------------------------------------------------------------------
# criterion 5: linear projections recover the exact linear-CCA optimum


def test_criterion_5_linear_cca_recovery():
    start = time.perf_counter()
    gaps = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n, d, shared = 2000, 10, 4
        z = rng.standard_normal((n, shared))
        x1 = z @ rng.standard_normal((shared, d)) + 0.8 * rng.standard_normal((n, d))
        x2 = z @ rng.standard_normal((shared, d)) + 0.8 * rng.standard_normal((n, d))
        optimum = float(exact_linear_cca(x1, x2, k=4).sum())

        labels = np.full(n, -1, dtype=np.intp)
        labels[:10] = np.arange(10) % 2
        part_train = np.arange(10)
        cfg = DccaConfig(proj_hidden=0, proj_out=4, reg=1e-5,
                         stage1_epochs=800, stage1_lr=2e-2, clf_hidden=4)
        model, _ = train(  # dcca reads no adjacency
            "dcca", SparseMatrix.from_dense(x2), SparseMatrix.from_dense(x1), None, labels, 2,
            Partition(part_train, np.array([10]), np.array([11])),
            cfg, TrainConfig(epochs=1, dropout=0.0, seed=seed),
        )
        h1 = projection_forward(SparseMatrix.from_dense(x1), model.params, "f1", cfg).data
        h2 = projection_forward(SparseMatrix.from_dense(x2), model.params, "f2", cfg).data
        achieved = float(exact_linear_cca(h1, h2, k=4).sum())
        assert achieved <= optimum + 1e-6  # projections cannot beat the optimum
        gaps.append(optimum - achieved)
    elapsed = time.perf_counter() - start
    _verdict(
        5, "trained linear projections reach the exact CCA optimum",
        max(gaps) <= 1e-3 and elapsed < 60.0,
        f"worst gap {max(gaps):.2e} over 3 seeds, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# criteria 6 and 9 share one supervision sweep on the default corpus


ORDERING_SPEC = SweepSpec(
    models=("gcn", "mlp"),
    fractions=(0.01, 0.5),
    depths=(1,),
    seeds=(0, 1, 2, 3, 4),
    hidden=64,
    epochs=200,
    lr=1e-2,
    dropout=0.5,
)


@pytest.fixture(scope="module")
def default_bundle():
    return generate_synthetic(seed=42)


@pytest.fixture(scope="module")
def ordering_run(default_bundle):
    start = time.perf_counter()
    report = run_sweep(default_bundle, ORDERING_SPEC)
    return report, time.perf_counter() - start


def _mean_dev_median(report, model: str, fraction: float | None = None,
                     depth: int | None = None) -> float:
    vals = [
        cell.dev.median_km
        for cell in report.cells
        if not cell.failed and cell.model == model
        and (fraction is None or cell.fraction == fraction)
        and (depth is None or cell.depth == depth)
    ]
    assert len(vals) == 5, f"expected 5 seed cells for {model}, got {len(vals)}"
    return float(np.mean(vals))


def test_criterion_6_low_supervision_ordering(ordering_run):
    report, elapsed = ordering_run
    failed = [c for c in report.cells if c.failed]
    assert not failed, f"sweep cells failed: {[(c.model, c.reason) for c in failed]}"

    gcn_low = _mean_dev_median(report, "gcn", fraction=0.01)
    mlp_low = _mean_dev_median(report, "mlp", fraction=0.01)
    gcn_half = _mean_dev_median(report, "gcn", fraction=0.5)
    mlp_half = _mean_dev_median(report, "mlp", fraction=0.5)

    low_ok = gcn_low < mlp_low
    half_ok = mlp_half <= 1.2 * gcn_half
    _verdict(
        6, "supervision ordering on the default synthetic corpus",
        low_ok and half_ok and elapsed < 600.0,
        f"1% labels: gcn {gcn_low:.0f} km < mlp {mlp_low:.0f} km; "
        f"50% labels: mlp {mlp_half:.0f} km <= 1.2x gcn {1.2 * gcn_half:.0f} km; "
        f"{elapsed:.0f}s over 5 seeds",
    )


# --------------------------------------------------------------------------
# criterion 7: ungated depth collapses, gated depth stays flat


def test_criterion_7_depth_study():
    # Cross-region mixing is turned up (p_out) so that deep ungated smoothing
    # genuinely destroys the region signal; per-user text is informative, so
    # shallow models are strong and there is something to lose.
    bundle = generate_synthetic(
        SyntheticConfig(region_word_weight=0.7, words_per_user=30, p_out=0.004),
        seed=42,
    )
    spec = SweepSpec(
        models=("gcn", "gcn-nohighway"),
        fractions=(1.0,),
        depths=(2, 4, 6),
        seeds=(0, 1, 2, 3, 4),
        hidden=64,
        epochs=200,
        lr=1e-2,
        dropout=0.5,
    )
    report = run_sweep(bundle, spec)
    failed = [c for c in report.cells if c.failed]
    assert not failed, f"sweep cells failed: {[(c.model, c.reason) for c in failed]}"

    nohw_2 = _mean_dev_median(report, "gcn-nohighway", depth=2)
    nohw_6 = _mean_dev_median(report, "gcn-nohighway", depth=6)
    gated = {d: _mean_dev_median(report, "gcn", depth=d) for d in (2, 4, 6)}
    best = min(gated.values())

    _verdict(
        7, "highway gates keep deep models competitive",
        nohw_6 > nohw_2 and gated[6] <= 1.1 * best,
        f"ungated d6 {nohw_6:.0f} km > d2 {nohw_2:.0f} km; "
        f"gated d6 {gated[6]:.0f} km <= 1.1x best {1.1 * best:.0f} km "
        f"(gated d2/d4/d6: {gated[2]:.0f}/{gated[4]:.0f}/{gated[6]:.0f})",
    )


# --------------------------------------------------------------------------
# criterion 8: optional external-corpus scores


def _external_corpus():
    candidates = []
    env = os.environ.get("GEOTEXT_DATA")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "geotext")
    for root in candidates:
        if (root / "users.jsonl").is_file() and (root / "edges.tsv").is_file():
            return root / "users.jsonl", root / "edges.tsv"
    return None


def test_criterion_8_external_corpus_scores():
    found = _external_corpus()
    if found is None:
        print(
            "[criterion 8] external-corpus scores: SKIP "
            "(no converted corpus at $GEOTEXT_DATA or data/geotext/)"
        )
        pytest.skip("converted external corpus not present")

    bundle = load_dataset(*found)
    spec = SweepSpec(hidden=300, epochs=200, lr=2e-3, dropout=0.5, bucket=50)
    views, a_hat = spec_views(bundle, spec)
    g = run_cell(bundle, views, a_hat, spec, "gcn", 1.0, 3, seed=0).scores["test"]
    m = run_cell(bundle, views, a_hat, spec, "mlp", 1.0, 1, seed=0).scores["test"]
    _verdict(
        8, "external-corpus test scores",
        g.acc161 >= 0.55 and g.median_km <= 70.0 and m.acc161 >= 0.54,
        f"gcn acc@161 {g.acc161:.3f} median {g.median_km:.1f} km; "
        f"mlp acc@161 {m.acc161:.3f}",
    )


# --------------------------------------------------------------------------
# criterion 9: byte-identical reruns and the no-leak guarantee


def test_criterion_9_determinism_and_no_leak(tmp_path, default_bundle, ordering_run):
    report_a, _ = ordering_run
    _, csv_a = emit_report(report_a, tmp_path / "a")

    fresh_bundle = generate_synthetic(seed=42)
    report_b = run_sweep(fresh_bundle, ORDERING_SPEC)
    _, csv_b = emit_report(report_b, tmp_path / "b")
    csv_identical = csv_a.read_bytes() == csv_b.read_bytes()

    spec = SweepSpec(hidden=64, epochs=200, lr=1e-2, dropout=0.5, bucket=50)

    def trained_params(bundle):
        views, a_hat = spec_views(bundle, spec)
        run = run_cell(bundle, views, a_hat, spec, "gcn", 0.01, 1, seed=0)
        return run.model.params.copy_values()

    heldout = np.array([s != "train" for s in default_bundle.splits])
    zeroed = DatasetBundle(
        ids=list(default_bundle.ids),
        texts=list(default_bundle.texts),
        coords=np.where(heldout[:, None], 0.0, default_bundle.coords),
        splits=list(default_bundle.splits),
        mention_pairs=list(default_bundle.mention_pairs),
        provenance=default_bundle.provenance,
    )
    original = trained_params(default_bundle)
    blind = trained_params(zeroed)
    params_identical = set(original) == set(blind) and all(
        np.array_equal(original[name], blind[name]) for name in original
    )
    _verdict(
        9, "byte-identical reruns; heldout coordinates never touch training",
        csv_identical and params_identical,
        f"csv bytes identical: {csv_identical}; "
        f"params bit-identical under zeroed dev/test coordinates: {params_identical}",
    )
