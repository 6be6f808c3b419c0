"""The benchmark tracer wraps geograph functions by name; each must exist,
and the package must still call it."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from geograph import models
from geograph.sparse import SparseMatrix
from geograph.views import normalize_adjacency
from conftest import random_symmetric_adjacency

TRACER = Path(__file__).resolve().parents[1] / "geobench" / "tracer.py"


def _targets() -> dict[str, dict[str, str]]:
    spec = importlib.util.spec_from_file_location("geobench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library imports only
    return tracer.TARGETS


def test_every_traced_name_resolves():
    missing = []
    for module_name, names in _targets().items():
        module = importlib.import_module(module_name)
        for qualified in names:
            owner = module
            for part in qualified.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{qualified}")
    assert not missing, missing


def test_every_traced_engine_and_model_name_is_called(monkeypatch):
    # A name kept only for the tracer would read 0 in every traced run. Short
    # fits of all four kinds and one prediction call each autodiff and models
    # target, looked up by module-global name as the tracer replaces it.
    calls = Counter()

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    targets = [(module_name, name) for module_name, names in _targets().items()
               if module_name in ("geograph.autodiff", "geograph.models") for name in names]
    for module_name, name in targets:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, name, counting(getattr(module, name), f"{module_name}.{name}"))

    rng = np.random.default_rng(0)
    n = 30
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, n, 0.2))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((n, 8)) * (rng.random((n, 8)) < 0.5))
    labels = np.arange(n) % 3
    part = models.Partition(np.arange(0, n, 2), np.array([1]), np.array([3]))
    for kind, cfg in [("gcn", models.GcnConfig(hidden=4, layers=2)),
                      ("gcn-lp", models.GcnConfig(hidden=4, layers=1)),
                      ("mlp", models.MlpConfig(hidden=4)),
                      ("dcca", models.DccaConfig(proj_hidden=4, proj_out=2, stage1_epochs=1,
                                                 clf_hidden=4))]:
        model, _ = models.train(kind, a_hat, x, adj, labels, 3, part, cfg,
                                models.TrainConfig(epochs=1))
    models.predict_classes(model, a_hat, x, adj)
    uncalled = [f"{module_name}.{name}" for module_name, name in targets
                if calls[f"{module_name}.{name}"] == 0]
    assert not uncalled, uncalled
