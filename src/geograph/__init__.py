"""Semi-supervised user geolocation from text and @-mention graphs.

The package predicts a discretized location class for every user from two
views of a corpus: tf-idf unigrams over their posts and the collapsed
@-mention graph. Graph-convolutional classifiers (optionally with highway
gates and input label propagation), a two-view MLP, and a deep-CCA pipeline
share one autodiff core, a k-d tree discretizer, and a sweep harness.
"""

from .autodiff import Tensor, backward
from .data import DatasetBundle, Partition, SyntheticConfig, generate_synthetic, load_dataset, save_dataset, subsample_labels
from .errors import (
    ArgumentError,
    DataFormatError,
    GeographError,
    NumericError,
    ShapeError,
    StateError,
)
from .geo import EvalReport, GeoPoint, RegionTree, evaluate, haversine_km
from .models import (
    DccaConfig,
    GcnConfig,
    MlpConfig,
    TrainConfig,
    TrainedModel,
    predict_classes,
    train,
)
from .optim import ParamSet
from .sparse import SparseMatrix
from .sweep import RunReport, SweepSpec, emit_report, run_sweep
from .views import ViewMatrices, Vocabulary, build_mention_graph, build_text_view, normalize_adjacency

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "DataFormatError",
    "DatasetBundle",
    "DccaConfig",
    "EvalReport",
    "GcnConfig",
    "GeoPoint",
    "GeographError",
    "MlpConfig",
    "NumericError",
    "ParamSet",
    "Partition",
    "RegionTree",
    "RunReport",
    "ShapeError",
    "SparseMatrix",
    "StateError",
    "SweepSpec",
    "SyntheticConfig",
    "Tensor",
    "TrainConfig",
    "TrainedModel",
    "ViewMatrices",
    "Vocabulary",
    "backward",
    "build_mention_graph",
    "build_text_view",
    "emit_report",
    "evaluate",
    "generate_synthetic",
    "haversine_km",
    "load_dataset",
    "normalize_adjacency",
    "predict_classes",
    "run_sweep",
    "save_dataset",
    "subsample_labels",
    "train",
    "__version__",
]
