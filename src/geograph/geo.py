"""Coordinates, great-circle distance, k-d tree region discretization, metrics.

Training coordinates are discretized by recursive median splits into at most
``bucket_size`` points per leaf; each leaf is a class whose representative
point (the componentwise median of its members) stands in for the region when
scoring predictions. Errors are great-circle distances on a 6371.0 km sphere
and are summarized as Acc@161 (fraction within 161 km), mean, and median.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataFormatError, ShapeError, StateError

EARTH_RADIUS_KM = 6371.0
ACC_THRESHOLD_KM = 161.0


def coordinate_error(coords: np.ndarray) -> tuple[int, str] | None:
    """The first row of a float (n, 2) lat/lon array that is no point on the
    globe, with the reason, or None when every row is one."""
    # NaN fails every comparison, so non-finite rows fail here too.
    ok = (np.abs(coords[:, 0]) <= 90.0) & (np.abs(coords[:, 1]) <= 180.0)
    if ok.all():
        return None
    row = int(np.argmin(ok))
    lat, lon = coords[row].tolist()
    return row, f"({lat}, {lon}) is not a finite lat in [-90, 90] and lon in [-180, 180]"


@dataclass(frozen=True)
class GeoPoint:
    """Latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        bad = coordinate_error(np.array([[self.lat, self.lon]], dtype=np.float64))
        if bad:
            raise ArgumentError(bad[1])


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometres."""
    return float(haversine_km_arrays(a.lat, a.lon, b.lat, b.lon))


def haversine_km_arrays(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Vectorized haversine over aligned coordinate arrays (degrees in, km out)."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=np.float64)) for x in (lat1, lon1, lat2, lon2))
    h = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


@dataclass(slots=True)
class _Node:
    axis: int | None = None
    split: float | None = None
    left: _Node | None = None
    right: _Node | None = None
    class_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.class_id is not None


class RegionTree:
    """k-d tree over training coordinates; leaves are the target classes.

    Split rules: the axis with the larger raw-degree spread is cut at the
    lower median of that coordinate, with ties (values equal to the split)
    descending to the left branch. Recursion stops once a node holds at most
    ``bucket_size`` points. When the lower median equals the axis maximum the
    split moves down to the largest strictly smaller value so both branches
    stay nonempty; a node whose points are all identical becomes a leaf
    regardless of size.

    Coordinates are (n, 2) lat/lon arrays, as ``DatasetBundle`` holds them;
    ``rep_coords`` holds the leaves' representatives (read-only). A tree from
    ``from_dict`` keeps leaf counts and representatives but no members.
    """

    def __init__(self, root: _Node, counts: list[int], reps: np.ndarray, bucket_size: int,
                 members: list[np.ndarray] | None = None):
        self._root = root
        self._counts = counts
        self.rep_coords = reps
        self.bucket_size = bucket_size
        self._members = members

    @classmethod
    def build(cls, coords: np.ndarray, bucket_size: int) -> "RegionTree":
        if bucket_size < 1:
            raise ArgumentError(f"bucket_size must be >= 1, got {bucket_size}")
        if not coords.shape[0]:
            raise ArgumentError("cannot build a region tree from zero points")
        leaves: list[np.ndarray] = []

        def split(indices: np.ndarray) -> _Node:
            pts = coords[indices]
            spread = pts.max(axis=0) - pts.min(axis=0)
            if indices.size <= bucket_size or spread.max() == 0.0:
                leaves.append(pts)
                return _Node(class_id=len(leaves) - 1)
            axis = 0 if spread[0] >= spread[1] else 1
            values = np.sort(pts[:, axis])
            cut = values[(indices.size - 1) // 2]
            if cut == values[-1]:
                cut = values[values < values[-1]][-1]
            mask = pts[:, axis] <= cut
            return _Node(
                axis=axis,
                split=float(cut),
                left=split(indices[mask]),
                right=split(indices[~mask]),
            )

        root = split(np.arange(coords.shape[0]))
        reps = np.array([np.median(pts, axis=0) for pts in leaves])
        return cls(root, [len(pts) for pts in leaves], reps, bucket_size, leaves)

    @property
    def num_classes(self) -> int:
        return len(self._counts)

    @property
    def representatives(self) -> list[GeoPoint]:
        return [GeoPoint(lat, lon) for lat, lon in self.rep_coords.tolist()]

    def members(self, class_id: int) -> list[GeoPoint]:
        if self._members is None:
            raise StateError("a loaded region tree keeps no member coordinates")
        return [GeoPoint(lat, lon) for lat, lon in self._members[class_id].tolist()]

    def leaf_counts(self) -> list[int]:
        return list(self._counts)

    def assign_many(self, coords: np.ndarray) -> np.ndarray:
        """The leaf class of each row of an (n, 2) lat/lon array."""
        out = np.empty(coords.shape[0], dtype=np.intp)

        def descend(node: _Node, idx: np.ndarray) -> None:
            if node.is_leaf:
                out[idx] = node.class_id
            elif idx.size:
                left = coords[idx, node.axis] <= node.split
                descend(node.left, idx[left])
                descend(node.right, idx[~left])

        descend(self._root, np.arange(coords.shape[0]))
        return out

    # --- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        def encode(node: _Node) -> dict:
            if node.is_leaf:
                return {"class_id": node.class_id}
            return {
                "axis": node.axis,
                "split": node.split,
                "left": encode(node.left),
                "right": encode(node.right),
            }

        return {
            "bucket_size": self.bucket_size,
            "root": encode(self._root),
            "leaves": [
                {"count": count, "rep": rep}
                for count, rep in zip(self._counts, self.rep_coords.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, d) -> "RegionTree":
        """Rebuild a serialized tree. It comes from outside the process, so a
        malformed one raises ``DataFormatError`` naming the bad entry."""

        def need(ok, what: str) -> None:
            if not ok:
                raise DataFormatError(f"region tree {what}")

        need(isinstance(d, dict) and type(d.get("bucket_size")) is int and "root" in d
             and isinstance(d.get("leaves"), list) and d["leaves"],
             "needs an integer 'bucket_size', a 'root' and a nonempty list of 'leaves'")
        leaves = d["leaves"]
        for c, leaf in enumerate(leaves):
            need(isinstance(leaf, dict) and type(leaf.get("count")) is int and leaf["count"] >= 1
                 and isinstance(leaf.get("rep"), list) and len(leaf["rep"]) == 2
                 and all(type(v) in (int, float) for v in leaf["rep"]),
                 f"leaf {c} needs a positive integer 'count' and a numeric [lat, lon] 'rep'")
        reps = np.array([leaf["rep"] for leaf in leaves], dtype=np.float64)
        bad = coordinate_error(reps)
        if bad:
            raise DataFormatError(f"region tree leaf {bad[0]} rep: {bad[1]}")
        class_ids: list[int] = []

        def decode(spec, where: str) -> _Node:
            if isinstance(spec, dict) and "class_id" in spec:
                need(type(spec["class_id"]) is int, f"node {where} has class_id {spec['class_id']!r}")
                class_ids.append(spec["class_id"])
                return _Node(class_id=spec["class_id"])
            missing = [k for k in ("axis", "split", "left", "right")
                       if not isinstance(spec, dict) or k not in spec]
            need(not missing, f"node {where} lacks {missing}")
            axis, split = spec["axis"], spec["split"]
            need(type(axis) is int and axis in (0, 1) and type(split) in (int, float),
                 f"node {where} has axis {axis!r} and split {split!r}")
            return _Node(axis, split, decode(spec["left"], f"{where}.left"),
                         decode(spec["right"], f"{where}.right"))

        root = decode(d["root"], "root")
        need(sorted(class_ids) == list(range(len(leaves))),
             f"leaf class ids {sorted(class_ids)} are not exactly 0..{len(leaves) - 1}")
        return cls(root, [leaf["count"] for leaf in leaves], reps, d["bucket_size"])


@dataclass
class EvalReport:
    """Acc@161, mean and median error in km."""

    acc161: float
    mean_km: float
    median_km: float


def _errors(
    predicted_classes: np.ndarray, true_coords: np.ndarray, tree: RegionTree
) -> np.ndarray:
    """The km error of each prediction, checked against the tree."""
    if predicted_classes.shape[0] != len(true_coords):
        raise ShapeError(f"{predicted_classes.shape[0]} predictions vs {len(true_coords)} points")
    if predicted_classes.size == 0:
        raise ArgumentError("evaluate needs at least one prediction")
    if predicted_classes.min() < 0 or predicted_classes.max() >= tree.num_classes:
        raise ArgumentError("predicted class id outside [0, num_classes)")
    reps = tree.rep_coords[predicted_classes]
    return haversine_km_arrays(reps[:, 0], reps[:, 1], true_coords[:, 0], true_coords[:, 1])


def evaluate(
    predicted_classes: np.ndarray, true_coords: np.ndarray, tree: RegionTree
) -> EvalReport:
    """Score predictions: error is the distance from the predicted leaf's
    representative to the user's true (lat, lon) row of ``true_coords``."""
    errors = _errors(np.asarray(predicted_classes, dtype=np.intp), true_coords, tree)
    return EvalReport(
        acc161=float(np.mean(errors <= ACC_THRESHOLD_KM)),
        mean_km=float(np.mean(errors)),
        median_km=float(np.median(errors)),
    )


def export_per_class_csv(
    predicted_classes: np.ndarray, true_coords: np.ndarray, tree: RegionTree, path
) -> None:
    """One row per class: id, predicted count, representative point and the
    median error of the users predicted into it (empty when there are none)."""
    predicted_classes = np.asarray(predicted_classes, dtype=np.intp)
    errors = _errors(predicted_classes, true_coords, tree)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id", "count", "rep_lat", "rep_lon", "median_km"])
        for cid, (lat, lon) in enumerate(tree.rep_coords.tolist()):
            errs = errors[predicted_classes == cid]
            median = repr(float(np.median(errs))) if errs.size else ""
            writer.writerow([cid, errs.size, repr(lat), repr(lon), median])
