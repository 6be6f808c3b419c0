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
from typing import NamedTuple

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


class _Split(NamedTuple):
    """An inner node: ``coord[axis] <= cut`` goes left. A leaf is its class id."""

    axis: int
    cut: float
    left: _Split | int
    right: _Split | int


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
    ``from_dict`` keeps leaf counts and representatives, which is all scoring
    reads, but neither split nodes nor members.
    """

    def __init__(self, counts: list[int], reps: np.ndarray, root: _Split | int | None = None,
                 members: list[np.ndarray] | None = None):
        self._counts = counts
        self.rep_coords = reps
        self._root = root
        self._members = members

    @classmethod
    def build(cls, coords: np.ndarray, bucket_size: int) -> "RegionTree":
        if bucket_size < 1:
            raise ArgumentError(f"bucket_size must be >= 1, got {bucket_size}")
        if not coords.shape[0]:
            raise ArgumentError("cannot build a region tree from zero points")
        leaves: list[np.ndarray] = []

        def split(indices: np.ndarray) -> _Split | int:
            pts = coords[indices]
            spread = pts.max(axis=0) - pts.min(axis=0)
            if indices.size <= bucket_size or spread.max() == 0.0:
                leaves.append(pts)
                return len(leaves) - 1
            axis = 0 if spread[0] >= spread[1] else 1
            values = np.sort(pts[:, axis])
            cut = values[(indices.size - 1) // 2]
            if cut == values[-1]:
                cut = values[values < values[-1]][-1]
            mask = pts[:, axis] <= cut
            return _Split(axis, float(cut), split(indices[mask]), split(indices[~mask]))

        root = split(np.arange(coords.shape[0]))
        reps = np.array([np.median(pts, axis=0) for pts in leaves])
        return cls([len(pts) for pts in leaves], reps, root, leaves)

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
        if self._root is None:
            raise StateError("a loaded region tree keeps no split nodes")
        out = np.empty(coords.shape[0], dtype=np.intp)

        def descend(node: _Split | int, idx: np.ndarray) -> None:
            if not isinstance(node, _Split):
                out[idx] = node
            elif idx.size:
                left = coords[idx, node.axis] <= node.cut
                descend(node.left, idx[left])
                descend(node.right, idx[~left])

        descend(self._root, np.arange(coords.shape[0]))
        return out

    # --- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The leaves in class order: each one's member count and representative."""
        return {"leaves": [{"count": count, "rep": rep}
                           for count, rep in zip(self._counts, self.rep_coords.tolist())]}

    @classmethod
    def from_dict(cls, d) -> "RegionTree":
        """Rebuild a serialized tree's leaves. They come from outside the
        process, so a malformed one raises ``DataFormatError`` naming it."""
        leaves = d.get("leaves") if isinstance(d, dict) else None
        if not isinstance(leaves, list) or not leaves:
            raise DataFormatError("region tree needs a nonempty list of 'leaves'")
        for c, leaf in enumerate(leaves):
            count, rep = (leaf.get("count"), leaf.get("rep")) if isinstance(leaf, dict) else (0, 0)
            if not (type(count) is int and count >= 1 and isinstance(rep, list) and len(rep) == 2
                    and all(type(v) in (int, float) for v in rep)):
                raise DataFormatError(f"region tree leaf {c} needs a positive integer 'count' "
                                      "and a numeric [lat, lon] 'rep'")
        reps = np.array([leaf["rep"] for leaf in leaves], dtype=np.float64)
        bad = coordinate_error(reps)
        if bad:
            raise DataFormatError(f"region tree leaf {bad[0]} rep: {bad[1]}")
        return cls([leaf["count"] for leaf in leaves], reps)


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
