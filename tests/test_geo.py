"""Distance, discretization, and evaluation against independent references."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geograph.errors import ArgumentError, DataFormatError, ShapeError, StateError
from geograph.geo import (
    ACC_THRESHOLD_KM,
    EARTH_RADIUS_KM,
    GeoPoint,
    RegionTree,
    coordinate_error,
    evaluate,
    export_per_class_csv,
    haversine_km,
    haversine_km_arrays,
)
from oracles import kd_partition

finite_lat = st.floats(-90, 90, allow_nan=False)
finite_lon = st.floats(-180, 180, allow_nan=False)


# --- distance ---------------------------------------------------------------


def test_haversine_zero_and_symmetry():
    a, b = GeoPoint(48.85, 2.35), GeoPoint(51.5, -0.13)
    assert haversine_km(a, a) == 0.0
    assert haversine_km(a, b) == haversine_km(b, a)


def test_haversine_known_geometry():
    # a full quarter turn along the equator is 1/4 of the circumference
    quarter = haversine_km(GeoPoint(0, 0), GeoPoint(0, 90))
    assert abs(quarter - math.pi * EARTH_RADIUS_KM / 2) < 1e-9
    # pole to pole is half the circumference
    half = haversine_km(GeoPoint(90, 0), GeoPoint(-90, 0))
    assert abs(half - math.pi * EARTH_RADIUS_KM) < 1e-9
    # one degree of latitude anywhere
    degree = haversine_km(GeoPoint(10, 20), GeoPoint(11, 20))
    assert abs(degree - math.pi * EARTH_RADIUS_KM / 180) < 1e-9


@given(finite_lat, finite_lon, finite_lat, finite_lon)
def test_haversine_agrees_with_law_of_cosines(lat1, lon1, lat2, lon2):
    """Cross-check against the spherical law of cosines, a different formula.

    acos is ill-conditioned when its argument nears +-1 (tiny or antipodal
    separations), costing the reference up to ~R*sqrt(2 eps) = 0.2 km, so the
    comparison carries that absolute floor on top of a relative band.
    """
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    cosc = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l2 - l1)
    reference = EARTH_RADIUS_KM * math.acos(max(-1.0, min(1.0, cosc)))
    assert abs(haversine_km(a, b) - reference) < 1e-6 * reference + 0.2


def test_haversine_arrays_matches_scalar(rng):
    lats = rng.uniform(-80, 80, 20)
    lons = rng.uniform(-170, 170, 20)
    got = haversine_km_arrays(lats[:10], lons[:10], lats[10:], lons[10:])
    want = [
        haversine_km(GeoPoint(lats[i], lons[i]), GeoPoint(lats[10 + i], lons[10 + i]))
        for i in range(10)
    ]
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_geopoint_validation():
    with pytest.raises(ArgumentError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ArgumentError):
        GeoPoint(0.0, -181.0)
    with pytest.raises(ArgumentError):
        GeoPoint(float("nan"), 0.0)


def test_coordinate_error_names_first_bad_row():
    assert coordinate_error(np.array([[0.0, 0.0], [90.0, -180.0]])) is None
    bad = np.array([[0.0, 0.0], [1.0, 181.0], [91.0, 0.0]])
    assert coordinate_error(bad) == (
        1, "(1.0, 181.0) is not a finite lat in [-90, 90] and lon in [-180, 180]")
    assert coordinate_error(np.array([[np.inf, 0.0]]))[0] == 0
    assert coordinate_error(np.array([[0.0, 0.0], [0.0, np.nan]]))[0] == 1


# --- region tree ------------------------------------------------------------


def _random_points(rng, n, duplicates=False):
    pts = np.column_stack([rng.uniform(25, 50, n), rng.uniform(-120, -70, n)])
    if duplicates and n >= 4:
        pts[1] = pts[0]
        pts[3] = pts[2]
    return pts


@pytest.mark.parametrize("n,bucket,dup", [(1, 1, False), (7, 2, False), (40, 5, False),
                                          (23, 4, True), (60, 60, False), (9, 1, True)])
def test_tree_partition_matches_reference(rng, n, bucket, dup):
    points = _random_points(rng, n, duplicates=dup)
    tree = RegionTree.build(points, bucket)
    expected = kd_partition([tuple(p) for p in points.tolist()], bucket)
    # compare leaf memberships in DFS class-id order against the reference
    member_sets = _leaf_index_sets(tree, points)
    assert member_sets == [sorted(leaf) for leaf in expected]


@given(st.lists(st.tuples(st.sampled_from([-10.0, 0.0, 0.5, 20.0]),
                          st.sampled_from([5.0, 5.25, 60.0])), min_size=1, max_size=40),
       st.integers(1, 6))
def test_tree_partition_matches_reference_on_repeated_points(coords, bucket):
    # Few distinct values, so a lower median often equals the axis maximum.
    points = np.array(coords)
    tree = RegionTree.build(points, bucket)
    assert _leaf_index_sets(tree, points) == [sorted(leaf) for leaf in kd_partition(coords, bucket)]


def test_tree_cut_at_axis_maximum_moves_down():
    # The lower median of latitudes [0, 5, 5, 5] is their maximum, so the cut
    # drops to 0: both branches are nonempty, and the leaves partition the points.
    points = np.array([[5.0, 1.0], [0.0, 1.0], [5.0, 1.0], [5.0, 1.0]])
    tree = RegionTree.build(points, 1)
    assert _leaf_index_sets(tree, points) == [[1], [0, 2, 3]]


def _leaf_index_sets(tree, points):
    # recover which original indices landed in each leaf via assign_many()
    classes = tree.assign_many(points)
    return [np.flatnonzero(classes == c).tolist() for c in range(tree.num_classes)]


def test_tree_identical_points_single_leaf():
    pts = np.tile([40.0, -100.0], (10, 1))
    tree = RegionTree.build(pts, 2)
    assert tree.num_classes == 1
    assert tree.leaf_counts() == [10]


def test_tree_big_bucket_single_leaf(rng):
    pts = _random_points(rng, 12)
    tree = RegionTree.build(pts, 12)
    assert tree.num_classes == 1


def test_tree_leaf_sizes_and_ids(rng):
    pts = _random_points(rng, 100)
    tree = RegionTree.build(pts, 10)
    counts = tree.leaf_counts()
    assert all(c <= 10 for c in counts)
    assert sum(counts) == 100
    assert tree.num_classes == len(counts)


def test_tree_representative_is_componentwise_median():
    pts = np.array([[1.0, 10.0], [2.0, 30.0], [3.0, 20.0]])
    tree = RegionTree.build(pts, 3)
    rep = tree.representatives[0]
    assert (rep.lat, rep.lon) == (2.0, 20.0)


def test_tree_members_route_back_to_own_leaf(rng):
    pts = _random_points(rng, 50, duplicates=True)
    tree = RegionTree.build(pts, 6)
    for c in range(tree.num_classes):
        members = np.array([(p.lat, p.lon) for p in tree.members(c)])
        assert len(members) == tree.leaf_counts()[c]
        assert np.all(tree.assign_many(members) == c)


def test_tree_serialization_roundtrip(rng):
    pts = _random_points(rng, 30)
    tree = RegionTree.build(pts, 4)
    clone = RegionTree.from_dict(tree.to_dict())
    assert clone.num_classes == tree.num_classes
    assert clone.leaf_counts() == tree.leaf_counts()
    # Scoring reads the leaves alone; a loaded tree has no splits to descend.
    with pytest.raises(StateError):
        clone.assign_many(_random_points(rng, 40))
    for a, b in zip(clone.representatives, tree.representatives):
        assert (a.lat, a.lon) == (b.lat, b.lon)
    assert clone.to_dict() == tree.to_dict() == {"leaves": tree.to_dict()["leaves"]}
    with pytest.raises(StateError):
        clone.members(0)


@pytest.mark.parametrize("d", [
    None, {}, {"leaves": []}, {"leaves": [5]}, {"leaves": [{"count": 0, "rep": [1.0, 2.0]}]},
    {"leaves": [{"count": 2, "rep": [1.0]}]}, {"leaves": [{"count": True, "rep": [1.0, 2.0]}]},
    {"leaves": [{"count": 2, "rep": [95.0, 2.0]}]},
])
def test_tree_from_dict_rejects_malformed_leaves(d):
    with pytest.raises(DataFormatError):
        RegionTree.from_dict(d)


def test_tree_build_validation():
    with pytest.raises(ArgumentError):
        RegionTree.build(np.empty((0, 2)), 3)
    with pytest.raises(ArgumentError):
        RegionTree.build(np.zeros((1, 2)), 0)


# --- evaluation -------------------------------------------------------------


def test_evaluate_micro_case():
    # two leaves around known centers; predictions half right
    train = np.array([[40, -100], [40.1, -100.1], [30, -80], [30.1, -80.1]])
    tree = RegionTree.build(train, 2)
    truth = np.array([[40.05, -100.05], [30.05, -80.05]])
    right = tree.assign_many(truth)
    report = evaluate(right, truth, tree)
    assert report.acc161 == 1.0
    assert report.mean_km < 161.0
    wrong = right[::-1]
    report2 = evaluate(wrong, truth, tree)
    assert report2.acc161 == 0.0
    assert report2.median_km > 1000.0


def test_evaluate_threshold_is_inclusive():
    # representative exactly 161 km east of the truth counts as a hit
    tree = RegionTree.build(np.zeros((1, 2)), 1)
    dlon = math.degrees(ACC_THRESHOLD_KM / EARTH_RADIUS_KM)
    report = evaluate(np.array([0]), np.array([[0.0, dlon]]), tree)
    assert abs(report.mean_km - ACC_THRESHOLD_KM) < 1e-9
    assert report.acc161 == 1.0


def test_evaluate_per_class_rows(rng, tmp_path):
    pts = _random_points(rng, 20)
    tree = RegionTree.build(pts, 5)
    preds = np.zeros(6, dtype=int)  # everyone predicted into class 0
    truth = _random_points(rng, 6)
    report = evaluate(preds, truth, tree)
    assert [f.name for f in dataclasses.fields(report)] == ["acc161", "mean_km", "median_km"]
    path = tmp_path / "per_class.csv"
    export_per_class_csv(preds, truth, tree, path)
    rows = list(csv.reader(path.open()))[1:]
    assert len(rows) == tree.num_classes
    rep = tree.representatives[0]
    errors = [haversine_km(rep, GeoPoint(lat, lon)) for lat, lon in truth.tolist()]
    assert rows[0][:2] == ["0", "6"]
    assert float(rows[0][4]) == pytest.approx(float(np.median(errors)), rel=1e-12)
    assert float(rows[0][4]) == pytest.approx(report.median_km, rel=1e-12)
    assert all(row[1] == "0" and row[4] == "" for row in rows[1:])


def test_evaluate_validation(rng):
    tree = RegionTree.build(_random_points(rng, 4), 2)
    with pytest.raises(ShapeError):
        evaluate(np.array([0, 0]), np.zeros((1, 2)), tree)
    with pytest.raises(ArgumentError):
        evaluate(np.array([tree.num_classes]), np.zeros((1, 2)), tree)
    with pytest.raises(ArgumentError):
        evaluate(np.array([], dtype=int), np.empty((0, 2)), tree)


def test_per_class_csv_export(tmp_path, rng):
    pts = _random_points(rng, 10)
    tree = RegionTree.build(pts, 3)
    preds = np.array([0, 0, 1])
    truth = _random_points(rng, 3)
    path = tmp_path / "per_class.csv"
    export_per_class_csv(preds, truth, tree, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "class_id,count,rep_lat,rep_lon,median_km"
    assert len(lines) == tree.num_classes + 1
    assert lines[1].startswith("0,2,")
    assert lines[2].startswith("1,1,")
    for cid, line in enumerate(lines[1:]):
        lat, lon = tree.rep_coords[cid].tolist()
        assert line.split(",")[2:4] == [repr(lat), repr(lon)]
    assert tree.num_classes > 2 and lines[3].endswith(",")  # class 2 has no predictions
    with pytest.raises(ShapeError):
        export_per_class_csv(preds, truth[:2], tree, path)
