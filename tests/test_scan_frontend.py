from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from thermoslam import (
    PlanarPose,
    Scan2D,
    SiteModel,
    WallSegment,
    compose,
    inverse,
    match_scans,
    planar_to_rigid3,
    uniform_field,
)
from thermoslam import scan_frontend
from thermoslam.cli_io import run_mapping
from thermoslam.core import ImuSeries
from thermoslam.scan_frontend import (
    DISTANCE_GATE,
    MATCH_LOSS,
    MIN_INLIERS,
    NORMAL_FLATNESS,
    NORMAL_NEIGHBORS,
    NORMAL_RADIUS,
    DegenerateScanError,
    ProjectedScan,
    associate,
    associate_gravity,
    estimate_normals,
    filter_gravity,
    gravity_project,
    normal_equations,
    project_points_to_plane,
    scan_to_points,
)
from thermoslam.sim import raycast_scan


def _square_points(n: int, half: float = 3.0, phase: float = 0.0) -> np.ndarray:
    """n points along the perimeter of a square centered on the origin."""
    s = (np.arange(n) / n + phase) % 1.0
    edge = np.minimum((s * 4).astype(int), 3)
    f = s * 4 - edge
    pts = np.empty((n, 2))
    for e, (x0, y0, x1, y1) in enumerate(
        [(-half, -half, half, -half), (half, -half, half, half), (half, half, -half, half), (-half, half, -half, -half)]
    ):
        m = edge == e
        pts[m, 0] = x0 + (x1 - x0) * f[m]
        pts[m, 1] = y0 + (y1 - y0) * f[m]
    return pts


def _displaced_copy(points: np.ndarray, pose: PlanarPose) -> np.ndarray:
    """The same physical points, expressed in a sensor frame moved by pose."""
    return inverse(pose).apply(points)


# ---------------------------------------------------------------------------
# Gravity filtering and association.


def _imu(stamps, accel) -> ImuSeries:
    return ImuSeries(np.asarray(stamps, dtype=np.int64), np.asarray(accel, dtype=float).reshape(-1, 3))


def test_filter_gravity_constant_stream_is_unit_direction():
    out = filter_gravity(_imu(range(10), [(0.0, 0.0, -9.81)] * 10))
    assert out.shape == (10, 3)
    assert np.array_equal(out, np.tile([0.0, 0.0, -1.0], (10, 1)))


def test_filter_gravity_converges_to_new_direction():
    out = filter_gravity(_imu(range(200), [(5.0, 0.0, -8.0)] + [(0.0, 0.0, -9.81)] * 199))
    assert out[-1] @ np.array([0.0, 0.0, -1.0]) > 0.9999


def test_filter_gravity_equals_a_per_sample_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(22)
    accel = np.array([0.0, 0.0, -9.80665]) + rng.normal(0.0, 0.3, (500, 3))
    imu = _imu(np.arange(500) * 10_000_000, accel)
    for alpha in (0.05, 0.3, 1.0):
        monkeypatch.setattr(scan_frontend, "GRAVITY_ALPHA", alpha)
        # The reference filters one reading at a time, from Python floats.
        rows = [tuple(float(v) for v in row) for row in accel]
        state = np.array(rows[0])
        expected = []
        for row in rows:
            state = (1.0 - alpha) * state + alpha * np.array(row)
            expected.append(state / np.linalg.norm(state))
        assert filter_gravity(imu).tobytes() == np.array(expected).tobytes()


def test_filter_gravity_validation(monkeypatch):
    with pytest.raises(ValueError, match="empty"):
        filter_gravity(_imu([], []))
    # Opposite readings average to the zero vector.
    monkeypatch.setattr(scan_frontend, "GRAVITY_ALPHA", 0.5)
    with pytest.raises(ValueError, match="collapsed"):
        filter_gravity(_imu([0, 1], [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]))


def test_associate_gravity_nearest_with_tie_to_earlier(monkeypatch):
    def scan(stamp):
        return Scan2D(stamp, 0.0, 0.1, [1.0, 1.0])

    stamps = np.array([0, 100, 200], dtype=np.int64)
    # 50 ties between 0 and 100; -200 and 400 lie exactly the pairing
    # window outside the stream, 401 one nanosecond farther.
    monkeypatch.setattr(scan_frontend, "GRAVITY_MAX_OFFSET_NS", 200)
    scans = [scan(-200), scan(49), scan(50), scan(51), scan(151), scan(400), scan(401), scan(500)]
    pairs, dropped = associate_gravity(scans, stamps)
    assert dropped == 2
    assert [(s.stamp, i) for s, i in pairs] == [(-200, 0), (49, 0), (50, 0), (51, 1), (151, 2), (400, 2)]


def test_associate_gravity_rejects_unsorted():
    with pytest.raises(ValueError):
        associate_gravity([Scan2D(0, 0.0, 0.1, [1.0, 1.0])], np.array([100, 0]))
    with pytest.raises(ValueError):
        associate_gravity([Scan2D(5, 0.0, 0.1, [1.0, 1.0]), Scan2D(4, 0.0, 0.1, [1.0, 1.0])], np.array([0, 10]))
    with pytest.raises(ValueError):
        associate_gravity([], np.array([], dtype=np.int64))


# ---------------------------------------------------------------------------
# Projection.


def test_scan_to_points_skips_missing_returns():
    scan = Scan2D(0, 0.0, math.pi / 2, [1.0, math.nan, 2.0])
    pts = scan_to_points(scan)
    assert pts.shape == (2, 3)
    assert np.allclose(pts[0], [1.0, 0.0, 0.0])
    assert np.allclose(pts[1], [2.0 * math.cos(math.pi), 2.0 * math.sin(math.pi), 0.0], atol=1e-12)


def test_project_points_to_plane_orthogonal_and_idempotent():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 5, (100, 3))
    g = rng.standard_normal(3)
    flat = project_points_to_plane(pts, g)
    assert np.abs(flat @ g).max() < 1e-9
    assert np.allclose(project_points_to_plane(flat, g), flat, atol=1e-12)


def test_gravity_project_level_scan_is_bit_exact():
    scan = Scan2D(3, -1.0, 0.02, np.linspace(1.0, 4.0, 50))
    projected = gravity_project(scan, np.array([0.0, 0.0, -1.0]))
    assert projected.stamp == 3
    assert np.array_equal(projected.points_xy, scan_to_points(scan)[:, :2])


def test_gravity_project_rejects_degenerate_scan():
    scan = Scan2D(0, 0.0, 0.1, [1.0, math.nan, math.nan])
    with pytest.raises(DegenerateScanError):
        gravity_project(scan, np.array([0.0, 0.0, -1.0]))


# ---------------------------------------------------------------------------
# Normal estimation.


def test_estimate_normals_straight_wall_faces_sensor():
    x = np.linspace(-1.0, 1.0, 41)
    pts = np.column_stack([x, np.full_like(x, 2.0)])
    normals, valid = estimate_normals(pts)
    assert valid.all()
    # Wall at y=2 seen from the origin: normals point back toward -y.
    assert np.allclose(normals, np.tile([0.0, -1.0], (41, 1)), atol=1e-9)


def test_estimate_normals_rejects_corner_neighborhoods():
    a = np.column_stack([np.linspace(0.5, 2.0, 31), np.full(31, 2.0)])
    b = np.column_stack([np.full(30, 2.0), np.linspace(2.0, 0.5, 31)[1:]])
    normals, valid = estimate_normals(np.vstack([a, b]))
    d_corner = np.linalg.norm(np.vstack([a, b]) - np.array([2.0, 2.0]), axis=1)
    # Mid-arm points stay valid. Points close to the corner draw several
    # neighbors from the other arm and fail the line test; right at the
    # band edge a single borrowed neighbor is tolerated, so the asserted
    # zone stays inside the genuinely mixed neighborhoods.
    assert valid[d_corner > 0.5].all()
    assert not valid[d_corner < 0.12].any()
    mid_a = (d_corner > 0.5) & (np.arange(61) < 31)
    assert np.allclose(np.abs(normals[mid_a, 1]), 1.0, atol=1e-9)


def test_estimate_normals_needs_three_neighbors_in_radius():
    # Points 0.5 m apart have no neighbor within the normal radius.
    assert NORMAL_RADIUS < 0.5
    pts = np.column_stack([np.arange(6) * 0.5, np.full(6, 2.0)])
    _, valid = estimate_normals(pts)
    assert not valid.any()
    _, valid_two = estimate_normals(np.array([[0.0, 2.0], [0.5, 2.0]]))
    assert not valid_two.any()


def _eigh_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference normals from a batched eigh of each neighborhood covariance.

    Returns (normals, valid, eigvals), eigvals ascending per point.
    """
    pts = np.asarray(points, dtype=float)
    k = min(NORMAL_NEIGHBORS, pts.shape[0])
    dist, idx = cKDTree(pts).query(pts, k=k)
    if k == 1:
        dist, idx = dist[:, None], idx[:, None]
    near = dist <= NORMAL_RADIUS
    counts = near.sum(axis=1)
    valid = counts >= 3
    nbr = pts[idx]
    w = near.astype(float)[:, :, None]
    denom = np.maximum(counts, 1)[:, None]
    mean = (nbr * w).sum(axis=1) / denom
    centered = (nbr - mean[:, None, :]) * w
    cov = np.einsum("nki,nkj->nij", centered, centered) / denom[:, :, None]
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0].copy()
    valid &= eigvals[:, 1] > 1e-12
    valid &= eigvals[:, 0] <= NORMAL_FLATNESS * eigvals[:, 1]
    flip = np.einsum("ni,ni->n", normals, pts) > 0.0
    normals[flip] *= -1.0
    return normals, valid, eigvals


def _assert_normals_match_eigh(points: np.ndarray) -> np.ndarray:
    """Compare estimate_normals with the eigh reference; return its valid mask."""
    normals, valid = estimate_normals(points)
    ref_normals, ref_valid, eigvals = _eigh_normals(points)
    assert np.all(np.isfinite(normals))
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    small, large = eigvals[:, 0], eigvals[:, 1]
    # valid may differ only where a rule's two sides are within rounding.
    away = (np.abs(small - NORMAL_FLATNESS * large) > 1e-9 * large) & (np.abs(large - 1e-12) > 1e-15)
    assert np.array_equal(valid[away], ref_valid[away])
    # Normals are defined where the two eigenvalues are well apart. Both are
    # flipped toward the sensor, so their signs can differ only where the
    # normal is perpendicular to the point's position.
    separated = (large > 1e-12) & (small <= 0.5 * large)
    gap = np.minimum(np.abs(normals - ref_normals).max(axis=1), np.abs(normals + ref_normals).max(axis=1))
    assert gap[separated].max(initial=0.0) < 1e-9
    return valid


def test_estimate_normals_matches_eigh_on_random_neighborhoods():
    rng = np.random.default_rng(24)
    for _ in range(20):
        pieces = []
        for _ in range(6):
            # Noisy segments whose flatness ratio straddles NORMAL_FLATNESS,
            # plus scattered points.
            center = rng.uniform(-5.0, 5.0, 2)
            direction = rng.normal(size=2)
            along = rng.uniform(-0.6, 0.6, 25)[:, None] * direction / np.linalg.norm(direction)
            sigma = 10.0 ** rng.uniform(-4.0, -1.0)
            pieces.append(center + along + rng.normal(0.0, sigma, (25, 2)))
        pieces.append(rng.uniform(-5.0, 5.0, (40, 2)))
        valid = _assert_normals_match_eigh(np.vstack(pieces))
        assert valid.any() and not valid.all()


def test_estimate_normals_matches_eigh_on_edge_cases():
    # Isotropic: a center and four points at equal distance along both axes
    # share one neighborhood whose covariance has equal eigenvalues.
    cross = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]]) + [2.0, 1.0]
    assert not _assert_normals_match_eigh(cross).any()
    # Exactly collinear: along an axis and along a diagonal.
    t = np.linspace(-0.5, 0.5, 21)
    for line in (np.column_stack([t + 1.0, np.full(21, 2.0)]), np.column_stack([t + 3.0, t - 1.0])):
        assert _assert_normals_match_eigh(line).all()
    # Fewer than 3 neighbors in radius: two pairs of points 0.1 m apart,
    # about 1 m from each other, and a lone point.
    pairs = np.array([[0.0, 2.0], [0.1, 2.0], [1.0, 2.0], [1.0, 2.1], [3.0, 3.0]])
    assert not _assert_normals_match_eigh(pairs).any()
    # A flatness ratio 1e-7 above and below NORMAL_FLATNESS: the five points
    # of a stretched cross share one neighborhood with eigenvalue ratio
    # (v / u)^2, rotated and moved off the origin.
    c, s = math.cos(0.7), math.sin(0.7)
    for ratio, expected in ((NORMAL_FLATNESS + 1e-7, False), (NORMAL_FLATNESS - 1e-7, True)):
        u, v = 0.1, 0.1 * math.sqrt(ratio)
        stretched = np.array([[0.0, 0.0], [u, 0.0], [-u, 0.0], [0.0, v], [0.0, -v]])
        points = stretched @ np.array([[c, s], [-s, c]]) + [3.0, -2.0]
        valid = _assert_normals_match_eigh(points)
        assert np.array_equal(valid, np.full(5, expected))


# ---------------------------------------------------------------------------
# Scan matching.


def test_match_scans_identity_on_identical_scans():
    # At zero cost the model predicts no decrease, so the match stops
    # after associating the guess alone.
    scan = ProjectedScan(0, _square_points(240))
    result = match_scans(scan, scan)
    assert result.converged
    assert result.associations == 1
    assert abs(result.relative_pose.x) < 1e-9
    assert abs(result.relative_pose.y) < 1e-9
    assert abs(result.relative_pose.theta) < 1e-9


def test_match_scans_recovers_displaced_copy():
    truth = PlanarPose(0.08, -0.05, math.radians(3.0))
    ref = ProjectedScan(0, _square_points(240))
    mov = ProjectedScan(1, _displaced_copy(ref.points_xy, truth))
    result = match_scans(ref, mov)
    assert result.converged
    assert math.hypot(result.relative_pose.x - truth.x, result.relative_pose.y - truth.y) < 1e-6
    assert abs(result.relative_pose.theta - truth.theta) < 1e-6


def test_match_scans_recovers_independently_sampled_scans():
    # The two scans sample different perimeter points, as real beams would.
    truth = PlanarPose(0.1, 0.05, math.radians(2.0))
    ref = ProjectedScan(0, _square_points(240))
    mov = ProjectedScan(1, _displaced_copy(_square_points(240, phase=0.002), truth))
    result = match_scans(ref, mov)
    assert result.converged
    assert math.hypot(result.relative_pose.x - truth.x, result.relative_pose.y - truth.y) < 1e-3
    assert abs(result.relative_pose.theta - truth.theta) < math.radians(0.05)


def _square_room_pair() -> tuple[ProjectedScan, ProjectedScan]:
    # Acceptance criterion 2's pair: a 5 m square room seen from two poses
    # (0.10 m, 0.05 m, 2 deg) apart.
    half, height = 2.5, 3.0
    walls = [
        WallSegment(-half, -half, half, -half, height),
        WallSegment(half, -half, half, half, height),
        WallSegment(half, half, -half, half, height),
        WallSegment(-half, half, -half, -half, height),
    ]
    site = SiteModel(walls, uniform_field(20.0), floor_height=height)
    pose_a = PlanarPose(0.3, -0.2, 0.15)
    pose_b = compose(pose_a, PlanarPose(0.10, 0.05, math.radians(2.0)))
    scans = [raycast_scan(site, planar_to_rigid3(p, z=1.0), stamp=k) for k, p in enumerate((pose_a, pose_b))]
    return tuple(ProjectedScan(k, scan_to_points(scan)[:, :2]) for k, scan in enumerate(scans))


def _noisy_square_pair() -> tuple[ProjectedScan, ProjectedScan, PlanarPose]:
    # Started at the true offset, the first Gauss-Newton step of this noisy
    # pair raises the re-associated cost and is rejected.
    truth = PlanarPose(0.06, 0.02, math.radians(1.5))
    rng = np.random.default_rng(18)
    ref = ProjectedScan(0, _square_points(240) + rng.normal(0.0, 0.01, (240, 2)))
    moved = _displaced_copy(_square_points(240, phase=0.001), truth)
    return ref, ProjectedScan(1, moved + rng.normal(0.0, 0.01, (240, 2))), truth


def test_match_scans_builds_normal_equations_once_per_state(monkeypatch):
    states, costs = [], []

    def recording_equations(reference, state, association):
        states.append(tuple(state))
        return normal_equations(reference, state, association)

    def recording_associate(reference, moving, state):
        association = associate(reference, moving, state)
        costs.append(association[0])
        return association

    monkeypatch.setattr("thermoslam.scan_frontend.normal_equations", recording_equations)
    monkeypatch.setattr("thermoslam.scan_frontend.associate", recording_associate)
    ref, mov = _square_room_pair()
    noisy_ref, noisy_mov, truth = _noisy_square_pair()
    for args in ((ref, mov, PlanarPose()), (noisy_ref, noisy_mov, truth)):
        states.clear()
        costs.clear()
        result = match_scans(*args)
        assert result.converged
        assert result.associations == len(costs)
        assert len(states) == len(set(states))
    # The second pair did exercise the rejected-step path.
    assert costs[1] > costs[0]


def test_match_scans_is_a_fixed_point_on_noisy_scans():
    # Restarted from its own result, the match stays put: it stops where
    # the remaining gain is below the paired residuals' noise.
    ref, mov, truth = _noisy_square_pair()
    first = match_scans(ref, mov, initial_guess=truth)
    again = match_scans(ref, mov, initial_guess=first.relative_pose)
    assert first.converged and again.converged
    a, b = first.relative_pose, again.relative_pose
    assert math.hypot(b.x - a.x, b.y - a.y) < 20e-6
    assert abs(b.theta - a.theta) < 20e-6


def test_match_scans_never_worsens_initial_cost():
    ref = ProjectedScan(0, _square_points(240))
    truth = PlanarPose(0.06, 0.02, math.radians(1.5))
    mov = ProjectedScan(1, _displaced_copy(_square_points(240, phase=0.001), truth))
    rng = np.random.default_rng(5)
    for _ in range(5):
        guess = PlanarPose(
            truth.x + rng.uniform(-0.05, 0.05),
            truth.y + rng.uniform(-0.05, 0.05),
            truth.theta + rng.uniform(-0.03, 0.03),
        )
        result = match_scans(ref, mov, initial_guess=guess)
        assert result.final_cost <= associate(ref, mov, np.array([guess.x, guess.y, guess.theta]))[0] + 1e-15


def test_match_scans_reports_failure_without_overlap():
    ref = ProjectedScan(0, _square_points(120))
    mov = ProjectedScan(1, _square_points(120) + 100.0)
    result = match_scans(ref, mov)
    assert not result.converged
    assert result.inlier_count == 0
    # The caller's guess comes back instead of a fabricated pose.
    assert result.relative_pose == PlanarPose()


def test_match_scans_returns_guess_when_too_few_inliers():
    # The solver finds the 5 cm offset, but 20 pairs are under MIN_INLIERS:
    # the result is the guess, with the guess's cost and inlier count.
    assert MIN_INLIERS > 20
    x = np.linspace(-1.0, 1.0, 20)
    ref = ProjectedScan(0, np.column_stack([x, np.full(20, 1.0)]))
    mov = ProjectedScan(1, np.column_stack([x, np.full(20, 1.05)]))
    result = match_scans(ref, mov)
    assert not result.converged
    assert result.relative_pose == PlanarPose()
    assert result.final_cost == associate(ref, mov, np.zeros(3))[0] > 0.0
    assert result.inlier_count == 20


def test_matching_cost_saturates_at_distance_gate():
    ref = ProjectedScan(0, _square_points(120))
    mov = ProjectedScan(1, _square_points(120) + 100.0)
    cost = associate(ref, mov, np.zeros(3))[0]
    gate = MATCH_LOSS.values(np.array([DISTANCE_GATE]))[0]
    assert cost == pytest.approx(gate)


def test_match_scans_keeps_guess_when_reference_has_no_line_points():
    # 12 points on a 5 m circle lie about 2.6 m apart: no point has the 3
    # neighbors within 0.3 m a normal needs, so the reference has no lines.
    a = np.arange(12) * (2.0 * math.pi / 12)
    ref = ProjectedScan(0, 5.0 * np.column_stack([np.cos(a), np.sin(a)]))
    mov = ProjectedScan(1, _square_points(120))
    guess = PlanarPose(0.3, -0.2, 0.1)
    result = match_scans(ref, mov, initial_guess=guess)
    assert not result.converged
    assert result.inlier_count == 0
    assert result.relative_pose == guess
    saturated = MATCH_LOSS.values(np.array([DISTANCE_GATE]))[0]
    assert result.final_cost == associate(ref, mov, np.array([guess.x, guess.y, guess.theta]))[0] == saturated


def test_each_scan_estimates_normals_once(monkeypatch):
    calls = []

    def counting(points, *args, **kwargs):
        calls.append(len(points))
        return estimate_normals(points, *args, **kwargs)

    monkeypatch.setattr("thermoslam.scan_frontend.estimate_normals", counting)
    truth = PlanarPose(0.06, 0.02, math.radians(1.5))
    ref = ProjectedScan(0, _square_points(240))
    mov = ProjectedScan(1, _displaced_copy(_square_points(240, phase=0.001), truth))
    first = match_scans(ref, mov)
    second = match_scans(ref, mov, initial_guess=truth)
    associate(ref, mov, np.array([truth.x, truth.y, truth.theta]))
    assert first.converged and second.converged
    assert calls == [240, 240]


def test_match_scans_rejects_tiny_scans():
    with pytest.raises(DegenerateScanError):
        match_scans(ProjectedScan(0, [[0.0, 1.0]]), ProjectedScan(1, _square_points(10)))


# ---------------------------------------------------------------------------
# Scan-to-keyframe odometry in the mapping pipeline.


def test_noisy_session_association_budget(noisy_run):
    # The matcher stops once its model promises a decrease below a share of
    # the paired beams' cost; measured against the whole cost, unpaired
    # beams included, the same session took 1946 associations.
    diagnostics = noisy_run.result.diagnostics
    assert diagnostics["odometry_associations"] + diagnostics["loop_associations"] <= 1200


def test_run_mapping_falls_back_on_a_blanked_scan(noiseless_run):
    assert noiseless_run.result.diagnostics["odometry_fallbacks"] == 0
    dataset = noiseless_run.dataset
    scans = list(dataset.scans)
    mid = len(scans) // 2
    blank = np.full(scans[mid].ranges.size, np.nan)
    blank[:3] = 1.0
    scans[mid] = Scan2D(scans[mid].stamp, scans[mid].angle_min, scans[mid].angle_increment, blank)
    result = run_mapping(dataclasses.replace(dataset, scans=scans))
    # A blanked keyframe leaves the scans after it without a usable
    # reference, so they fall back too: count at least one.
    assert result.diagnostics["odometry_fallbacks"] >= 1
    assert result.diagnostics["ate_m"] < 1e-3
