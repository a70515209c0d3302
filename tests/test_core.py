from __future__ import annotations

import math

import numpy as np
import pytest

from thermoslam import (
    HuberLoss,
    PlanarPose,
    RigidTransform3,
    Scan2D,
    compose,
    inverse,
    rotation_about_z,
    rotation_aligning,
    wrap_angle,
)
from thermoslam.core import ImuSeries, wrap_angles


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50.0, 50.0, 200):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # Same direction: difference is a whole number of turns.
        turns = (a - w) / (2.0 * math.pi)
        assert abs(turns - round(turns)) < 1e-9


def test_wrap_angles_equals_wrap_angle_bit_for_bit():
    rng = np.random.default_rng(1)
    below = np.nextafter(-math.pi, -4.0)
    above = np.nextafter(-math.pi, 0.0)
    edges = [math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 0.0, -0.0, below, above]
    angles = np.concatenate([rng.uniform(-50.0, 50.0, 1000), edges])
    got = wrap_angles(angles)
    want = np.array([wrap_angle(float(a)) for a in angles])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_planar_pose_compose_inverse_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y, t = rng.uniform(-5, 5, 3)
        p = PlanarPose(x, y, t)
        i = compose(p, inverse(p))
        assert abs(i.x) < 1e-12 and abs(i.y) < 1e-12 and abs(i.theta) < 1e-12


def test_planar_pose_apply_matches_compose():
    a = PlanarPose(1.0, -2.0, 0.7)
    b = PlanarPose(0.3, 0.4, -1.1)
    pts = np.array([[0.5, 0.2], [-1.0, 2.0]])
    # Applying a then b's frame change equals applying the composition.
    assert np.allclose(compose(a, b).apply(pts), a.apply(b.apply(pts)))


def test_planar_pose_wraps_theta_on_construction():
    p = PlanarPose(0.0, 0.0, 3.0 * math.pi)
    assert p.theta == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        PlanarPose(math.inf, 0.0, 0.0)


def test_rigid_transform_apply_compose_inverse():
    rng = np.random.default_rng(2)
    rot = rotation_about_z(0.9) @ rotation_aligning(
        np.array([0.0, 0.0, 1.0]), np.array([0.1, -0.2, 0.97])
    )
    t = RigidTransform3(rot, np.array([1.0, 2.0, -0.5]))
    pts = rng.uniform(-3, 3, (20, 3))
    assert np.allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)
    u = RigidTransform3(rotation_about_z(-0.4), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(t.compose(u).apply(pts), t.apply(u.apply(pts)), atol=1e-12)


def test_rigid_transform_rejects_bad_rotation():
    with pytest.raises(ValueError):
        RigidTransform3(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        # Determinant -1: a reflection is not a rotation.
        RigidTransform3(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_rotation_aligning_properties():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        r = rotation_aligning(a, b)
        assert np.allclose(r @ a, b, atol=1e-12)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


def test_rotation_aligning_identity_is_exact():
    g = np.array([0.0, 0.0, -1.0])
    assert np.array_equal(rotation_aligning(g, g), np.eye(3))


def test_rotation_aligning_antiparallel():
    a = np.array([0.0, 0.0, 1.0])
    r = rotation_aligning(a, -a)
    assert np.allclose(r @ a, -a, atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_scan2d_normalizes_inf_and_validates():
    scan = Scan2D(5, -math.pi, 0.1, [1.0, math.inf, 2.0])
    assert np.isnan(scan.ranges[1])
    assert np.array_equal(scan.finite_mask(), [True, False, True])
    assert np.allclose(scan.angles(), [-math.pi, -math.pi + 0.1, -math.pi + 0.2])
    with pytest.raises(ValueError):
        Scan2D(0, 0.0, 0.1, [1.0])
    with pytest.raises(ValueError):
        Scan2D(0, 0.0, -0.1, [1.0, 2.0])
    with pytest.raises(ValueError):
        Scan2D(0, 0.0, 0.1, [1.0, -2.0])
    with pytest.raises(ValueError):
        Scan2D(0, 0.0, 0.1, [1.0, -math.inf])


def test_imu_series_holds_one_finite_row_per_stamp():
    imu = ImuSeries([0, 10], [[0.0, 0.0, -9.8], [0.125, 0.0, -9.8]])
    assert len(imu) == 2
    assert imu.stamps.dtype == np.int64 and imu.accel.dtype == np.float64
    assert len(ImuSeries(np.empty(0, dtype=np.int64), np.empty((0, 3)))) == 0
    with pytest.raises(ValueError, match="one"):
        ImuSeries([0, 10], [[0.0, 0.0, -9.8]])
    with pytest.raises(ValueError, match="one"):
        ImuSeries([0], [0.0, 0.0, -9.8])
    with pytest.raises(ValueError, match="finite"):
        ImuSeries([0, 10], [[0.0, 0.0, -9.8], [math.nan, 0.0, -9.8]])
    with pytest.raises(ValueError, match="finite"):
        ImuSeries([0], [[0.0, math.inf, -9.8]])


def test_huber_loss_branches():
    loss = HuberLoss(0.5)
    residuals = np.array([0.2, 2.0, -2.0, 0.5])
    # Quadratic branch up to and at the threshold, linear beyond it, both signs.
    assert np.allclose(loss.values(np.abs(residuals)), [0.02, 0.5 * (2.0 - 0.25), 0.5 * (2.0 - 0.25), 0.125])
    # The derivative rho'(r) = weight * r: r in the quadratic branch, delta * sign(r) beyond.
    assert np.allclose(loss.weights(np.abs(residuals)) * residuals, [0.2, 0.5, -0.5, 0.5])
    with pytest.raises(ValueError):
        HuberLoss(0.0)


def test_huber_values_and_weights_closed_form():
    loss = HuberLoss(0.1)
    norms = np.array([0.0, 0.05, 0.1, 0.3, 2.0])
    assert np.allclose(loss.values(norms), [0.0, 0.00125, 0.005, 0.1 * (0.3 - 0.05), 0.1 * (2.0 - 0.05)])
    w = loss.weights(norms)
    assert np.allclose(w[:3], 1.0)
    assert np.allclose(w[3:], [0.1 / 0.3, 0.1 / 2.0])
    # The loss is continuous at the threshold.
    eps = 1e-12
    assert loss.values(np.array([0.1 + eps]))[0] == pytest.approx(loss.values(np.array([0.1]))[0])
