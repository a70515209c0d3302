from __future__ import annotations

import math

import numpy as np
import pytest

import thermoslam.thermal_map as thermal_map
from thermoslam import (
    Calibration,
    CameraIntrinsics,
    PlanarPose,
    RigidTransform3,
    ThermalImage,
    ThermalPointCloud,
    WallCloud,
    accumulate_map,
    extrude_walls,
    project_to_thermal,
    voxel_thin,
)
from thermoslam.scan_frontend import ProjectedScan

INTRINSICS = CameraIntrinsics(fx=10.0, fy=10.0, cx=5.0, cy=5.0, width=11, height=11)


def _grid_cloud(z: float = 2.0, n: int = 9, extent: float = 0.8) -> WallCloud:
    """Unset wall points on a plane facing a camera at the origin (+z)."""
    xs, ys = np.meshgrid(np.linspace(-extent, extent, n), np.linspace(-extent, extent, n))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(n * n, z)])
    return WallCloud(pts, np.full(n * n, np.nan), np.full(n * n, np.inf))


def _flat_image(value: float, stamp: int = 0) -> ThermalImage:
    return ThermalImage(stamp, np.full((11, 11), value))


def _calib(sensor_height: float = 0.6, floor_height: float = 3.0, vertical_step: float = 0.1) -> Calibration:
    return Calibration(INTRINSICS, RigidTransform3.identity(), sensor_height, floor_height, vertical_step)


# ---------------------------------------------------------------------------
# Extrusion.


def test_extrusion_heights_span_floor_to_ceiling():
    zs = _calib(sensor_height=0.6, floor_height=3.0, vertical_step=0.1).heights()
    assert zs.size == 31
    assert zs[0] == pytest.approx(-0.6)
    assert zs[-1] == pytest.approx(2.4)
    assert np.allclose(np.diff(zs), 0.1)


def test_extrusion_config_validation():
    with pytest.raises(ValueError, match="sensor_height"):
        _calib(sensor_height=3.0, floor_height=3.0)
    with pytest.raises(ValueError, match="vertical_step"):
        _calib(sensor_height=0.5, floor_height=3.0, vertical_step=0.0)
    with pytest.raises(ValueError, match="vertical_step"):
        _calib(floor_height=3.0, vertical_step=3.5)
    assert _calib(floor_height=3.0, vertical_step=3.0).heights().size == 2


def test_extrude_walls_replicates_xy_exactly():
    scan = ProjectedScan(7, [[1.25, -0.5], [2.0, 3.0], [0.1, 0.2]])
    calib = _calib(sensor_height=0.6, floor_height=3.0, vertical_step=0.5)
    cloud = extrude_walls(scan, calib)
    levels = calib.heights().size
    assert len(cloud) == 3 * levels
    # Column k holds the k-th source point at every height, xy untouched.
    assert np.array_equal(cloud.positions[:levels, 0], np.full(levels, 1.25))
    assert np.array_equal(cloud.positions[:levels, 1], np.full(levels, -0.5))
    assert np.array_equal(cloud.positions[:levels, 2], calib.heights())
    assert np.isnan(cloud.temperatures).all()
    assert np.isposinf(cloud.source_distance).all()


# ---------------------------------------------------------------------------
# Thermal projection.


def test_project_to_thermal_colors_visible_points():
    cloud = _grid_cloud()
    out = project_to_thermal(cloud, RigidTransform3.identity(), INTRINSICS, _flat_image(25.0))
    assert np.allclose(out.temperatures, 25.0)
    assert np.all(np.isfinite(out.source_distance))
    # The input cloud is untouched.
    assert np.isnan(cloud.temperatures).all()


def test_project_to_thermal_skips_points_behind_camera():
    cloud = _grid_cloud(z=-2.0)
    out = project_to_thermal(cloud, RigidTransform3.identity(), INTRINSICS, _flat_image(25.0))
    assert np.isnan(out.temperatures).all()


def test_project_to_thermal_samples_expected_pixel():
    img = np.full((11, 11), 20.0)
    img[4, 7] = 33.0
    # x such that u = fx*x/z + cx lands exactly on pixel (u=7, v=4).
    pt = np.array([[(7.0 - 5.0) * 2.0 / 10.0, (4.0 - 5.0) * 2.0 / 10.0, 2.0]])
    cloud = WallCloud(pt, [np.nan], [np.inf])
    out = project_to_thermal(cloud, RigidTransform3.identity(), INTRINSICS, ThermalImage(0, img))
    assert out.temperatures[0] == pytest.approx(33.0)


def test_project_to_thermal_closer_camera_wins():
    # Narrow grid so every point stays in view from both camera depths.
    cloud = _grid_cloud(z=2.0, extent=0.35)
    far = project_to_thermal(cloud, RigidTransform3.identity(), INTRINSICS, _flat_image(25.0))
    closer = RigidTransform3(np.eye(3), np.array([0.0, 0.0, -1.0]))
    both = project_to_thermal(far, closer, INTRINSICS, _flat_image(30.0))
    assert np.allclose(both.temperatures, 30.0)
    # A camera farther than the recorded source cannot overwrite.
    farther = RigidTransform3(np.eye(3), np.array([0.0, 0.0, 1.0]))
    after = project_to_thermal(both, farther, INTRINSICS, _flat_image(35.0))
    assert np.allclose(after.temperatures, 30.0)


def test_project_to_thermal_bilinear():
    img = np.full((11, 11), 20.0)
    img[:, 4:] = 30.0
    # u = 3.5: halfway between a 20-column and a 30-column.
    pt = np.array([[(3.5 - 5.0) * 2.0 / 10.0, 0.0, 2.0]])
    cloud = WallCloud(pt, [np.nan], [np.inf])
    image = ThermalImage(0, img)
    soft = project_to_thermal(cloud, RigidTransform3.identity(), INTRINSICS, image)
    assert soft.temperatures[0] == pytest.approx(25.0)


def test_project_to_thermal_cell_spread_gate():
    img = np.full((11, 11), 20.0)
    img[:, 6:] = 70.0
    image = ThermalImage(0, img)
    pts = np.array(
        [
            [(5.5 - 5.0) * 2.0 / 10.0, 0.0, 2.0],  # straddles the 50 degC edge
            [(2.0 - 5.0) * 2.0 / 10.0, 0.0, 2.0],  # clean interior pixel
        ]
    )
    cloud = WallCloud(pts, np.full(2, np.nan), np.full(2, np.inf))
    gated = project_to_thermal(cloud, RigidTransform3.identity(), INTRINSICS, image, max_cell_spread=10.0)
    assert np.isnan(gated.temperatures[0])
    assert gated.temperatures[1] == pytest.approx(20.0)
    ungated = project_to_thermal(cloud, RigidTransform3.identity(), INTRINSICS, image)
    assert np.isfinite(ungated.temperatures).all()


def test_project_to_thermal_rejects_size_mismatch():
    image = ThermalImage(0, np.full((5, 5), 20.0))
    with pytest.raises(ValueError):
        project_to_thermal(_grid_cloud(), RigidTransform3.identity(), INTRINSICS, image)


def test_thermal_image_validation():
    with pytest.raises(ValueError):
        ThermalImage(0, np.full((11, 11), 500.0))
    with pytest.raises(ValueError):
        ThermalImage(0, np.full((11, 11), np.nan))
    with pytest.raises(ValueError):
        ThermalImage(0, np.array([1.0, 2.0]))


def test_camera_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=10.0, cx=5.0, cy=5.0, width=11, height=11)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=10.0, fy=10.0, cx=5.0, cy=5.0, width=1, height=11)


# ---------------------------------------------------------------------------
# Cloud containers.


def test_wall_cloud_copy():
    cloud = WallCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [np.nan, 21.5], [np.inf, 2.0])
    dup = cloud.copy()
    dup.temperatures[1] = 99.0
    assert cloud.temperatures[1] == 21.5


def test_thermal_point_cloud_drop_unset():
    cloud = ThermalPointCloud(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [np.nan, 20.0, np.nan], session_stamp=9
    )
    kept = cloud.drop_unset()
    assert len(kept) == 1
    assert kept.temperatures[0] == 20.0
    assert kept.session_stamp == 9
    with pytest.raises(ValueError):
        ThermalPointCloud([[np.nan, 0.0, 0.0]], [20.0])


# ---------------------------------------------------------------------------
# Thinning and accumulation.


def test_voxel_thin_averages_and_keeps_unset_nan():
    positions = np.array(
        [
            [0.01, 0.01, 0.01],
            [0.03, 0.01, 0.01],
            [5.0, 5.0, 5.0],
        ]
    )
    temps = np.array([20.0, np.nan, np.nan])
    pos, out = voxel_thin(positions, temps, voxel_size=0.1)
    assert pos.shape == (2, 3)
    near = np.argmin(np.abs(pos[:, 0] - 0.02))
    assert np.allclose(pos[near], [0.02, 0.01, 0.01])
    # One member had a temperature, so the voxel reads it; the other voxel stays unset.
    assert out[near] == pytest.approx(20.0)
    assert np.isnan(out[1 - near])


def test_voxel_thin_is_order_insensitive():
    rng = np.random.default_rng(6)
    positions = rng.uniform(0, 1, (200, 3))
    temps = np.where(rng.uniform(size=200) < 0.7, rng.uniform(10, 30, 200), np.nan)
    perm = rng.permutation(200)
    pos_a, t_a = voxel_thin(positions, temps, 0.25)
    pos_b, t_b = voxel_thin(positions[perm], temps[perm], 0.25)
    assert np.allclose(pos_a, pos_b, atol=1e-12)
    assert np.allclose(t_a, t_b, atol=1e-12, equal_nan=True)


def _voxel_thin_rowwise(positions, temperatures, voxel_size):
    """Reference: voxel order from np.unique over the (x, y, z) index rows."""
    keys = np.floor(positions / voxel_size).astype(np.int64)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    k = uniq.shape[0]
    counts = np.bincount(inv, minlength=k).astype(float)
    pos = np.empty((k, 3))
    for axis in range(3):
        pos[:, axis] = np.bincount(inv, weights=positions[:, axis], minlength=k) / counts
    has_t = np.isfinite(temperatures)
    t_counts = np.bincount(inv[has_t], minlength=k).astype(float)
    t_sums = np.bincount(inv[has_t], weights=temperatures[has_t], minlength=k)
    with np.errstate(invalid="ignore"):
        temps = np.where(t_counts > 0, t_sums / np.maximum(t_counts, 1.0), np.nan)
    return pos, temps


@pytest.mark.parametrize("voxel_size", [0.05, 0.2, 0.25, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voxel_thin_matches_rowwise_reference_bit_for_bit(voxel_size, seed):
    rng = np.random.default_rng(seed)
    n = 4000
    positions = rng.uniform(-3.0, 2.0, (n, 3)) * [1.0, 1.5, 0.6]
    # A quarter of the points sit exactly on voxel faces, negative ones included.
    on_face = rng.uniform(size=n) < 0.25
    positions[on_face] = rng.integers(-20, 20, (int(on_face.sum()), 3)) * voxel_size
    temps = np.where(rng.uniform(size=n) < 0.3, np.nan, rng.uniform(10.0, 40.0, n))
    pos, t = voxel_thin(positions, temps, voxel_size)
    ref_pos, ref_t = _voxel_thin_rowwise(positions, temps, voxel_size)
    assert 1 < pos.shape[0] < n
    assert np.array_equal(pos, ref_pos)
    assert np.array_equal(t, ref_t, equal_nan=True)


def test_voxel_thin_empty_input_matches_reference():
    empty_p, empty_t = np.empty((0, 3)), np.empty(0)
    pos, t = voxel_thin(empty_p, empty_t, 0.05)
    ref_pos, ref_t = _voxel_thin_rowwise(empty_p, empty_t, 0.05)
    assert pos.shape == ref_pos.shape == (0, 3)
    assert t.shape == ref_t.shape == (0,)


def test_voxel_thin_rejects_key_range_beyond_int64():
    positions = np.array([[0.0, 0.0, 0.0], [1e17, 1e17, 1e17]])
    with pytest.raises(ValueError, match="int64"):
        voxel_thin(positions, np.array([20.0, 21.0]), voxel_size=1.0)


def test_accumulate_map_calls_voxel_thin_through_module(monkeypatch):
    # The benchmark's tracer times fusion by wrapping thermal_map.voxel_thin.
    calls = []
    original = thermal_map.voxel_thin

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(thermal_map, "voxel_thin", counting)
    calib = _calib(vertical_step=1.0)
    cloud = WallCloud([[1.0, 0.0, 0.0], [1.01, 0.0, 0.0]], [20.0, 22.0], [1.0, 1.0])
    out = accumulate_map([cloud], [PlanarPose()], calib, voxel_size=0.05)
    assert calls == [2]
    assert out.positions.shape == (1, 3)
    accumulate_map([cloud], [PlanarPose()], calib, voxel_size=None)
    assert calls == [2]


def test_accumulate_map_lifts_by_sensor_height():
    calib = _calib(vertical_step=1.0)
    cloud = WallCloud([[1.0, 0.0, -0.6], [1.0, 0.0, 0.4]], [20.0, 21.0], [1.0, 1.0])
    out = accumulate_map([cloud], [PlanarPose()], calib, voxel_size=None, session_stamp=5)
    assert out.session_stamp == 5
    # Identity node: floor-level points land at world z = 0.
    assert np.allclose(out.positions[:, 2], [0.0, 1.0])
    assert np.array_equal(out.temperatures, [20.0, 21.0])


def test_accumulate_map_applies_node_poses():
    calib = _calib(vertical_step=1.0)
    cloud = WallCloud([[1.0, 0.0, 0.0]], [20.0], [1.0])
    pose = PlanarPose(2.0, 1.0, math.pi / 2.0)
    out = accumulate_map([cloud], [pose], calib, voxel_size=None)
    assert np.allclose(out.positions[0], [2.0, 2.0, 0.6], atol=1e-12)


def test_accumulate_map_validation():
    calib = _calib(vertical_step=1.0)
    cloud = WallCloud([[1.0, 0.0, 0.0]], [20.0], [1.0])
    with pytest.raises(ValueError):
        accumulate_map([cloud], [], calib)
    with pytest.raises(ValueError):
        accumulate_map([], [], calib)
    with pytest.raises(ValueError):
        accumulate_map([cloud], [PlanarPose()], calib, voxel_size=0.0)

