from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import thermoslam.sim as sim
import thermoslam.thermal_map as thermal_map
from thermoslam import (
    Calibration,
    CameraIntrinsics,
    PlanarPose,
    RigidTransform3,
    ThermalImage,
    ThermalPointCloud,
    VoxelSums,
    WallCloud,
    accumulate_map,
    extrude_walls,
    project_to_thermal,
    voxel_thin,
)
from thermoslam.thermal_map import estimate_image_noise
from thermoslam.core import planar_to_rigid3
from thermoslam.scan_frontend import ProjectedScan

INTRINSICS = CameraIntrinsics(fx=10.0, fy=10.0, cx=5.0, cy=5.0, width=11, height=11)


# Camera at the origin looking along the sensor's +x: camera x = -y,
# camera y (image down) = -z, depth = x.
FACING = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


def _facing(depth_offset: float = 0.0) -> RigidTransform3:
    """FACING, with the camera depth_offset behind the origin (< 0: ahead)."""
    return RigidTransform3(FACING, np.array([0.0, 0.0, depth_offset]))


def _grid_cloud(depth: float = 2.0, n: int = 9, extent: float = 0.8) -> WallCloud:
    """An unset wall at x = depth facing the camera of _facing: n columns x n levels."""
    ys = np.linspace(-extent, extent, n)
    pts = np.column_stack([np.full(n, depth), ys])
    return WallCloud(pts, np.linspace(-extent, extent, n), np.full((n, n), np.nan))


def _paint(cloud: WallCloud, camera_pose: RigidTransform3, image: ThermalImage, distance=None) -> np.ndarray:
    """Paint cloud in place with one frame; returns the distance grid, new unless given."""
    if distance is None:
        distance = np.full(cloud.temperatures.shape, np.inf)
    project_to_thermal(cloud, distance, camera_pose, INTRINSICS, image)
    return distance


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
    assert np.array_equal(cloud.points, scan.points_xy)
    assert np.array_equal(cloud.heights, calib.heights())
    # Column k holds the k-th source point at every height, xy untouched.
    positions = cloud.positions()
    assert positions.shape == (3 * levels, 3)
    assert np.array_equal(positions[:levels, 0], np.full(levels, 1.25))
    assert np.array_equal(positions[:levels, 1], np.full(levels, -0.5))
    assert np.array_equal(positions[:levels, 2], calib.heights())
    assert np.array_equal(positions[levels : 2 * levels, :2], np.tile([2.0, 3.0], (levels, 1)))
    assert cloud.temperatures.shape == (3, levels)
    assert np.isnan(cloud.temperatures).all()


# ---------------------------------------------------------------------------
# Thermal projection.


def test_project_to_thermal_colors_visible_points():
    cloud = _grid_cloud()
    distance = _paint(cloud, _facing(), _flat_image(25.0))
    assert cloud.temperatures.shape == distance.shape == (9, 9)
    assert np.allclose(cloud.temperatures, 25.0)
    assert np.all(np.isfinite(distance))


def test_project_to_thermal_skips_points_behind_camera():
    cloud = _grid_cloud(depth=-2.0)
    distance = _paint(cloud, _facing(), _flat_image(25.0))
    assert np.isnan(cloud.temperatures).all()
    assert np.isposinf(distance).all()


def _ramp_image(du: float, dv: float) -> ThermalImage:
    """20 degC at pixel (0, 0), rising du per column and dv per row."""
    return ThermalImage(0, 20.0 + du * np.arange(11.0)[None, :] + dv * np.arange(11.0)[:, None])


def test_project_to_thermal_samples_expected_pixel():
    # Every pixel reads its own value, and each 2x2 cell spans 1.05 degC,
    # inside the 6.3 degC gate that the 1 degC column steps set.
    image = _ramp_image(1.0, 0.05)
    # x such that u = fx*x/z + cx lands exactly on pixel (u=7, v=4).
    # One column at that (x, y), one level at z = 2.
    pt = np.array([[(7.0 - 5.0) * 2.0 / 10.0, (4.0 - 5.0) * 2.0 / 10.0]])
    cloud = WallCloud(pt, [2.0], [[np.nan]])
    _paint(cloud, RigidTransform3.identity(), image)
    assert cloud.temperatures[0, 0] == pytest.approx(27.2)


def test_project_to_thermal_fills_column_level_grid():
    # Image rows run down the wall, so each level reads its own row; 0.1
    # degC per row keeps every cell inside the clean-frame gate.
    image = _ramp_image(0.0, 0.1)
    cloud = WallCloud([[2.0, 0.0], [2.0, -0.4]], [-0.4, 0.0, 0.4], np.full((2, 3), np.nan))
    distance = _paint(cloud, _facing(), image)
    # Height h lands on image row v = 5 - 5 h.
    assert np.allclose(cloud.temperatures, [[20.7, 20.5, 20.3], [20.7, 20.5, 20.3]])
    assert np.allclose(distance[0], np.hypot(2.0, [-0.4, 0.0, 0.4]))


def test_project_to_thermal_closer_camera_wins():
    # Narrow grid so every point stays in view from both camera depths.
    cloud = _grid_cloud(depth=2.0, extent=0.35)
    distance = _paint(cloud, _facing(), _flat_image(25.0))
    _paint(cloud, _facing(-1.0), _flat_image(30.0), distance)
    assert np.allclose(cloud.temperatures, 30.0)
    # A camera farther than the recorded source cannot overwrite.
    _paint(cloud, _facing(1.0), _flat_image(35.0), distance)
    assert np.allclose(cloud.temperatures, 30.0)


def test_project_to_thermal_bilinear():
    # (u, v) = (3.5, 5.5): the middle of a cell of a linear ramp.
    pt = np.array([[(3.5 - 5.0) * 2.0 / 10.0, (5.5 - 5.0) * 2.0 / 10.0]])
    cloud = WallCloud(pt, [2.0], [[np.nan]])
    _paint(cloud, RigidTransform3.identity(), _ramp_image(1.0, 0.5))
    assert cloud.temperatures[0, 0] == pytest.approx(20.0 + 3.5 + 0.5 * 5.5)


def test_project_to_thermal_cell_spread_gate():
    img = np.full((11, 11), 20.0)
    img[:, 6:] = 70.0
    image = ThermalImage(0, img)
    pts = np.array(
        [
            [(5.5 - 5.0) * 2.0 / 10.0, 0.0],  # straddles the 50 degC edge
            [(2.0 - 5.0) * 2.0 / 10.0, 0.0],  # clean interior pixel
        ]
    )
    cloud = WallCloud(pts, [2.0], np.full((2, 1), np.nan))
    distance = _paint(cloud, RigidTransform3.identity(), image)
    assert np.isnan(cloud.temperatures[0, 0]) and np.isposinf(distance[0, 0])
    assert cloud.temperatures[1, 0] == pytest.approx(20.0)


def test_project_to_thermal_gate_comes_from_the_frame():
    # The sample's cell holds 20 | 22 degC on both frames. On the clean
    # frame the gate is CELL_SPREAD_FLOOR and the 2 degC cell is skipped;
    # the noisy frame (sigma 1 degC) widens the gate past it.
    clean = np.full((11, 11), 20.0)
    clean[:, 6:] = 22.0
    noisy = clean + np.random.default_rng(4).normal(0.0, 1.0, clean.shape)
    noisy[5:7, 5:7] = clean[5:7, 5:7]
    assert estimate_image_noise(clean) == 0.0
    assert thermal_map.CELL_SPREAD_NOISE_FACTOR * estimate_image_noise(noisy) > 2.0
    pt = np.array([[(5.5 - 5.0) * 2.0 / 10.0, 0.0]])  # (u, v) = (5.5, 5)
    for pixels, expected in ((clean, np.nan), (noisy, 21.0)):
        cloud = WallCloud(pt, [2.0], [[np.nan]])
        _paint(cloud, RigidTransform3.identity(), ThermalImage(0, pixels))
        assert np.array_equal(cloud.temperatures, [[expected]], equal_nan=True)


# Shapes (rows, columns) give 2, 3, 4, 9, 25 and 19,080 differences: odd and
# even counts, down to a 2x2 frame, up to a frame of the simulator's size.
@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (3, 4), (5, 6), (120, 160)])
@pytest.mark.parametrize("values", ["quantized", "continuous"])
def test_estimate_image_noise_equals_the_full_median(shape, values):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for _ in range(200 if shape[0] < 100 else 20):
        if values == "quantized":
            # Raw counts near 20 degC at the session encoding: many ties.
            celsius = rng.integers(11_990, 12_010, shape) * 0.01 - 100.0
        else:
            celsius = rng.normal(25.0, rng.uniform(0.01, 5.0), shape)
        full = 1.4826 * np.median(np.abs(np.diff(celsius, axis=1))) / math.sqrt(2.0)
        assert estimate_image_noise(celsius) == full


def test_project_to_thermal_rejects_size_mismatch():
    image = ThermalImage(0, np.full((5, 5), 20.0))
    with pytest.raises(ValueError, match="intrinsics"):
        _paint(_grid_cloud(), _facing(), image)
    with pytest.raises(ValueError, match="distance grid"):
        project_to_thermal(_grid_cloud(), np.full((9, 8), np.inf), _facing(), INTRINSICS, _flat_image(25.0))


def test_thermal_image_validation():
    with pytest.raises(ValueError):
        ThermalImage(0, np.full((11, 11), 500.0))
    with pytest.raises(ValueError):
        ThermalImage(0, np.full((11, 11), np.nan))
    with pytest.raises(ValueError):
        ThermalImage(0, np.array([1.0, 2.0]))


@pytest.mark.parametrize("count", [5999, 40001])
def test_thermal_image_rejects_counts_outside_plausible_range(count):
    pixels = np.full((11, 11), 12000, dtype=np.uint16)
    pixels[3, 4] = count  # -40.01 or 300.01 degC
    with pytest.raises(ValueError, match=r"temperatures outside plausible range \(-40, 300\) degC"):
        ThermalImage(0, pixels, 0.01, -100.0)


def test_counts_and_decoded_floats_give_the_same_bits():
    rng = np.random.default_rng(17)
    for _ in range(5):
        counts = rng.integers(11500, 13500, (11, 11)).astype(np.uint16)  # 15..35 degC
        frame = ThermalImage(7, counts, 0.01, -100.0)
        floats = ThermalImage(7, frame.temperatures)
        pose = _facing(rng.uniform(-0.5, 0.5))
        from_counts, from_floats = _grid_cloud(), _grid_cloud()
        counts_distance = _paint(from_counts, pose, frame)
        floats_distance = _paint(from_floats, pose, floats)
        assert np.array_equal(from_counts.temperatures, from_floats.temperatures, equal_nan=True)
        assert np.array_equal(counts_distance, floats_distance)
        assert np.isfinite(from_counts.temperatures).any()


def test_camera_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=10.0, cx=5.0, cy=5.0, width=11, height=11)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=10.0, fy=10.0, cx=5.0, cy=5.0, width=1, height=11)


# ---------------------------------------------------------------------------
# Cloud containers.


def test_wall_cloud_validation():
    with pytest.raises(ValueError, match="height"):
        WallCloud([[1.0, 0.0]], [], np.empty((1, 0)))
    with pytest.raises(ValueError, match="finite"):
        WallCloud([[np.nan, 0.0]], [0.0], [[20.0]])
    with pytest.raises(ValueError):
        WallCloud([[1.0, 0.0]], [0.0, 1.0], [[20.0]])


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


def _fuse(clouds, poses, calib):
    """The map of clouds folded one at a time, at their poses."""
    sums = VoxelSums(calib)
    for cloud, pose in zip(clouds, poses):
        accumulate_map(sums, cloud, pose)
    return sums


def test_accumulate_map_lifts_by_sensor_height():
    calib = _calib(vertical_step=1.0)
    cloud = WallCloud([[1.0, 0.0]], calib.heights(), [[20.0, 21.0, np.nan, 22.0]])
    out = _fuse([cloud], [PlanarPose()], calib).finish(session_stamp=5)
    assert out.session_stamp == 5
    # Identity node: floor-level points land at world z = 0.
    assert np.allclose(out.positions, [[1.0, 0.0, z] for z in (0.0, 1.0, 2.0, 3.0)])
    assert np.array_equal(out.temperatures, [20.0, 21.0, np.nan, 22.0], equal_nan=True)


def test_accumulate_map_applies_node_poses():
    calib = _calib(vertical_step=1.0)
    cloud = WallCloud([[1.0, 0.0]], calib.heights(), np.full((1, 4), 20.0))
    pose = PlanarPose(2.0, 1.0, math.pi / 2.0)
    out = _fuse([cloud], [pose], calib).finish()
    assert np.allclose(out.positions[0], [2.0, 2.0, 0.0], atol=1e-12)


def test_accumulate_map_validation():
    calib = _calib(vertical_step=1.0)
    sums = VoxelSums(calib)
    other = WallCloud([[1.0, 0.0]], calib.heights() + 0.5, np.full((1, 4), 20.0))
    with pytest.raises(ValueError, match="heights"):
        accumulate_map(sums, other, PlanarPose())
    # Nothing folded, or only clouds without columns: an empty map.
    empty = sums.finish()
    assert empty.positions.shape == (0, 3) and empty.temperatures.shape == (0,)
    accumulate_map(sums, WallCloud(np.empty((0, 2)), calib.heights(), np.empty((0, 4))), PlanarPose())
    assert len(sums.finish()) == 0


# ---------------------------------------------------------------------------
# Column clouds against the point-by-point rows they replaced.


def _extrude_rows(points_xy, calib):
    """Reference: one (x, y, z) row per wall point, levels inside each column."""
    zs = calib.heights()
    n, levels = points_xy.shape[0], zs.size
    positions = np.empty((n * levels, 3))
    positions[:, 0] = np.repeat(points_xy[:, 0], levels)
    positions[:, 1] = np.repeat(points_xy[:, 1], levels)
    positions[:, 2] = np.tile(zs, n)
    return positions


def _accumulate_rows(rows, temperatures, poses, calib, voxel_size):
    """Reference: lift every row, stack all clouds, thin them in one call."""
    lifted = [planar_to_rigid3(pose, calib.sensor_height).apply(p) for p, pose in zip(rows, poses)]
    return voxel_thin(np.vstack(lifted), np.concatenate(temperatures), voxel_size)


def _project_rows(positions, temperatures, source_distance, camera_pose, image, intrinsics=INTRINSICS):
    """Reference: project_to_thermal on (x, y, z) rows, in place, every row tested.

    The noise median (np.median), the 2x2 cell, its spread and the
    bilinear sample are written out here, apart from the painter's helpers.
    """
    cam = camera_pose.apply(positions)
    z = cam[:, 2]
    front = z > 1e-12
    u = np.full(len(positions), -1.0)
    v = np.full(len(positions), -1.0)
    u[front] = intrinsics.fx * cam[front, 0] / z[front] + intrinsics.cx
    v[front] = intrinsics.fy * cam[front, 1] / z[front] + intrinsics.cy
    visible = front & (u >= 0.0) & (u <= intrinsics.width - 1.0) & (v >= 0.0) & (v <= intrinsics.height - 1.0)
    distance = np.linalg.norm(cam, axis=1)
    take = visible & (distance < source_distance)
    celsius = image.temperatures
    noise = 1.4826 * float(np.median(np.abs(np.diff(celsius, axis=1)))) / math.sqrt(2.0)
    gate = max(thermal_map.CELL_SPREAD_FLOOR, thermal_map.CELL_SPREAD_NOISE_FACTOR * noise)
    h, w = celsius.shape
    x0 = np.clip(np.floor(u[take]).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(v[take]).astype(int), 0, h - 2)
    cell = np.stack([celsius[y0, x0], celsius[y0, x0 + 1], celsius[y0 + 1, x0], celsius[y0 + 1, x0 + 1]])
    clean = cell.max(axis=0) - cell.min(axis=0) <= gate
    wx = np.clip(u[take] - x0, 0.0, 1.0)
    wy = np.clip(v[take] - y0, 0.0, 1.0)
    top = celsius[y0, x0] * (1.0 - wx) + celsius[y0, x0 + 1] * wx
    bot = celsius[y0 + 1, x0] * (1.0 - wx) + celsius[y0 + 1, x0 + 1] * wx
    rows = np.flatnonzero(take)[clean]
    temperatures[rows] = (top * (1.0 - wy) + bot * wy)[clean]
    source_distance[rows] = distance[rows]


def _random_pose(rng) -> PlanarPose:
    return PlanarPose(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-math.pi, math.pi))


def _random_scans(rng, count):
    """Scans of 0 to 80 points, with some points repeated and some on axes."""
    scans = []
    for _ in range(count):
        pts = rng.uniform(-4.0, 4.0, (int(rng.integers(0, 81)), 2))
        if len(pts) > 3:
            pts[1] = pts[0]
            pts[2, 0] = 0.0
        scans.append(ProjectedScan(0, pts))
    return scans


@pytest.mark.parametrize(
    ("sensor_height", "vertical_step", "voxel_size"),
    [
        (0.6, 0.1, 0.05),  # step above the voxel: one level per z bin
        (0.6, 0.05, 0.05),  # step equal to the voxel
        (0.6, 0.02, 0.05),  # step below the voxel: several levels per z bin
        (0.5, 0.25, 0.25),  # every lifted level sits exactly on a voxel face
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_fusion_matches_rows_bit_for_bit(sensor_height, vertical_step, voxel_size, seed, monkeypatch):
    monkeypatch.setattr(thermal_map, "MAP_VOXEL_SIZE", voxel_size)
    rng = np.random.default_rng(seed)
    calib = _calib(sensor_height=sensor_height, floor_height=1.0, vertical_step=vertical_step)
    scans = _random_scans(rng, 12)
    poses = [_random_pose(rng) for _ in scans]
    clouds = [extrude_walls(scan, calib) for scan in scans]
    for cloud in clouds:
        shape = cloud.temperatures.shape
        cloud.temperatures[...] = np.where(rng.uniform(size=shape) < 0.3, np.nan, rng.uniform(10.0, 40.0, shape))
    rows = [_extrude_rows(scan.points_xy, calib) for scan in scans]
    for cloud, row in zip(clouds, rows):
        assert np.array_equal(cloud.positions(), row)
    out = _fuse(clouds, poses, calib).finish()
    ref_p, ref_t = _accumulate_rows(rows, [c.temperatures.reshape(-1) for c in clouds], poses, calib, voxel_size)
    assert 1 < len(out) < sum(len(c) for c in clouds)
    assert np.array_equal(out.positions, ref_p)
    assert np.array_equal(out.temperatures, ref_t, equal_nan=True)


def _room_scan(rng, columns: int) -> tuple[ProjectedScan, PlanarPose]:
    """A scan of the walls of a 4 x 4 m room, in the frame of a random pose inside it."""
    along = rng.uniform(-2.0, 2.0, columns)
    side = rng.integers(0, 4, columns)
    # Sides 0 and 1 are the walls y = -2 and y = 2, sides 2 and 3 are x = -2 and x = 2.
    x = np.where(side < 2, along, 2.0 * np.sign(side - 2.5))
    y = np.where(side < 2, 2.0 * np.sign(side - 0.5), along)
    pose = PlanarPose(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
    rot = planar_to_rigid3(pose).rotation[:2, :2]
    return ProjectedScan(0, (np.column_stack([x, y]) - [pose.x, pose.y]) @ rot), pose


@pytest.mark.parametrize("case", ["empty-keyframes", "revisited-cells"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fusion_fold_matches_rows_across_keyframes(case, seed):
    rng = np.random.default_rng(seed)
    calib = _calib(sensor_height=0.6, floor_height=3.0, vertical_step=0.02)
    scans, poses = zip(*[_room_scan(rng, 120) for _ in range(8)])
    scans, poses = list(scans), list(poses)
    if case == "empty-keyframes":
        # Keyframes whose scans kept no wall point, first and in the middle.
        for at in (0, 4):
            scans.insert(at, ProjectedScan(0, np.empty((0, 2))))
            poses.insert(at, _random_pose(rng))
    clouds = [extrude_walls(scan, calib) for scan in scans]
    for cloud in clouds:
        shape = cloud.temperatures.shape
        cloud.temperatures[...] = np.where(rng.uniform(size=shape) < 0.3, np.nan, rng.uniform(10.0, 40.0, shape))
    cells = [
        {tuple(c) for c in np.floor(planar_to_rigid3(pose).apply(cloud.positions())[:, :2] / 0.05).astype(int)}
        for cloud, pose in zip(clouds, poses)
        if len(cloud)
    ]
    # Every keyframe with columns comes back to cells that earlier ones opened.
    assert len(cells) == 8
    assert all(cells[k] & set().union(*cells[:k]) for k in range(1, len(cells)))
    rows = [_extrude_rows(scan.points_xy, calib) for scan in scans]
    out = _fuse(clouds, poses, calib).finish()
    ref_p, ref_t = _accumulate_rows(rows, [c.temperatures.reshape(-1) for c in clouds], poses, calib, 0.05)
    assert np.array_equal(out.positions, ref_p)
    assert np.array_equal(out.temperatures, ref_t, equal_nan=True)


# noise: None paints clean frames, whose gate is CELL_SPREAD_FLOOR; 4.0 adds
# 4 degC noise, which widens each frame's gate in proportion.
@pytest.mark.parametrize("noise", [None, 4.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_projection_matches_rows_bit_for_bit(noise, seed):
    rng = np.random.default_rng(seed)
    calib = _calib(sensor_height=0.6, floor_height=3.0, vertical_step=0.1)
    scan = ProjectedScan(0, rng.uniform([0.5, -2.0], [4.0, 2.0], (60, 2)))
    cloud = extrude_walls(scan, calib)
    distance = np.full(cloud.temperatures.shape, np.inf)
    rows = _extrude_rows(scan.points_xy, calib)
    temps = cloud.temperatures.reshape(-1).copy()
    dists = distance.reshape(-1).copy()
    for _ in range(4):
        # Cameras near the scanner, looking roughly along +x.
        yaw = rng.uniform(-0.4, 0.4)
        facing = RigidTransform3(FACING, np.zeros(3)).compose(
            RigidTransform3(planar_to_rigid3(PlanarPose(theta=-yaw)).rotation, rng.uniform(-0.5, 0.5, 3))
        )
        # A gentle ramp with a 30 degC step at a random column: cells on the
        # step exceed either gate, the others pass the clean frames' gate.
        pixels = np.tile(20.0 + 0.05 * np.arange(11.0), (11, 1))
        pixels[:, rng.integers(2, 10) :] += 30.0
        if noise is not None:
            pixels += rng.normal(0.0, noise, pixels.shape)
        image = ThermalImage(0, pixels)
        project_to_thermal(cloud, distance, facing, INTRINSICS, image)
        _project_rows(rows, temps, dists, facing, image)
    assert np.isfinite(temps).any() and np.isnan(temps).any()
    assert np.array_equal(cloud.temperatures.reshape(-1), temps, equal_nan=True)
    assert np.array_equal(distance.reshape(-1), dists)


def _tilted_camera(position: np.ndarray, yaw: float, roll: float, pitch: float) -> RigidTransform3:
    """Cloud-to-camera transform of a camera at position, looking along yaw, rolled and pitched."""
    cr, sr, cp, sp = math.cos(roll), math.sin(roll), math.cos(pitch), math.sin(pitch)
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    about_y = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rotation = FACING @ (planar_to_rigid3(PlanarPose(theta=yaw)).rotation @ about_y @ about_x).T
    return RigidTransform3(rotation, -rotation @ position)


def _column_crossings(cloud: WallCloud, camera_pose: RigidTransform3, intrinsics: CameraIntrinsics) -> dict:
    """How many columns cross z = 0 and each image border between their lowest and highest level."""
    ends = np.array([cloud.heights.min(), cloud.heights.max()])
    cam = camera_pose.apply(thermal_map._column_rows(cloud.points, ends)).reshape(-1, 2, 3)
    z = cam[:, :, 2]
    ahead = (z > 0.0).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.fx * cam[:, :, 0] / z + intrinsics.cx
        v = intrinsics.fy * cam[:, :, 1] / z + intrinsics.cy

    def crosses(inside):
        return int(np.sum(ahead & (inside[:, 0] != inside[:, 1])))

    return {
        "z = 0": int(np.sum((z[:, 0] > 0.0) != (z[:, 1] > 0.0))),
        "left": crosses(u >= 0.0),
        "right": crosses(u <= intrinsics.width - 1.0),
        "top": crosses(v >= 0.0),
        "bottom": crosses(v <= intrinsics.height - 1.0),
    }


# noise as in test_column_projection_matches_rows_bit_for_bit.
@pytest.mark.parametrize("noise", [None, 4.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_culled_painter_matches_rows_at_every_yaw(noise, seed):
    # Frames of the simulator's size, cameras inside a 4 x 4 m room at 24
    # yaws round the circle, rolled and pitched up to 3 degrees; every other
    # camera stands within 1 cm of a column. Each column reaches from the
    # floor to the ceiling, so many cross the top or bottom border, and the
    # tilt makes columns cross the side borders and, beside the camera, the
    # z = 0 plane.
    intrinsics = sim.INTRINSICS
    rng = np.random.default_rng(seed)
    calib = _calib(sensor_height=0.6, floor_height=3.0, vertical_step=0.1)
    scan, _ = _room_scan(rng, 600)
    cloud = extrude_walls(scan, calib)
    distance = np.full(cloud.temperatures.shape, np.inf)
    rows = _extrude_rows(scan.points_xy, calib)
    temps = cloud.temperatures.reshape(-1).copy()
    dists = distance.reshape(-1).copy()
    crossings = dict.fromkeys(["z = 0", "left", "right", "top", "bottom"], 0)
    culled = 0
    for k, yaw in enumerate(np.linspace(-math.pi, math.pi, 24, endpoint=False) + rng.uniform(0.0, 0.26)):
        if k % 2:
            column = scan.points_xy[rng.integers(len(scan.points_xy))]
            bearing = rng.uniform(-math.pi, math.pi)
            xy = column + rng.uniform(0.002, 0.01) * np.array([math.cos(bearing), math.sin(bearing)])
        else:
            xy = rng.uniform(-1.5, 1.5, 2)
        tilt = np.radians(rng.uniform(-3.0, 3.0, 2))
        camera = _tilted_camera(np.array([*xy, rng.uniform(-0.3, 0.3)]), yaw, *tilt)
        pixels = np.tile(20.0 + 0.05 * np.arange(160.0), (120, 1))
        pixels[:, rng.integers(10, 150) :] += 30.0
        if noise is not None:
            pixels += rng.normal(0.0, noise, pixels.shape)
        image = ThermalImage(0, pixels)
        for name, count in _column_crossings(cloud, camera, intrinsics).items():
            crossings[name] += count
        culled += len(scan.points_xy) - thermal_map._seen_columns(cloud, camera, intrinsics).size
        project_to_thermal(cloud, distance, camera, intrinsics, image)
        _project_rows(rows, temps, dists, camera, image, intrinsics)
        assert np.array_equal(cloud.temperatures.reshape(-1), temps, equal_nan=True)
        assert np.array_equal(distance.reshape(-1), dists)
    assert all(count > 0 for count in crossings.values()), crossings
    assert 0 < culled < 24 * len(scan.points_xy)
    assert np.isfinite(temps).any() and np.isnan(temps).any()


def test_accumulate_map_peak_memory_holds_one_keyframe():
    # 100 keyframes x 240 columns x 31 levels around one 4 x 4 m room, as
    # the clouds of a session revisit the same walls; each is built,
    # painted, folded and dropped in turn, as run_mapping does.
    rng = np.random.default_rng(12)
    calib = _calib(sensor_height=0.6, floor_height=3.0, vertical_step=0.1)
    grid_bytes = 0
    tracemalloc.start()
    try:
        sums = VoxelSums(calib)
        for _ in range(100):
            scan, pose = _room_scan(rng, 240)
            cloud = extrude_walls(scan, calib)
            cloud.temperatures[...] = rng.uniform(10.0, 30.0, cloud.temperatures.shape)
            grid_bytes += cloud.temperatures.nbytes
            accumulate_map(sums, cloud, pose)
            del cloud
        out = sums.finish()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) < 100 * 240 * 31 // 10
    # The voxel sums, the map and one keyframe's per-point arrays, not
    # every keyframe's temperature grid.
    assert peak < grid_bytes / 2
