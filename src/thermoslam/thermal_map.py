"""Wall extrusion, thermal colorization and fusion.

A keyframe's wall cloud is its projected 2D wall points as columns, each
standing at every extrusion height: columns x levels, kept as an (n, L)
grid of temperatures rather than as 3D rows. Clouds are colored in place
by projecting them into radiometric thermal frames through a pinhole
camera; a point keeps the reading from the closest camera that saw it. For
that rule the painter also updates an (n, L) grid of camera distances,
which belongs to the caller and lives only while the caller paints that
cloud. Fusion lifts every column into the world once and then voxel-thins
the map one height bin at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PlanarPose, RigidTransform3, Timestamp, planar_to_rigid3
from .scan_frontend import ProjectedScan

# A wall point takes a frame's reading only where its 2x2 interpolation
# cell spans at most max(CELL_SPREAD_FLOOR, CELL_SPREAD_NOISE_FACTOR *
# estimate_image_noise) degrees C; a wider cell straddles a depth edge.
CELL_SPREAD_FLOOR = 0.5
CELL_SPREAD_NOISE_FACTOR = 6.0

# Edge length (m) of the voxels the fused map is thinned to.
MAP_VOXEL_SIZE = 0.05


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: u = fx * x / z + cx, v = fy * y / z + cy."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be > 0")
        if self.width < 2 or self.height < 2:
            raise ValueError("image must be at least 2x2")


@dataclass(eq=False)
class ThermalImage:
    """Radiometric frame: pixels p that read scale * p + offset degrees C.

    The pixels are kept as given, so a frame loaded from 16-bit counts holds
    those counts; Celsius arrays take the default identity encoding. The
    decoded temperatures must be finite and inside the plausible radiometric
    interval (-40, 300) degC; ingest rejects anything else.
    """

    stamp: Timestamp
    pixels: np.ndarray
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        self.scale, self.offset = float(self.scale), float(self.offset)
        t = self.temperatures
        if t.ndim != 2 or t.shape[0] < 2 or t.shape[1] < 2:
            raise ValueError("thermal image must be 2D, at least 2x2")
        if not np.all(np.isfinite(t)):
            raise ValueError("thermal image has non-finite temperatures")
        if t.min() <= -40.0 or t.max() >= 300.0:
            raise ValueError("temperatures outside plausible range (-40, 300) degC")
        self.stamp = int(self.stamp)

    @property
    def temperatures(self) -> np.ndarray:
        """The pixels decoded to degrees C, as a new float array."""
        return np.asarray(self.pixels, dtype=float) * self.scale + self.offset

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _column_rows(points_xy: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """(n*L, 3) rows: column by column, the L levels inside each column."""
    n, levels = points_xy.shape[0], heights.size
    rows = np.empty((n * levels, 3))
    rows[:, 0] = np.repeat(points_xy[:, 0], levels)
    rows[:, 1] = np.repeat(points_xy[:, 1], levels)
    rows[:, 2] = np.tile(heights, n)
    return rows


@dataclass(eq=False)
class WallCloud:
    """Extruded wall of one scan: wall columns x levels, in its sensor frame.

    points holds the (n, 2) wall points; each stands as a column at all L
    heights (z relative to the sensor plane). temperatures is an (n, L)
    grid, entry [k, l] being column k at heights[l], NaN until a thermal
    frame sees the point.
    """

    points: np.ndarray
    heights: np.ndarray
    temperatures: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.points, dtype=float).reshape(-1, 2)
        h = np.asarray(self.heights, dtype=float).reshape(-1)
        t = np.asarray(self.temperatures, dtype=float).reshape(p.shape[0], h.size)
        if h.size == 0:
            raise ValueError("wall cloud needs at least one height")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(h))):
            raise ValueError("wall cloud points and heights must be finite")
        self.points, self.heights, self.temperatures = p, h, t

    def __len__(self) -> int:
        return self.temperatures.size

    def positions(self) -> np.ndarray:
        """The n*L wall points as (x, y, z) rows, levels inside each column."""
        return _column_rows(self.points, self.heights)


@dataclass(eq=False)
class ThermalPointCloud:
    """World-frame point cloud with per-point temperatures.

    session_stamp is the wall-clock capture time of the session that
    produced the map (0 when unknown). Unset temperatures are NaN and are
    dropped before any cross-session monitoring.
    """

    positions: np.ndarray
    temperatures: np.ndarray
    session_stamp: Timestamp = 0

    def __post_init__(self) -> None:
        p = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        t = np.asarray(self.temperatures, dtype=float).reshape(p.shape[0])
        if not np.all(np.isfinite(p)):
            raise ValueError("point cloud positions must be finite")
        self.positions, self.temperatures = p, t
        self.session_stamp = int(self.session_stamp)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def drop_unset(self) -> "ThermalPointCloud":
        keep = np.isfinite(self.temperatures)
        return ThermalPointCloud(self.positions[keep], self.temperatures[keep], self.session_stamp)


@dataclass(eq=False)
class Calibration:
    """The capture rig: thermal camera, its mounting, and the wall geometry.

    One record serves the simulator, calib.txt and the pipeline.
    camera_extrinsic maps the scanner (sensor) frame into the camera frame.
    sensor_height is the scanner's height above the floor, floor_height the
    wall (slab-to-slab) height and vertical_step the spacing of the
    extruded levels; construction requires 0 < sensor_height <
    floor_height and 0 < vertical_step <= floor_height. A raw thermal pixel
    p reads thermal_scale * p + thermal_offset degrees C.
    """

    intrinsics: CameraIntrinsics
    camera_extrinsic: RigidTransform3
    sensor_height: float
    floor_height: float
    vertical_step: float
    thermal_scale: float = 0.01
    thermal_offset: float = -100.0

    def __post_init__(self) -> None:
        if not 0.0 < self.sensor_height < self.floor_height:
            raise ValueError("need 0 < sensor_height < floor_height")
        if not 0.0 < self.vertical_step <= self.floor_height:
            raise ValueError("need 0 < vertical_step <= floor_height")

    def heights(self) -> np.ndarray:
        """Extrusion heights relative to the sensor plane (z = 0)."""
        levels = int(math.floor(self.floor_height / self.vertical_step + 1e-9)) + 1
        return -self.sensor_height + self.vertical_step * np.arange(levels)


def extrude_walls(scan: ProjectedScan, calib: Calibration) -> WallCloud:
    """Stand each projected wall point as a column at the calibration's heights.

    Heights run from floor level (-sensor_height below the sensor plane)
    up to floor_height - sensor_height, giving
    floor(floor_height / vertical_step) + 1 levels per column. The (x, y)
    of every source point is kept exactly, and every temperature starts
    unset.
    """
    zs = calib.heights()
    return WallCloud(scan.points_xy, zs, np.full((scan.points_xy.shape[0], zs.size), np.nan))


def estimate_image_noise(celsius: np.ndarray) -> float:
    """Robust per-pixel noise level of a decoded frame, from horizontal first differences.

    The median absolute difference ignores the few pixels that straddle
    scene edges, so smooth-but-warm scenes do not read as noisy.
    """
    d = np.diff(celsius, axis=1)
    return 1.4826 * float(np.median(np.abs(d))) / math.sqrt(2.0)


def _bilinear(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    h, w = image.shape
    x0 = np.clip(np.floor(u).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(v).astype(int), 0, h - 2)
    wx = np.clip(u - x0, 0.0, 1.0)
    wy = np.clip(v - y0, 0.0, 1.0)
    top = image[y0, x0] * (1.0 - wx) + image[y0, x0 + 1] * wx
    bot = image[y0 + 1, x0] * (1.0 - wx) + image[y0 + 1, x0 + 1] * wx
    return top * (1.0 - wy) + bot * wy


def _cell_spread(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max minus min over each sample's 2x2 interpolation cell."""
    h, w = image.shape
    x0 = np.clip(np.floor(u).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(v).astype(int), 0, h - 2)
    cell = np.stack([image[y0, x0], image[y0, x0 + 1], image[y0 + 1, x0], image[y0 + 1, x0 + 1]])
    return cell.max(axis=0) - cell.min(axis=0)


def project_to_thermal(
    cloud: WallCloud,
    distance: np.ndarray,
    camera_pose: RigidTransform3,
    intrinsics: CameraIntrinsics,
    image: ThermalImage,
) -> None:
    """Color, in place, the wall points that fall inside one thermal frame.

    distance is the caller's (n, L) grid beside cloud.temperatures: the
    camera distance of the frame that set each point, inf while unset.
    camera_pose maps cloud coordinates into the camera frame. A point is
    eligible when its camera-frame depth is strictly positive and its pixel
    lands inside the image; it takes the sampled temperature, and its
    distance entry this camera's distance, only if this camera is closer
    than the recorded one.

    Samples whose 2x2 interpolation cell spans more than
    max(CELL_SPREAD_FLOOR, CELL_SPREAD_NOISE_FACTOR * noise) degrees, noise
    being estimate_image_noise of this frame, are skipped: such pixels
    straddle a depth edge, where interpolation would blend temperatures of
    unrelated surfaces. Skipped points keep whatever an earlier frame
    assigned.
    """
    if image.width != intrinsics.width or image.height != intrinsics.height:
        raise ValueError("image size does not match intrinsics")
    if distance.shape != cloud.temperatures.shape:
        raise ValueError("distance grid does not match the cloud")
    cam = camera_pose.apply(cloud.positions())
    z = cam[:, 2]
    front = z > 1e-12
    u = np.full(len(cloud), -1.0)
    v = np.full(len(cloud), -1.0)
    u[front] = intrinsics.fx * cam[front, 0] / z[front] + intrinsics.cx
    v[front] = intrinsics.fy * cam[front, 1] / z[front] + intrinsics.cy
    visible = front & (u >= 0.0) & (u <= intrinsics.width - 1.0) & (v >= 0.0) & (v <= intrinsics.height - 1.0)
    to_camera = np.linalg.norm(cam, axis=1)
    take = np.flatnonzero(visible & (to_camera < distance.reshape(-1)))
    celsius = image.temperatures
    gate = max(CELL_SPREAD_FLOOR, CELL_SPREAD_NOISE_FACTOR * estimate_image_noise(celsius))
    take = take[_cell_spread(celsius, u[take], v[take]) <= gate]
    # Row k * L + l of cloud.positions() is entry [k, l] of both grids.
    entries = np.unravel_index(take, distance.shape)
    cloud.temperatures[entries] = _bilinear(celsius, u[take], v[take])
    distance[entries] = to_camera[take]


def voxel_thin(positions: np.ndarray, temperatures: np.ndarray, voxel_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Average points into a voxel grid; deterministic (sorted voxel keys).

    Voxels come out in lexicographic (x, y, z) order of their integer
    indices floor(position / voxel_size). Each point's index, shifted to
    the minimum over the cloud, is packed into one int64 key that rises
    with that order, so the box of voxel indices the cloud spans must hold
    fewer than 2**63 cells; a wider cloud raises ValueError.

    Voxel position is the mean of its member positions; voxel temperature
    is the mean of member temperatures that are set, NaN if none are.
    """
    if positions.shape[0] == 0:
        return np.empty((0, 3)), np.empty(0)
    keys = np.floor(positions / voxel_size).astype(np.int64)
    # Python ints, so neither the spans nor their product can wrap.
    low = keys.min(axis=0)
    span = [int(hi) - int(lo) + 1 for lo, hi in zip(low, keys.max(axis=0))]
    if span[0] * span[1] * span[2] >= 2**63:
        raise ValueError("voxel index range too large to pack into int64")
    keys -= low
    packed = (keys[:, 0] * span[1] + keys[:, 1]) * span[2] + keys[:, 2]
    uniq, inv = np.unique(packed, return_inverse=True)
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


def accumulate_map(
    clouds: list[WallCloud],
    poses: list[PlanarPose],
    calib: Calibration,
    session_stamp: Timestamp = 0,
) -> ThermalPointCloud:
    """Merge per-node wall clouds into one voxel-thinned world-frame thermal cloud.

    Each cloud is lifted by its node pose at the scanner height, so a node
    at the identity contributes its local cloud shifted up by
    sensor_height. The clouds must share their heights. Points follow node
    order, then column, then level.

    Positions and set temperatures are averaged per MAP_VOXEL_SIZE voxel as
    voxel_thin does over all points at once: voxels in (x, y, z) index
    order, members summed in point order. It runs voxel_thin on one z bin
    (the levels whose lifted height floors to one voxel index) at a time.
    Every column stands at every level, so each bin yields the same xy
    cells, and the bins' results interleave cell by cell.
    """
    if len(clouds) != len(poses):
        raise ValueError("clouds and poses length mismatch")
    if not clouds:
        raise ValueError("nothing to accumulate")
    heights = clouds[0].heights
    if any(not np.array_equal(cloud.heights, heights) for cloud in clouds):
        raise ValueError("clouds must share their heights")
    parts = []
    for cloud, pose in zip(clouds, poses):
        lift = planar_to_rigid3(pose, calib.sensor_height)
        # A column's xy only meets the rotation's xy block, and its lifted z
        # is height + sensor_height at every level.
        parts.append(cloud.points @ lift.rotation[:2, :2].T + lift.translation[:2])
    xy = np.vstack(parts)
    zs = heights + calib.sensor_height
    z_bins = np.floor(zs / MAP_VOXEL_SIZE)
    cells_p = []
    cells_t = []
    for z_bin in np.unique(z_bins):
        levels = np.flatnonzero(z_bins == z_bin)
        temperatures = np.concatenate([cloud.temperatures[:, levels].reshape(-1) for cloud in clouds])
        pos, temps = voxel_thin(_column_rows(xy, zs[levels]), temperatures, MAP_VOXEL_SIZE)
        cells_p.append(pos)
        cells_t.append(temps)
    positions = np.stack(cells_p, axis=1).reshape(-1, 3)
    return ThermalPointCloud(positions, np.stack(cells_t, axis=1).reshape(-1), session_stamp)
