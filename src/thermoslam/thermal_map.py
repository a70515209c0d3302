"""Wall extrusion, thermal colorization and fusion.

A keyframe's wall cloud is its projected 2D wall points as columns, each
standing at every extrusion height: columns x levels, kept as an (n, L)
grid of temperatures rather than as 3D rows. Clouds are colored in place
by projecting them into radiometric thermal frames through a pinhole
camera; a point keeps the reading from the closest camera that saw it. For
that rule the painter also updates an (n, L) grid of camera distances,
which belongs to the caller and lives only while the caller paints that
cloud. Fusion folds each painted cloud, at its node pose, into running
per-voxel sums (VoxelSums) as soon as it is painted, so no cloud has to
outlive its painting; the finished sums divide into the voxel-thinned map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import PlanarPose, RigidTransform3, Timestamp, planar_to_rigid3
from .scan_frontend import ProjectedScan

# A wall point takes a frame's reading only where its 2x2 interpolation
# cell spans at most max(CELL_SPREAD_FLOOR, CELL_SPREAD_NOISE_FACTOR *
# estimate_image_noise) degrees C; a wider cell straddles a depth edge.
CELL_SPREAD_FLOOR = 0.5
CELL_SPREAD_NOISE_FACTOR = 6.0

# Slack (px) of the painter's column cull: a column is skipped only when
# both its ends lie more than this far past the same image border (or behind
# the camera), so rounding cannot drop a point the frame sees.
PAINT_MARGIN_PX = 1.0

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


def decode_celsius(pixels: np.ndarray, scale: float, offset: float) -> np.ndarray:
    """pixels * scale + offset as a new float array of degrees C, checked.

    Raises ValueError unless the frame is 2D and at least 2x2, and every
    decoded temperature is finite and inside the plausible radiometric
    interval (-40, 300) degC.
    """
    t = np.asarray(pixels, dtype=float) * scale + offset
    if t.ndim != 2 or t.shape[0] < 2 or t.shape[1] < 2:
        raise ValueError("thermal image must be 2D, at least 2x2")
    if not np.all(np.isfinite(t)):
        raise ValueError("thermal image has non-finite temperatures")
    if t.min() <= -40.0 or t.max() >= 300.0:
        raise ValueError("temperatures outside plausible range (-40, 300) degC")
    return t


class ThermalFrame(Protocol):
    """What painting reads of a frame: its stamp, its size and its temperatures.

    ThermalImage holds its pixels in memory; a frame of a loaded session
    (cli_io.formats.PgmFrame) reads its file each time temperatures is used.
    """

    @property
    def stamp(self) -> Timestamp: ...

    @property
    def width(self) -> int: ...

    @property
    def height(self) -> int: ...

    @property
    def temperatures(self) -> np.ndarray: ...


@dataclass(eq=False)
class ThermalImage:
    """Radiometric frame in memory: pixels p that read scale * p + offset degrees C.

    The pixels are kept as given; Celsius arrays take the default identity
    encoding. The simulator makes these; a loaded session keeps its frames
    in their files instead (cli_io.formats.PgmFrame). The decoded
    temperatures must pass decode_celsius; ingest rejects anything else.
    """

    stamp: Timestamp
    pixels: np.ndarray
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        self.scale, self.offset = float(self.scale), float(self.offset)
        decode_celsius(self.pixels, self.scale, self.offset)
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
    p reads thermal_scale * p + thermal_offset degrees C, and construction
    requires a finite thermal_scale > 0.
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
        if not 0.0 < self.thermal_scale < math.inf:
            raise ValueError(f"need 0 < thermal_scale < inf, got {self.thermal_scale}")

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
    scene edges, so smooth-but-warm scenes do not read as noisy. The median
    comes from one partition at the middle: for an even count it is the
    mean of the largest value below the middle and the middle value, which
    for finite input is np.median's value, bit for bit.
    """
    d = np.abs(np.diff(celsius, axis=1)).reshape(-1)
    m = d.size // 2
    d.partition(m)
    middle = d[m] if d.size % 2 else (d[:m].max() + d[m]) / 2.0
    return 1.4826 * float(middle) / math.sqrt(2.0)


def _cell(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sample's 2x2 interpolation cell and the sample's offsets wx, wy inside it.

    The cell is a (4, k) array of corner values: top left, top right,
    bottom left, bottom right.
    """
    h, w = image.shape
    x0 = np.clip(np.floor(u).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(v).astype(int), 0, h - 2)
    corners = np.stack([image[y0, x0], image[y0, x0 + 1], image[y0 + 1, x0], image[y0 + 1, x0 + 1]])
    return corners, np.clip(u - x0, 0.0, 1.0), np.clip(v - y0, 0.0, 1.0)


def _bilinear(corners: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    top = corners[0] * (1.0 - wx) + corners[1] * wx
    bot = corners[2] * (1.0 - wx) + corners[3] * wx
    return top * (1.0 - wy) + bot * wy


def _seen_columns(cloud: WallCloud, camera_pose: RigidTransform3, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Indices of the columns that may hold a point inside the frame.

    A point at camera coordinates (x, y, z) can only be in the frame when
    z, fx*x + (cx + m)*z and (width - 1 + m - cx)*z - fx*x, and the two
    like forms in y, are all >= 0, m being PAINT_MARGIN_PX. Each form is
    linear in the point's cloud coordinates, so along a column it is
    negative at every level when it is negative at the lowest and the
    highest; such a column is skipped. The margin keeps rounding from
    dropping a point the frame sees.
    """
    k, m = intrinsics, PAINT_MARGIN_PX
    forms = np.array(
        [
            [0.0, 0.0, 1.0],
            [k.fx, 0.0, k.cx + m],
            [-k.fx, 0.0, k.width - 1.0 + m - k.cx],
            [0.0, k.fy, k.cy + m],
            [0.0, -k.fy, k.height - 1.0 + m - k.cy],
        ]
    )
    # The forms at cloud point p are forms @ (rotation @ p + translation).
    along = forms @ camera_pose.rotation
    base = cloud.points @ along[:, :2].T + forms @ camera_pose.translation
    low = base + cloud.heights.min() * along[:, 2]
    high = base + cloud.heights.max() * along[:, 2]
    return np.flatnonzero(~((low < 0.0) & (high < 0.0)).any(axis=1))


def project_to_thermal(
    cloud: WallCloud,
    distance: np.ndarray,
    camera_pose: RigidTransform3,
    intrinsics: CameraIntrinsics,
    image: ThermalFrame,
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

    Only the columns whose ends pass _seen_columns' cull are transformed
    and tested point by point, with the same expressions, so the result is
    the one of testing every point. Every frame's temperatures are read,
    and so checked, even when no column survives the cull; the noise level
    is estimated only when some point is eligible.
    """
    if image.width != intrinsics.width or image.height != intrinsics.height:
        raise ValueError("image size does not match intrinsics")
    if distance.shape != cloud.temperatures.shape:
        raise ValueError("distance grid does not match the cloud")
    celsius = image.temperatures
    columns = _seen_columns(cloud, camera_pose, intrinsics)
    cam = camera_pose.apply(_column_rows(cloud.points[columns], cloud.heights))
    z = cam[:, 2]
    front = z > 1e-12
    u = np.full(len(cam), -1.0)
    v = np.full(len(cam), -1.0)
    u[front] = intrinsics.fx * cam[front, 0] / z[front] + intrinsics.cx
    v[front] = intrinsics.fy * cam[front, 1] / z[front] + intrinsics.cy
    visible = front & (u >= 0.0) & (u <= intrinsics.width - 1.0) & (v >= 0.0) & (v <= intrinsics.height - 1.0)
    to_camera = np.linalg.norm(cam, axis=1)
    take = np.flatnonzero(visible & (to_camera < distance[columns].reshape(-1)))
    if take.size == 0:
        return
    gate = max(CELL_SPREAD_FLOOR, CELL_SPREAD_NOISE_FACTOR * estimate_image_noise(celsius))
    corners, wx, wy = _cell(celsius, u[take], v[take])
    clean = corners.max(axis=0) - corners.min(axis=0) <= gate
    take = take[clean]
    # Row j * L + l of the surviving rows is entry [columns[j], l] of both grids.
    entries = (columns[take // cloud.heights.size], take % cloud.heights.size)
    cloud.temperatures[entries] = _bilinear(corners[:, clean], wx[clean], wy[clean])
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
    return pos, _set_mean(t_sums, t_counts)


def _set_mean(t_sums: np.ndarray, t_counts: np.ndarray) -> np.ndarray:
    """Mean set temperature per voxel, NaN where no member is set."""
    with np.errstate(invalid="ignore"):
        return np.where(t_counts > 0, t_sums / np.maximum(t_counts, 1.0), np.nan)


class VoxelSums:
    """Running per-voxel sums of a fused map: accumulate_map adds to them, finish divides.

    Every column stands at every level, so a voxel is an xy cell (a column's
    floor(xy / MAP_VOXEL_SIZE)) times a z bin (the calibration's levels,
    lifted by sensor_height, whose heights floor to one voxel index). Each
    xy cell has a slot, opened when a cloud first reaches it. Per slot the
    sums count the columns that reached it; per slot and z bin they hold
    the x, y and z sums of the member points, the sum of their set
    temperatures and how many are set.
    """

    def __init__(self, calib: Calibration) -> None:
        self.heights = calib.heights()
        self.zs = self.heights + calib.sensor_height
        _, self.bin_of_level = np.unique(np.floor(self.zs / MAP_VOXEL_SIZE), return_inverse=True)
        self.levels_per_bin = np.bincount(self.bin_of_level)
        self.slots: dict[tuple[int, int], int] = {}
        self.columns = np.zeros(0, dtype=np.int64)
        # Rows x, y, z and set temperature; entry slot * bins + bin.
        self.sums = np.zeros((4, 0))
        self.set_counts = np.zeros(0, dtype=np.int64)

    def slots_of(self, cells: np.ndarray) -> np.ndarray:
        """Slot of each (x, y) cell index row, opening slots for new cells."""
        # One dict lookup per distinct cell: a 16-byte void view of each row
        # lets a 1D np.unique group them.
        distinct, inverse = np.unique(cells.view(np.dtype((np.void, 16))).ravel(), return_inverse=True)
        keys = map(tuple, distinct.view(np.int64).reshape(-1, 2).tolist())
        slots = np.array([self.slots.setdefault(key, len(self.slots)) for key in keys], dtype=np.int64)
        if len(self.slots) > self.columns.size:
            grow = max(len(self.slots), 2 * self.columns.size) - self.columns.size
            bins = self.levels_per_bin.size
            self.columns = np.concatenate([self.columns, np.zeros(grow, dtype=np.int64)])
            self.sums = np.concatenate([self.sums, np.zeros((4, grow * bins))], axis=1)
            self.set_counts = np.concatenate([self.set_counts, np.zeros(grow * bins, dtype=np.int64)])
        return slots[inverse]

    def finish(self, session_stamp: Timestamp = 0) -> ThermalPointCloud:
        """The fused map: voxels in (x, y, z) index order, averaged as voxel_thin does.

        Voxel position is the mean of its member positions; voxel
        temperature is the mean of member temperatures that are set, NaN if
        none are.
        """
        cells = np.array(list(self.slots), dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        k, bins = order.size, self.levels_per_bin.size
        sums = self.sums[:, : k * bins].reshape(4, k, bins)
        counts = (self.columns[order, None] * self.levels_per_bin).astype(float)
        positions = np.empty((k, bins, 3))
        for axis in range(3):
            positions[:, :, axis] = sums[axis, order] / counts
        temps = _set_mean(sums[3, order], self.set_counts[: k * bins].reshape(k, bins)[order].astype(float))
        return ThermalPointCloud(positions.reshape(-1, 3), temps.reshape(-1), session_stamp)


def accumulate_map(sums: VoxelSums, cloud: WallCloud, pose: PlanarPose) -> None:
    """Fold one painted keyframe cloud, at its node pose, into a map's running voxel sums.

    The cloud is lifted by its node pose at the scanner height, so a node
    at the identity contributes its local cloud shifted up by
    sensor_height. The cloud must have the calibration's heights.

    Each voxel's members are added one at a time, in point order (cloud,
    then column, then level), to sums that start at 0.0: the order in
    which voxel_thin sums them. So the finished map equals voxel_thin of
    every lifted point at MAP_VOXEL_SIZE, bit for bit, while only the
    cloud being folded has per-point arrays.
    """
    if not np.array_equal(cloud.heights, sums.heights):
        raise ValueError("cloud heights differ from the calibration's")
    lift = planar_to_rigid3(pose)
    # A column's xy only meets the rotation's xy block, and its lifted z
    # is height + sensor_height at every level.
    xy = cloud.points @ lift.rotation[:2, :2].T + lift.translation[:2]
    slots = sums.slots_of(np.floor(xy / MAP_VOXEL_SIZE).astype(np.int64))
    np.add.at(sums.columns, slots, 1)
    # Entry [k, l] is column k at level l, raveled in the grid's row-major order.
    voxel = (slots[:, None] * sums.levels_per_bin.size + sums.bin_of_level).reshape(-1)
    levels = sums.zs.size
    np.add.at(sums.sums[0], voxel, np.repeat(xy[:, 0], levels))
    np.add.at(sums.sums[1], voxel, np.repeat(xy[:, 1], levels))
    np.add.at(sums.sums[2], voxel, np.tile(sums.zs, xy.shape[0]))
    temperatures = cloud.temperatures.reshape(-1)
    has_t = np.isfinite(temperatures)
    np.add.at(sums.sums[3], voxel[has_t], temperatures[has_t])
    np.add.at(sums.set_counts, voxel[has_t], 1)
