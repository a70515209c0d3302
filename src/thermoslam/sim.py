"""Synthetic construction-site simulator.

Generates range scans, IMU gravity samples, and radiometric thermal frames
for a site made of vertical wall segments with an analytic temperature
field, along with ground truth for every derived quantity. Scan raycasting
and thermal rendering share one ray-segment intersection routine so the two
sensors see exactly the same geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    ImuSample,
    PlanarPose,
    RigidTransform3,
    Scan2D,
    Timestamp,
    Vec3,
    rotation_about_z,
    wrap_angle,
)
from .thermal_map import Calibration, CameraIntrinsics, ThermalImage

GRAVITY = 9.80665

# Temperature field: callable (x, y, z, wall_id) -> degC, vectorized over
# equal-length arrays. wall_id is -1 for off-wall queries (ambient haze).
TemperatureField = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class SimulationError(ValueError):
    """Raised for physically impossible simulator setups."""


@dataclass(frozen=True)
class WallSegment:
    """Vertical wall over a 2D segment, spanning z in [0, height]."""

    x1: float
    y1: float
    x2: float
    y2: float
    height: float

    def __post_init__(self) -> None:
        if math.hypot(self.x2 - self.x1, self.y2 - self.y1) < 1e-9:
            raise ValueError("degenerate wall segment")
        if self.height <= 0.0:
            raise ValueError("wall height must be > 0")


@dataclass(eq=False)
class SiteModel:
    """Walls plus an analytic temperature field."""

    walls: list[WallSegment]
    temperature_field: TemperatureField
    floor_height: float
    ambient_c: float = 15.0

    def __post_init__(self) -> None:
        if not self.walls:
            raise ValueError("site needs at least one wall")
        if self.floor_height <= 0.0:
            raise ValueError("floor_height must be > 0")
        self._p1 = np.array([[w.x1, w.y1] for w in self.walls])
        self._p2 = np.array([[w.x2, w.y2] for w in self.walls])
        self._heights = np.array([w.height for w in self.walls])

    def sample_temperature(self, points: np.ndarray, wall_ids: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.temperature_field(pts[:, 0], pts[:, 1], pts[:, 2], np.asarray(wall_ids))

    def distance_to_walls(self, points_xy: np.ndarray) -> np.ndarray:
        """Distance from each 2D point to the nearest wall segment."""
        pts = np.atleast_2d(np.asarray(points_xy, dtype=float))[:, None, :]
        seg = self._p2 - self._p1  # (S, 2)
        rel = pts - self._p1[None, :, :]  # (N, S, 2)
        seg_len2 = np.einsum("sk,sk->s", seg, seg)
        t = np.clip(np.einsum("nsk,sk->ns", rel, seg) / seg_len2, 0.0, 1.0)
        closest = self._p1[None, :, :] + t[:, :, None] * seg[None, :, :]
        d = np.linalg.norm(pts - closest, axis=2)
        return d.min(axis=1)


def intersect_rays(site: SiteModel, origins: np.ndarray, directions: np.ndarray):
    """Nearest wall hit for each 3D ray.

    origins is (R, 3) or a single (1, 3) origin shared by every ray;
    directions must be unit length. The returned distances are true 3D ray
    parameters. Returns (distances, hit_points, wall_ids); misses carry
    distance inf, NaN hit points and wall_id -1. Where two walls are hit at
    exactly the same distance (a corner), the lower wall index wins. Walls
    are visited one at a time, so working memory is O(rays), not
    O(rays x walls).
    """
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    ox, oy, oz = o[:, 0], o[:, 1], o[:, 2]
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    n = max(len(o), len(d))
    dist = np.full(n, np.inf)
    wall = np.full(n, -1, dtype=np.intp)

    # Solve o_xy + t * d_xy = p1 + s * e for every ray against segment k.
    for k, ((x1, y1), (ex, ey), top) in enumerate(zip(site._p1, site._p2 - site._p1, site._heights + 1e-12)):
        rel_x = x1 - ox
        rel_y = y1 - oy
        denom = dx * ey - dy * ex
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rel_x * ey - rel_y * ex) / denom
            s = (rel_x * dy - rel_y * dx) / denom
            z_hit = oz + t * dz
        # Strict < keeps the first (lowest-index) wall on a tie.
        closer = (
            (np.abs(denom) > 1e-15)
            & (t > 1e-9)
            & (s >= 0.0)
            & (s <= 1.0)
            & (z_hit >= -1e-12)
            & (z_hit <= top)
            & (t < dist)
        )
        dist[closer] = t[closer]
        wall[closer] = k
    # inf * 0 in the miss rows would warn; they are overwritten anyway.
    with np.errstate(invalid="ignore"):
        hits = o + dist[:, None] * d
    hits[~np.isfinite(dist)] = np.nan
    return dist, hits, wall


def raycast_scan(
    site: SiteModel,
    sensor_pose: RigidTransform3,
    beam_count: int = 240,
    fov: float = 2.0 * math.pi,
    range_max: float = 15.0,
    stamp: Timestamp = 0,
    noise: "NoiseSpec | None" = None,
    rng: np.random.Generator | None = None,
) -> Scan2D:
    """Simulate one 2D scan from a sensor placed in the world.

    sensor_pose maps sensor coordinates into the world. Beams sweep the
    sensor xy-plane starting at -fov/2 with increment fov/beam_count.
    Beams beyond range_max report NaN.
    """
    if beam_count < 2:
        raise SimulationError("need at least 2 beams")
    origin_xy = sensor_pose.translation[:2]
    if site.distance_to_walls(origin_xy[None, :])[0] < 1e-6:
        raise SimulationError("scan sensor placed on a wall")
    increment = fov / beam_count
    angles = -0.5 * fov + increment * np.arange(beam_count)
    dirs_sensor = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(beam_count)])
    dirs_world = dirs_sensor @ sensor_pose.rotation.T
    origins = np.repeat(sensor_pose.translation[None, :], beam_count, axis=0)
    dist, _, _ = intersect_rays(site, origins, dirs_world)
    ranges = np.where(dist <= range_max, dist, np.nan)
    if noise is not None and rng is not None:
        if noise.range_sigma > 0.0:
            ranges = ranges + noise.range_sigma * rng.standard_normal(beam_count)
        if noise.range_dropout_prob > 0.0:
            drop = rng.random(beam_count) < noise.range_dropout_prob
            ranges = np.where(drop, np.nan, ranges)
        ranges = np.where(np.isfinite(ranges), np.maximum(ranges, 1e-6), ranges)
    return Scan2D(stamp, float(angles[0]), float(increment), ranges)


def render_thermal(
    site: SiteModel,
    camera_pose: RigidTransform3,
    intrinsics: CameraIntrinsics,
    noise: "NoiseSpec | None" = None,
    rng: np.random.Generator | None = None,
    stamp: Timestamp = 0,
) -> ThermalImage:
    """Render a radiometric frame through a pinhole camera.

    camera_pose maps world points into the camera frame (the same
    convention project_to_thermal consumes). Pixels whose rays miss every
    wall read the site ambient temperature; haze blends wall readings
    toward ambient.
    """
    w, h = intrinsics.width, intrinsics.height
    cam_to_world = camera_pose.inverse()
    u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    rays_cam = np.column_stack(
        [
            ((u - intrinsics.cx) / intrinsics.fx).ravel(),
            ((v - intrinsics.cy) / intrinsics.fy).ravel(),
            np.ones(w * h),
        ]
    )
    rays_cam /= np.linalg.norm(rays_cam, axis=1, keepdims=True)
    rays_world = rays_cam @ cam_to_world.rotation.T
    origins = np.repeat(cam_to_world.translation[None, :], w * h, axis=0)
    dist, hits, wall = intersect_rays(site, origins, rays_world)
    hit_mask = np.isfinite(dist)
    temps = np.full(w * h, site.ambient_c)
    if np.any(hit_mask):
        temps[hit_mask] = site.sample_temperature(hits[hit_mask], wall[hit_mask])
    haze = float(noise.haze_attenuation) if noise is not None else 0.0
    if haze > 0.0:
        temps = (1.0 - haze) * temps + haze * site.ambient_c
        temps[~hit_mask] = site.ambient_c
    if noise is not None and rng is not None and noise.thermal_noise_sigma > 0.0:
        temps = temps + noise.thermal_noise_sigma * rng.standard_normal(w * h)
    temps = np.clip(temps, -39.0, 299.0)
    return ThermalImage(stamp, temps.reshape(h, w))


# ---------------------------------------------------------------------------
# Temperature field presets. All are closed-form so tests can evaluate the
# exact expected value at any wall location.


def uniform_field(value: float) -> TemperatureField:
    def field_fn(x, y, z, wall_id):
        return np.full_like(np.asarray(x, dtype=float), value)

    return field_fn


def linear_field(base: float, gx: float = 0.0, gy: float = 0.0, gz: float = 0.0) -> TemperatureField:
    """T = base + gx*x + gy*y + gz*z. Linear fields commute with averaging."""

    def field_fn(x, y, z, wall_id):
        return base + gx * np.asarray(x, dtype=float) + gy * np.asarray(y) + gz * np.asarray(z)

    return field_fn


def sine_field(base: float, amp: float, kx: float, ky: float, gz: float = 0.0) -> TemperatureField:
    def field_fn(x, y, z, wall_id):
        return base + amp * np.sin(kx * np.asarray(x, dtype=float) + ky * np.asarray(y)) + gz * np.asarray(z)

    return field_fn


def sunlit_field(walls: Sequence[WallSegment], warm: float, cool: float, sun_direction_rad: float) -> TemperatureField:
    """Warm walls facing the sun, cool walls in shade.

    Per-wall constant temperature from the wall normal's agreement with the
    sun direction; off-wall queries read the average.
    """
    normals = []
    for w in walls:
        d = np.array([w.x2 - w.x1, w.y2 - w.y1])
        n = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        normals.append(n)
    normals_arr = np.array(normals)
    sun = np.array([math.cos(sun_direction_rad), math.sin(sun_direction_rad)])
    # Walls are visible from both sides, so use the unsigned agreement.
    facing = np.abs(normals_arr @ sun)
    per_wall = cool + (warm - cool) * facing

    def field_fn(x, y, z, wall_id):
        ids = np.asarray(wall_id, dtype=int)
        out = np.full(ids.shape, 0.5 * (warm + cool))
        on_wall = ids >= 0
        out[on_wall] = per_wall[ids[on_wall]]
        return out

    return field_fn


FIELD_KINDS = {
    "uniform": uniform_field,
    "linear": linear_field,
    "sine": sine_field,
}


def field_from_config(config: dict, walls: Sequence[WallSegment]) -> TemperatureField:
    """Build a field from a plain dict, e.g. {"kind": "linear", "base": 22}."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind == "sunlit":
        return sunlit_field(walls, **cfg)
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown temperature field kind: {kind!r}")
    return FIELD_KINDS[kind](**cfg)


# ---------------------------------------------------------------------------
# Bundled sites.


def two_room_site(field_config: dict | None = None, floor_height: float = 3.0) -> SiteModel:
    """Reference site: two rooms joined by a doorway in the divider wall.

    Outer shell 7 x 3 m, divider at x = 4 with the door gap at y in
    [1.6, 2.6], plus a short stub wall in the left room that breaks the
    layout's symmetry.
    """
    h = floor_height
    walls = [
        WallSegment(0.0, 0.0, 7.0, 0.0, h),
        WallSegment(7.0, 0.0, 7.0, 3.0, h),
        WallSegment(7.0, 3.0, 0.0, 3.0, h),
        WallSegment(0.0, 3.0, 0.0, 0.0, h),
        WallSegment(4.0, 0.0, 4.0, 1.6, h),
        WallSegment(4.0, 2.6, 4.0, 3.0, h),
        WallSegment(1.8, 0.0, 1.8, 0.7, h),
    ]
    cfg = field_config if field_config is not None else {"kind": "linear", "base": 22.0, "gx": 1.1, "gy": -0.6, "gz": 1.4}
    return SiteModel(walls, field_from_config(cfg, walls), floor_height=h, ambient_c=15.0)


def rectangle_site(
    width: float = 4.0,
    depth: float = 4.0,
    field_config: dict | None = None,
    floor_height: float = 3.0,
) -> SiteModel:
    """A single rectangular room with its corner at the origin."""
    h = floor_height
    walls = [
        WallSegment(0.0, 0.0, width, 0.0, h),
        WallSegment(width, 0.0, width, depth, h),
        WallSegment(width, depth, 0.0, depth, h),
        WallSegment(0.0, depth, 0.0, 0.0, h),
    ]
    cfg = field_config if field_config is not None else {"kind": "uniform", "value": 20.0}
    return SiteModel(walls, field_from_config(cfg, walls), floor_height=h, ambient_c=15.0)


SITE_PRESETS = {
    "two_room": two_room_site,
    "rectangle": rectangle_site,
}


# ---------------------------------------------------------------------------
# Trajectories.


@dataclass(frozen=True)
class TrajectorySpec:
    """Piecewise-linear tour of 2D waypoints at constant speed.

    The platform translates at `speed` along each leg with heading locked
    to the leg direction, rotates in place at `turn_rate` between legs, and
    dwells `hold_s` seconds at the final waypoint. Sensor clocks start at
    t = 0 and sample the half-open interval [0, duration).
    """

    waypoints: tuple[tuple[float, float], ...]
    speed: float = 0.2
    scan_rate: float = 10.0
    imu_rate: float = 100.0
    thermal_rate: float = 5.0
    turn_rate: float = math.radians(45.0)
    hold_s: float = 0.0

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        if self.speed <= 0.0 or self.turn_rate <= 0.0:
            raise ValueError("speed and turn_rate must be > 0")
        if min(self.scan_rate, self.imu_rate, self.thermal_rate) <= 0.0:
            raise ValueError("sensor rates must be > 0")
        if self.imu_rate < self.scan_rate:
            raise ValueError("IMU rate must be at least the scan rate")
        object.__setattr__(self, "waypoints", tuple((float(x), float(y)) for x, y in self.waypoints))


@dataclass(frozen=True)
class _Phase:
    t0: float
    t1: float
    kind: str  # "move", "turn", or "hold"
    x: float
    y: float
    heading: float
    vx: float = 0.0
    vy: float = 0.0
    spin: float = 0.0


class Timeline:
    """Ground-truth planar pose as a function of time for a TrajectorySpec."""

    def __init__(self, traj: TrajectorySpec):
        wp = [np.array(p) for p in traj.waypoints]
        phases: list[_Phase] = []
        t = 0.0
        if len(wp) == 1:
            heading = 0.0
            pos = wp[0]
        else:
            legs = [(wp[i], wp[i + 1]) for i in range(len(wp) - 1)]
            first = legs[0][1] - legs[0][0]
            heading = math.atan2(first[1], first[0])
            pos = wp[0]
            for a, b in legs:
                d = b - a
                length = float(np.linalg.norm(d))
                if length < 1e-12:
                    continue
                new_heading = math.atan2(d[1], d[0])
                dtheta = wrap_angle(new_heading - heading)
                if abs(dtheta) > 1e-12:
                    dur = abs(dtheta) / traj.turn_rate
                    phases.append(_Phase(t, t + dur, "turn", pos[0], pos[1], heading, spin=math.copysign(traj.turn_rate, dtheta)))
                    t += dur
                    heading = new_heading
                dur = length / traj.speed
                v = d / length * traj.speed
                phases.append(_Phase(t, t + dur, "move", a[0], a[1], heading, vx=v[0], vy=v[1]))
                t += dur
                pos = b
        if traj.hold_s > 0.0 or not phases:
            phases.append(_Phase(t, t + traj.hold_s, "hold", pos[0], pos[1], heading))
            t += traj.hold_s
        self.phases = phases
        self.duration = t
        self._starts = np.array([p.t0 for p in phases])

    def pose_at(self, t: float) -> PlanarPose:
        if not self.phases or self.duration <= 0.0:
            raise SimulationError("trajectory has zero duration (set hold_s for a stationary session)")
        t = min(max(t, 0.0), self.duration)
        i = int(np.searchsorted(self._starts, t, side="right") - 1)
        i = max(0, min(i, len(self.phases) - 1))
        ph = self.phases[i]
        dt = t - ph.t0
        if ph.kind == "move":
            return PlanarPose(ph.x + ph.vx * dt, ph.y + ph.vy * dt, ph.heading)
        if ph.kind == "turn":
            return PlanarPose(ph.x, ph.y, ph.heading + ph.spin * dt)
        return PlanarPose(ph.x, ph.y, ph.heading)


# ---------------------------------------------------------------------------
# Noise and the sensor rig.


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor corruption levels; the default is a noiseless run."""

    range_sigma: float = 0.0
    range_dropout_prob: float = 0.0
    gravity_tilt_sigma: float = 0.0  # radians of platform roll/pitch
    accel_noise_sigma: float = 0.0  # m/s^2 per axis
    thermal_noise_sigma: float = 0.0  # degC per pixel
    haze_attenuation: float = 0.0  # 0 = clear air, 1 = fully ambient

    def __post_init__(self) -> None:
        for name in ("range_sigma", "gravity_tilt_sigma", "accel_noise_sigma", "thermal_noise_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.range_dropout_prob <= 1.0:
            raise ValueError("range_dropout_prob must be in [0, 1]")
        if not 0.0 <= self.haze_attenuation <= 1.0:
            raise ValueError("haze_attenuation must be in [0, 1]")


def default_camera_extrinsic(dz: float = 0.15) -> RigidTransform3:
    """Sensor-to-camera transform for a camera mounted dz above the scanner.

    The camera looks along sensor +x with x right and y down; its center
    shares the scanner's xy position so every scanned wall footprint stays
    visible to the camera.
    """
    rot = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    return RigidTransform3(rot, rot @ np.array([0.0, 0.0, -dz]))


@dataclass(eq=False)
class SensorRig:
    """Scanner/IMU/camera mounting and resolution parameters."""

    beam_count: int = 240
    fov: float = 2.0 * math.pi
    range_max: float = 15.0
    sensor_height: float = 0.6
    vertical_step: float = 0.1
    intrinsics: CameraIntrinsics = field(
        default_factory=lambda: CameraIntrinsics(fx=140.0, fy=140.0, cx=79.5, cy=59.5, width=160, height=120)
    )
    camera_extrinsic: RigidTransform3 = field(default_factory=default_camera_extrinsic)
    thermal_scale: float = 0.01
    thermal_offset: float = -100.0


@dataclass(eq=False)
class SessionDataset:
    """In-memory capture session; cli_io owns the on-disk layout."""

    scans: list[Scan2D]
    imu: list[ImuSample]
    frames: list[ThermalImage]
    calib: Calibration
    ground_truth: list[tuple[Timestamp, PlanarPose]] | None = None
    site: SiteModel | None = None


def _tilt_series(n: int, sigma: float, rate: float, rng: np.random.Generator, tau: float = 2.0) -> np.ndarray:
    """Stationary Ornstein-Uhlenbeck roll/pitch series, shape (n, 2)."""
    out = np.zeros((n, 2))
    if sigma <= 0.0 or n == 0:
        return out
    a = math.exp(-1.0 / (rate * tau))
    b = sigma * math.sqrt(1.0 - a * a)
    out[0] = sigma * rng.standard_normal(2)
    noise = rng.standard_normal((n, 2))
    for i in range(1, n):
        out[i] = a * out[i - 1] + b * noise[i]
    return out


def _attitude(yaw: float, roll: float, pitch: float) -> np.ndarray:
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return rotation_about_z(yaw) @ ry @ rx


def _validate_path(site: SiteModel, traj: TrajectorySpec) -> None:
    wp = np.array(traj.waypoints)
    if np.any(site.distance_to_walls(wp) < 1e-3):
        raise SimulationError("trajectory waypoint lies on a wall")
    for i in range(len(wp) - 1):
        a, b = wp[i], wp[i + 1]
        d = b - a
        for w, (p1, p2) in enumerate(zip(site._p1, site._p2)):
            e = p2 - p1
            denom = d[0] * e[1] - d[1] * e[0]
            if abs(denom) < 1e-15:
                continue
            rel = p1 - a
            t = (rel[0] * e[1] - rel[1] * e[0]) / denom
            s = (rel[0] * d[1] - rel[1] * d[0]) / denom
            if -1e-9 <= t <= 1.0 + 1e-9 and -1e-9 <= s <= 1.0 + 1e-9:
                raise SimulationError(f"trajectory leg {i} crosses wall {w}")


def _sample_times(duration: float, rate: float) -> np.ndarray:
    n = int(math.ceil(duration * rate - 1e-9))
    return np.arange(n) / rate


def simulate_session(
    site: SiteModel,
    traj: TrajectorySpec,
    noise: NoiseSpec,
    seed: int,
    rig: SensorRig | None = None,
) -> SessionDataset:
    """Run a full capture session; byte-identical for identical seeds."""
    rig = rig if rig is not None else SensorRig()
    _validate_path(site, traj)
    timeline = Timeline(traj)
    if timeline.duration <= 0.0:
        raise SimulationError("trajectory has zero duration (set hold_s for a stationary session)")

    scan_rng, imu_rng, thermal_rng, tilt_rng = [
        np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(4)
    ]

    imu_times = _sample_times(timeline.duration, traj.imu_rate)
    tilt = _tilt_series(len(imu_times), noise.gravity_tilt_sigma, traj.imu_rate, tilt_rng)

    def tilt_at(t: float) -> tuple[float, float]:
        if len(imu_times) == 0:
            return 0.0, 0.0
        i = min(max(int(round(t * traj.imu_rate)), 0), len(imu_times) - 1)
        return float(tilt[i, 0]), float(tilt[i, 1])

    def sensor_pose_at(t: float) -> tuple[PlanarPose, RigidTransform3]:
        planar = timeline.pose_at(t)
        roll, pitch = tilt_at(t)
        rot = _attitude(planar.theta, roll, pitch)
        return planar, RigidTransform3(rot, np.array([planar.x, planar.y, rig.sensor_height]))

    scans: list[Scan2D] = []
    ground_truth: list[tuple[Timestamp, PlanarPose]] = []
    for t in _sample_times(timeline.duration, traj.scan_rate):
        stamp = int(round(t * 1e9))
        planar, pose3 = sensor_pose_at(t)
        scans.append(
            raycast_scan(site, pose3, rig.beam_count, rig.fov, rig.range_max, stamp=stamp, noise=noise, rng=scan_rng)
        )
        ground_truth.append((stamp, planar))

    gravity_world = np.array([0.0, 0.0, -GRAVITY])
    imu: list[ImuSample] = []
    for i, t in enumerate(imu_times):
        stamp = int(round(t * 1e9))
        planar = timeline.pose_at(t)
        rot = _attitude(planar.theta, float(tilt[i, 0]), float(tilt[i, 1]))
        g_sensor = rot.T @ gravity_world
        if noise.accel_noise_sigma > 0.0:
            g_sensor = g_sensor + noise.accel_noise_sigma * imu_rng.standard_normal(3)
        imu.append(ImuSample(stamp, Vec3.from_array(g_sensor)))

    frames: list[ThermalImage] = []
    for t in _sample_times(timeline.duration, traj.thermal_rate):
        stamp = int(round(t * 1e9))
        _, pose3 = sensor_pose_at(t)
        world_to_camera = rig.camera_extrinsic.compose(pose3.inverse())
        frames.append(render_thermal(site, world_to_camera, rig.intrinsics, noise=noise, rng=thermal_rng, stamp=stamp))

    calib = Calibration(
        intrinsics=rig.intrinsics,
        camera_extrinsic=rig.camera_extrinsic,
        sensor_height=rig.sensor_height,
        floor_height=site.floor_height,
        vertical_step=rig.vertical_step,
        thermal_scale=rig.thermal_scale,
        thermal_offset=rig.thermal_offset,
    )
    return SessionDataset(scans, imu, frames, calib, ground_truth, site)


# ---------------------------------------------------------------------------
# Ground-truth evaluation helpers.


def align_trajectory_2d(estimated_xy: np.ndarray, reference_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-fit rotation+translation taking estimated onto reference (2D)."""
    est = np.asarray(estimated_xy, dtype=float)
    ref = np.asarray(reference_xy, dtype=float)
    ce, cr = est.mean(axis=0), ref.mean(axis=0)
    cov = (ref - cr).T @ (est - ce)
    theta = math.atan2(cov[1, 0] - cov[0, 1], cov[0, 0] + cov[1, 1])
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot, cr - rot @ ce


def trajectory_ate(
    estimated: Sequence[tuple[Timestamp, PlanarPose]],
    reference: Sequence[tuple[Timestamp, PlanarPose]],
    align: bool = True,
) -> float:
    """RMS positional error over stamps the two trajectories share."""
    ref_map = {int(s): p for s, p in reference}
    pairs = [(p, ref_map[int(s)]) for s, p in estimated if int(s) in ref_map]
    if not pairs:
        raise ValueError("trajectories share no timestamps")
    est = np.array([[p.x, p.y] for p, _ in pairs])
    ref = np.array([[q.x, q.y] for _, q in pairs])
    if align:
        rot, t = align_trajectory_2d(est, ref)
        est = est @ rot.T + t
    return float(np.sqrt(np.mean(np.sum((est - ref) ** 2, axis=1))))
