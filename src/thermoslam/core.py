"""Shared geometry, robust-loss primitives, the in-memory session and its trajectory error.

Conventions used throughout the package: frames are right-handed with z up,
gravity points along -z when the platform is level, angles are radians
normalized to (-pi, pi], timestamps are integer nanoseconds, distances are
meters and temperatures degrees Celsius.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # thermal_map imports core
    from .thermal_map import Calibration, ThermalFrame

TWO_PI = 2.0 * math.pi

# Type alias for integer nanosecond timestamps.
Timestamp = int


def wrap_angle(angle: float) -> float:
    """Normalize an angle to the half-open interval (-pi, pi]."""
    if -math.pi < angle <= math.pi:
        return float(angle)
    return math.pi - (math.pi - angle) % TWO_PI


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Array form of :func:`wrap_angle`, equal to it element by element.

    np.remainder follows Python's float ``%``, so each element gets the
    same bits that wrap_angle gives it.
    """
    a = np.asarray(angles, dtype=float)
    inside = (a > -math.pi) & (a <= math.pi)
    return np.where(inside, a, math.pi - np.remainder(math.pi - a, TWO_PI))


@dataclass(frozen=True)
class PlanarPose:
    """Pose on the ground plane: translation (x, y) and heading theta_z.

    theta_z is wrapped to (-pi, pi] on construction.
    """

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError("PlanarPose components must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def rotation(self) -> np.ndarray:
        """2x2 rotation matrix for theta."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def apply(self, points_xy: np.ndarray) -> np.ndarray:
        """Transform an (N, 2) array of points into the parent frame."""
        pts = np.asarray(points_xy, dtype=float)
        return pts @ self.rotation().T + np.array([self.x, self.y])


def compose(a: PlanarPose, b: PlanarPose) -> PlanarPose:
    """Pose composition a * b: first apply b, then a."""
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    return PlanarPose(
        a.x + ca * b.x - sa * b.y,
        a.y + sa * b.x + ca * b.y,
        a.theta + b.theta,
    )


def inverse(p: PlanarPose) -> PlanarPose:
    """Inverse pose: compose(p, inverse(p)) is the identity."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return PlanarPose(-(c * p.x + s * p.y), s * p.x - c * p.y, -p.theta)


def fit_rigid_2d(moving_xy: np.ndarray, reference_xy: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form least-squares (theta, t_xy) taking moving points onto reference.

    Both inputs are (N, 2) arrays of paired points; a moving point p maps
    to R(theta) @ p + t_xy.
    """
    mov = np.asarray(moving_xy, dtype=float)
    ref = np.asarray(reference_xy, dtype=float)
    mov_mean = mov.mean(axis=0)
    ref_mean = ref.mean(axis=0)
    cov = (ref - ref_mean).T @ (mov - mov_mean)
    theta = math.atan2(cov[1, 0] - cov[0, 1], cov[0, 0] + cov[1, 1])
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return theta, ref_mean - rot @ mov_mean


def trajectory_ate(
    estimated: Sequence[tuple[Timestamp, PlanarPose]],
    reference: Sequence[tuple[Timestamp, PlanarPose]],
) -> float:
    """RMS positional error at the estimated stamps, after a rigid 2D fit of estimated onto reference.

    An estimated stamp equal to a reference stamp is scored against that
    reference pose (the last such row, if several share it); a stamp strictly
    inside the reference's time span is scored against the reference x, y
    interpolated linearly between the two rows around it. Stamps outside the
    span are skipped. NaN when fewer than 3 stamps are scored: the fit has 3
    degrees of freedom, so fewer pairs would always score (near) zero.
    """
    if not reference:
        return math.nan
    ref_stamps = np.array([int(s) for s, _ in reference], dtype=np.int64)
    order = np.argsort(ref_stamps, kind="stable")
    ref_stamps = ref_stamps[order]
    ref_xy = np.array([[q.x, q.y] for _, q in reference])[order]
    stamps = np.array([int(s) for s, _ in estimated], dtype=np.int64)
    est = np.array([[p.x, p.y] for _, p in estimated]).reshape(-1, 2)
    # after[i] is the first reference row past stamps[i]; the row before it
    # is the last at or before stamps[i].
    after = np.searchsorted(ref_stamps, stamps, side="right")
    at = np.maximum(after - 1, 0)
    exact = (after > 0) & (ref_stamps[at] == stamps)
    between = (after > 0) & (after < ref_stamps.size) & ~exact
    keep = exact | between
    if np.count_nonzero(keep) < 3:
        return math.nan
    ref = np.empty_like(est)
    ref[exact] = ref_xy[at[exact]]
    lo, hi = at[between], after[between]
    w = (stamps[between] - ref_stamps[lo]) / (ref_stamps[hi] - ref_stamps[lo])
    ref[between] = ref_xy[lo] + w[:, None] * (ref_xy[hi] - ref_xy[lo])
    est, ref = est[keep], ref[keep]
    theta, t = fit_rigid_2d(est, ref)
    c, s = math.cos(theta), math.sin(theta)
    est = est @ np.array([[c, -s], [s, c]]).T + t
    return float(np.sqrt(np.mean(np.sum((est - ref) ** 2, axis=1))))


def rotation_about_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(eq=False)
class RigidTransform3:
    """Rigid transform in 3D: p' = rotation @ p + translation.

    The rotation matrix is validated to be orthonormal with determinant +1
    (within 1e-9) on construction.
    """

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        if not np.all(np.isfinite(r)):
            raise ValueError("rotation must be finite")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation determinant must be +1")
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        self.rotation = r
        self.translation = t

    @classmethod
    def identity(cls) -> "RigidTransform3":
        return cls()

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (N, 3) array (or a single 3-vector)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform3") -> "RigidTransform3":
        """Transform composition self * other: first other, then self."""
        return RigidTransform3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform3":
        rt = self.rotation.T
        return RigidTransform3(rt, -(rt @ self.translation))


def planar_to_rigid3(pose: PlanarPose, z: float = 0.0) -> RigidTransform3:
    """Lift a planar pose to 3D: rotation about z, translation (x, y, z)."""
    return RigidTransform3(rotation_about_z(pose.theta), np.array([pose.x, pose.y, float(z)]))


def rotation_aligning(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest rotation taking unit vector a onto unit vector b (Rodrigues).

    Returns the exact identity when a already equals b, which keeps level
    scans bit-for-bit unchanged downstream.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    v = np.cross(a, b)
    s = np.linalg.norm(v)
    c = float(a @ b)
    if s < 1e-15:
        if c > 0.0:
            return np.eye(3)
        # Opposite vectors: rotate by pi about any axis orthogonal to a.
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(a)))] = 1.0
        axis = axis - (axis @ a) * a
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + k + k @ k * ((1.0 - c) / (s * s))


@dataclass(eq=False)
class Scan2D:
    """One 2D range scan.

    ranges holds one entry per beam; NaN marks a beam with no return.
    +inf range values are normalized to NaN on construction. Finite ranges
    must be strictly positive.
    """

    stamp: Timestamp
    angle_min: float
    angle_increment: float
    ranges: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.ranges, dtype=float).copy()
        if r.ndim != 1 or r.size < 2:
            raise ValueError("scan needs at least 2 beams")
        if not (math.isfinite(self.angle_min) and self.angle_increment > 0.0):
            raise ValueError("bad scan angles: angle_increment must be > 0")
        r[np.isposinf(r)] = np.nan
        if np.any(np.isneginf(r)):
            raise ValueError("ranges must not be -inf")
        finite = np.isfinite(r)
        if np.any(r[finite] <= 0.0):
            raise ValueError("finite ranges must be > 0")
        self.ranges = r
        self.stamp = int(self.stamp)

    def angles(self) -> np.ndarray:
        return self.angle_min + self.angle_increment * np.arange(self.ranges.size)

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.ranges)


@dataclass(eq=False)
class ImuSeries:
    """Raw accelerometer readings as columns: measured gravity acceleration
    in the sensor frame.

    stamps is an int64 (M,) array and accel a float64 (M, 3) array whose
    row i was read at stamps[i]. Construction stores both in those dtypes
    and requires one finite row per stamp.
    """

    stamps: np.ndarray
    accel: np.ndarray

    def __post_init__(self) -> None:
        stamps = np.asarray(self.stamps, dtype=np.int64)
        accel = np.asarray(self.accel, dtype=float)
        if stamps.ndim != 1 or accel.shape != (stamps.size, 3):
            raise ValueError("IMU series needs one (ax, ay, az) row per stamp")
        if not np.all(np.isfinite(accel)):
            raise ValueError("IMU accelerations must be finite")
        self.stamps = stamps
        self.accel = accel

    def __len__(self) -> int:
        return self.stamps.size


@dataclass(eq=False)
class SessionDataset:
    """One capture session in memory; cli_io owns the on-disk layout."""

    scans: list[Scan2D]
    imu: ImuSeries
    frames: list[ThermalFrame]
    calib: Calibration
    ground_truth: list[tuple[Timestamp, PlanarPose]] | None = None


@dataclass(frozen=True)
class HuberLoss:
    """Huber robust loss with threshold delta.

    rho(r) = r^2 / 2 for |r| <= delta, else delta * (|r| - delta / 2).
    """

    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("Huber delta must be positive and finite")

    def values(self, norms: np.ndarray) -> np.ndarray:
        """Vectorized loss for an array of non-negative residual norms."""
        n = np.asarray(norms, dtype=float)
        quad = n <= self.delta
        return np.where(quad, 0.5 * n * n, self.delta * (n - 0.5 * self.delta))

    def weights(self, norms: np.ndarray) -> np.ndarray:
        """IRLS weights rho'(r)/r: 1 in the quadratic branch, delta/r beyond."""
        n = np.asarray(norms, dtype=float)
        safe = np.where(n > 0.0, n, 1.0)
        return np.where(n <= self.delta, 1.0, self.delta / safe)

