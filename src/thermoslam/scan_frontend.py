"""Scan preprocessing and pairwise scan matching.

Raw range scans are taken on a platform that tilts on rough ground, so
beam endpoints are first projected onto the plane orthogonal to measured
gravity. Pairs of projected scans are then registered with a robust
point-to-line matcher; the mapping pipeline uses it for scan-to-keyframe
odometry and for loop-closure checks. Each scan computes its normals and
its line-point search tree once, however often it is matched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .core import HuberLoss, ImuSeries, PlanarPose, Scan2D, Timestamp, rotation_aligning, wrap_angle

DOWN = np.array([0.0, 0.0, -1.0])
MIN_POINT_NORM = 1e-9  # leveled points closer to the origin are zero-range

# filter_gravity's weight per reading and associate_gravity's window (ns).
GRAVITY_ALPHA = 0.05
GRAVITY_MAX_OFFSET_NS = 100_000_000

# Normal neighborhood of estimate_normals (NORMAL_RADIUS in m).
NORMAL_NEIGHBORS = 8
NORMAL_RADIUS = 0.3
NORMAL_FLATNESS = 0.02

# Scan matcher. A beam pairs with the nearest reference line point within
# DISTANCE_GATE (m) whose normal agrees within NORMAL_ANGLE_GATE; beams
# without a pair saturate at the gate. A match converges only with at
# least MIN_INLIERS pairs. It stops when a step is shorter than
# UPDATE_TOLERANCE or when the Gauss-Newton model predicts a cost decrease
# of at most DECREASE_TOLERANCE times the paired beams' share of the cost;
# the unpaired beams' saturated share is left out, as no step lowers it.
MAX_ITERATIONS = 50
UPDATE_TOLERANCE = 1e-6
DECREASE_TOLERANCE = 1e-2
DISTANCE_GATE = 0.5
NORMAL_ANGLE_GATE = math.radians(45.0)
COS_NORMAL_ANGLE_GATE = math.cos(NORMAL_ANGLE_GATE)
MIN_INLIERS = 25
MATCH_LOSS = HuberLoss(0.1)
INITIAL_DAMPING = 1e-4


class DegenerateScanError(ValueError):
    """Scan has too few usable returns to work with."""


@dataclass(eq=False)
class ProjectedScan:
    """Gravity-leveled scan: 2D points in the horizontal sensor plane.

    The scan also owns its surface model, computed on first use and kept:
    ``normals`` for every point and ``line_points`` for matching against
    it. A scan matched many times therefore estimates its normals once.
    Treat points_xy as read-only once either has been computed.
    """

    stamp: Timestamp
    points_xy: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points_xy, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("projected points must be finite")
        self.points_xy = pts
        self.stamp = int(self.stamp)

    def __len__(self) -> int:
        return self.points_xy.shape[0]

    @cached_property
    def normals(self) -> tuple[np.ndarray, np.ndarray]:
        """(normals, valid) of every point, from :func:`estimate_normals`."""
        return estimate_normals(self.points_xy)

    @cached_property
    def line_points(self) -> tuple[np.ndarray, np.ndarray, cKDTree | None]:
        """(points, normals, tree) of the points with a valid normal.

        The tree is None when no point has one.
        """
        normals, valid = self.normals
        # Correspondences are only drawn from reference points whose local
        # surface orientation is trustworthy. Isolated returns and corner
        # neighborhoods stay out of the search tree entirely, so the
        # nearest-match index can never flip between a usable and an
        # unusable point as the pose moves; such flips reward the solver
        # for warping the pose to capture extra correspondences.
        usable = np.flatnonzero(valid)
        points = self.points_xy[usable]
        return points, normals[usable], cKDTree(points) if usable.size else None


@dataclass(frozen=True)
class MatchResult:
    """Outcome of registering a moving scan against a reference scan.

    relative_pose maps moving-scan coordinates into the reference frame.
    final_cost is the normalized robust matching cost at that pose (beams
    without a valid correspondence saturate at the distance gate, so costs
    are comparable across poses). A result that did not converge returns
    the caller's initial guess with the cost and inlier count at that guess.
    associations counts the :func:`associate` calls the match made.
    """

    relative_pose: PlanarPose
    final_cost: float
    inlier_count: int
    converged: bool
    associations: int


def filter_gravity(imu: ImuSeries) -> np.ndarray:
    """Exponential moving average over raw accelerometer readings.

    Returns an (M, 3) array of unit gravity directions, row i at
    imu.stamps[i]. The filter state starts at the first reading; each row
    is the running average after reading i,
    state = (1 - GRAVITY_ALPHA) * state + GRAVITY_ALPHA * accel[i],
    divided by its norm.
    """
    if not len(imu):
        raise ValueError("empty IMU stream")
    state = imu.accel[0]
    out = np.empty_like(imu.accel)
    for i, accel in enumerate(imu.accel):
        state = (1.0 - GRAVITY_ALPHA) * state + GRAVITY_ALPHA * accel
        norm = np.linalg.norm(state)
        if norm < 1e-12:
            raise ValueError("gravity filter collapsed to zero vector")
        out[i] = state / norm
    return out


def associate_gravity(scans: list[Scan2D], stamps: np.ndarray) -> tuple[list[tuple[Scan2D, int]], int]:
    """Pair each scan with the index of the gravity sample nearest in time.

    stamps are the gravity samples' stamps. Ties go to the earlier sample.
    Scans whose nearest sample is more than GRAVITY_MAX_OFFSET_NS away are
    dropped; the second return value counts them. Both streams must be
    time-sorted and the gravity stream non-empty.
    """
    g_stamps = np.asarray(stamps, dtype=np.int64)
    if not g_stamps.size:
        raise ValueError("empty IMU stream")
    if np.any(np.diff(g_stamps) < 0):
        raise ValueError("gravity stream is not time-sorted")
    s_stamps = np.array([s.stamp for s in scans], dtype=np.int64)
    if np.any(np.diff(s_stamps) < 0):
        raise ValueError("scan stream is not time-sorted")
    # The nearest sample is the last one before the scan or the first one
    # at or after it; the earlier one wins a tie.
    after = np.searchsorted(g_stamps, s_stamps, side="left")
    before = np.maximum(after - 1, 0)
    after = np.minimum(after, g_stamps.size - 1)
    best = np.where(s_stamps - g_stamps[before] <= g_stamps[after] - s_stamps, before, after)
    near = np.abs(g_stamps[best] - s_stamps) <= GRAVITY_MAX_OFFSET_NS
    pairs = [(scan, i) for scan, i, ok in zip(scans, best.tolist(), near.tolist()) if ok]
    return pairs, len(scans) - len(pairs)


def scan_to_points(scan: Scan2D) -> np.ndarray:
    """Beam endpoints with finite returns, as (N, 3) sensor-frame points."""
    mask = scan.finite_mask()
    r = scan.ranges[mask]
    a = scan.angles()[mask]
    return np.column_stack([r * np.cos(a), r * np.sin(a), np.zeros(r.size)])


def project_points_to_plane(points: np.ndarray, gravity: np.ndarray) -> np.ndarray:
    """Remove each point's component along gravity.

    The result lies in the plane through the origin orthogonal to gravity;
    applying the projection twice changes nothing.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    g = np.asarray(gravity, dtype=float).reshape(3)
    return pts - np.outer((pts @ g) / float(g @ g), g)


def gravity_project(scan: Scan2D, gravity: np.ndarray) -> ProjectedScan:
    """Level a scan: project beam endpoints onto the horizontal plane.

    gravity is the unit gravity direction in the sensor frame, a 3-vector
    such as a row of :func:`filter_gravity`. The in-plane basis is chosen by the smallest rotation taking the
    gravity direction onto -z, so a level scan passes through bit-for-bit.
    Points that project within MIN_POINT_NORM of the origin (beams parallel
    to gravity) are discarded as zero-range.
    """
    points = scan_to_points(scan)
    if points.shape[0] < 2:
        raise DegenerateScanError("scan has fewer than 2 finite returns")
    g = np.asarray(gravity, dtype=float).reshape(3)
    flat = project_points_to_plane(points, g)
    basis = rotation_aligning(g, DOWN)
    leveled = flat @ basis.T
    xy = leveled[:, :2]
    keep = np.linalg.norm(xy, axis=1) >= MIN_POINT_NORM
    xy = xy[keep]
    if xy.shape[0] < 2:
        raise DegenerateScanError("projection left fewer than 2 usable points")
    return ProjectedScan(scan.stamp, xy)


def estimate_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point 2D normals from local neighborhoods.

    Returns (normals, valid). A point's neighborhood is those of its
    NORMAL_NEIGHBORS nearest points (itself included) within NORMAL_RADIUS.
    Its normal is the eigenvector of the smaller eigenvalue of the
    neighborhood's covariance [[a, b], [b, c]], solved in closed form: the
    larger eigenvalue's axis lies at 0.5 * atan2(2b, a - c). A normal is
    valid when the neighborhood has at least 3 points, its larger
    eigenvalue exceeds 1e-12 and it is line-like (smaller over larger
    eigenvalue at most NORMAL_FLATNESS); corner neighborhoods mixing two
    surfaces fail that test and would otherwise yield diagonal normals
    biasing registration. Normals are oriented to face the sensor origin.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    k = min(NORMAL_NEIGHBORS, n)
    tree = cKDTree(pts)
    dist, idx = tree.query(pts, k=k)
    if k == 1:
        dist, idx = dist[:, None], idx[:, None]
    near = dist <= NORMAL_RADIUS
    counts = near.sum(axis=1)
    valid = counts >= 3
    # Weighted covariance [[a, b], [b, c]] of each neighborhood: the weight
    # is 1 / count inside the radius and 0 outside it.
    w = near / np.maximum(counts, 1)[:, None]
    x = pts[:, 0][idx]
    y = pts[:, 1][idx]
    x -= (x * w).sum(axis=1)[:, None]
    y -= (y * w).sum(axis=1)[:, None]
    xw = x * w
    a = (xw * x).sum(axis=1)
    b = (xw * y).sum(axis=1)
    c = (y * w * y).sum(axis=1)
    # Its eigenvalues are mid -/+ radius, and the larger one's eigenvector
    # lies at angle phi; the normal is perpendicular to it.
    mid = 0.5 * (a + c)
    radius = np.hypot(0.5 * (a - c), b)
    smaller, larger = mid - radius, mid + radius
    phi = 0.5 * np.arctan2(2.0 * b, a - c)
    normals = np.column_stack([-np.sin(phi), np.cos(phi)])
    valid &= larger > 1e-12
    valid &= smaller <= NORMAL_FLATNESS * larger
    flip = np.einsum("ni,ni->n", normals, pts) > 0.0
    normals[flip] *= -1.0
    return normals, valid


def associate(reference: ProjectedScan, moving: ProjectedScan, state: np.ndarray):
    """Place the moving scan at state and pair its points with reference lines.

    Returns (cost, moved, idx, line, line_res): the normalized robust cost,
    the placed moving points, each one's nearest reference line point, the
    mask of accepted point-to-line pairs and the signed point-to-line
    residuals. Beams without an accepted pair saturate at the distance gate.
    """
    line_points, line_normals, tree = reference.line_points
    n_mov = len(moving)
    c, s = math.cos(state[2]), math.sin(state[2])
    rot = np.array([[c, -s], [s, c]])
    moved = moving.points_xy @ rot.T + state[:2]
    if tree is None:
        idx = np.zeros(n_mov, dtype=int)
        line = np.zeros(n_mov, dtype=bool)
        line_res = np.zeros(n_mov)
    else:
        dist, idx = tree.query(moved)
        ref_normals = line_normals[idx]
        mov_normals, mov_valid = moving.normals
        agreement = np.abs(np.einsum("ni,ni->n", mov_normals @ rot.T, ref_normals))
        # Both sides must present a trustworthy flat patch and the patches
        # must agree in orientation; a mover with an unknown normal cannot
        # be told apart from a cross-surface mismatch, so it saturates.
        line = (dist <= DISTANCE_GATE) & mov_valid & (agreement >= COS_NORMAL_ANGLE_GATE)
        line_res = np.einsum("ni,ni->n", ref_normals, moved - line_points[idx])
    norms = np.where(line, np.abs(line_res), DISTANCE_GATE)
    cost = float(MATCH_LOSS.values(norms).sum() / n_mov)
    return cost, moved, idx, line, line_res


def normal_equations(reference: ProjectedScan, state: np.ndarray, association: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Huber-weighted Gauss-Newton system (H, g) of an association's pairs."""
    _, moved, idx, line, line_res = association
    _, line_normals, _ = reference.line_points
    if not np.any(line):
        return np.zeros((3, 3)), np.zeros(3)
    moved_centered = moved[line] - state[:2]  # rotated moving points
    dtheta = np.column_stack([-moved_centered[:, 1], moved_centered[:, 0]])
    nrm = line_normals[idx[line]]
    res = line_res[line]
    jac = np.column_stack([nrm, np.einsum("ni,ni->n", nrm, dtheta)])
    jw = jac * MATCH_LOSS.weights(np.abs(res))[:, None]
    return jw.T @ jac, jw.T @ res


def _paired_cost(association: tuple) -> float:
    """The accepted pairs' share of an association's normalized cost."""
    _, moved, _, line, line_res = association
    return float(MATCH_LOSS.values(np.abs(line_res[line])).sum() / moved.shape[0])


def match_scans(
    reference: ProjectedScan,
    moving: ProjectedScan,
    initial_guess: PlanarPose = PlanarPose(),
) -> MatchResult:
    """Estimate the pose taking moving-scan points into the reference frame.

    Robust point-to-line registration: nearest-neighbor correspondences
    gated by distance and normal agreement, Huber-weighted normal
    equations, and a damped step that is only accepted when the
    re-associated cost does not increase. Beams without a usable
    correspondence saturate at the distance gate. The cost at the
    returned pose never exceeds the cost at the initial guess.

    The match stops as converged, before associating a candidate step s,
    when the damped model's predicted decrease of the normalized cost,
    0.5 * (damping * s.D.s - g.s) / len(moving) with D the diagonal of H
    floored at 1e-12 (Madsen, Nielsen and Tingleff, "Methods for
    Non-Linear Least Squares Problems", 2004, section 3.2), is at most
    DECREASE_TOLERANCE times the paired beams' share of the current cost:
    the robust loss of the accepted pairs' residuals over len(moving).
    On noisy scans that share stays at the residuals' noise, so the match
    stops once the remaining gain is small against it; on noiseless ones
    it falls toward 0 with the residuals. A step shorter than
    UPDATE_TOLERANCE also ends the match as converged. A rejected step
    that pushes the damping past 1e10 ends it unconverged, and after
    MAX_ITERATIONS steps it has converged when the last step was accepted.
    A converged match still needs MIN_INLIERS pairs.
    """
    if len(reference) < 2 or len(moving) < 2:
        raise DegenerateScanError("matching needs at least 2 points per scan")
    state = np.array([initial_guess.x, initial_guess.y, initial_guess.theta])
    assoc = start = associate(reference, moving, state)
    cost = assoc[0]
    associations = 1
    damping = INITIAL_DAMPING
    converged = False
    # (h, g) and the stop floor depend only on the state and its
    # association, so they are rebuilt after an accepted step and reused
    # after a rejected one.
    h, g = normal_equations(reference, state, assoc)
    floor = DECREASE_TOLERANCE * _paired_cost(assoc)
    for _ in range(MAX_ITERATIONS):
        scale = np.diag(np.maximum(np.diag(h), 1e-12))
        try:
            step = np.linalg.solve(h + damping * scale, -g)
        except np.linalg.LinAlgError:
            break
        predicted = 0.5 * (damping * (step @ scale @ step) - g @ step) / len(moving)
        if predicted <= floor:
            converged = True
            break
        candidate = state + step
        candidate[2] = wrap_angle(candidate[2])
        cand_assoc = associate(reference, moving, candidate)
        associations += 1
        small = float(np.linalg.norm(step)) < UPDATE_TOLERANCE
        if cand_assoc[0] <= cost:
            state, assoc, cost = candidate, cand_assoc, cand_assoc[0]
            damping = max(damping * 0.1, 1e-12)
            converged = True  # survives loop exhaustion: cost still decreasing
            if small:
                break
            h, g = normal_equations(reference, state, assoc)
            floor = DECREASE_TOLERANCE * _paired_cost(assoc)
        else:
            damping *= 10.0
            if small:
                # The damped step shrank below tolerance without improving:
                # the current state is the minimum.
                converged = True
                break
            converged = False
            if damping > 1e10:
                break
    inliers = int(np.count_nonzero(assoc[3]))
    if not converged or inliers < MIN_INLIERS:
        return MatchResult(initial_guess, start[0], int(np.count_nonzero(start[3])), False, associations)
    return MatchResult(
        relative_pose=PlanarPose(float(state[0]), float(state[1]), float(state[2])),
        final_cost=cost,
        inlier_count=inliers,
        converged=True,
        associations=associations,
    )
