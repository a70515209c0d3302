"""Cross-session map comparison for curing-heat monitoring.

Aligns two temperature-annotated wall clouds from different capture
sessions, reports per-point temperature changes, and folds each
session's samples of a set of monitoring positions into a Nurse-Saul
maturity index, flagging the positions whose temperature changed too
fast since their previous sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import RigidTransform3, fit_rigid_2d, rotation_about_z, wrap_angle
from . import thermal_map
from .thermal_map import ThermalPointCloud

__all__ = [
    "AlignmentError",
    "DeltaReport",
    "MATCH_RADIUS",
    "MaturityRecord",
    "ThermalPointCloud",
    "accumulate_maturity",
    "icp_align",
    "rate_alert",
    "temperature_delta",
    "transform_cloud",
]


# A point of one session stands for a point of another within this
# distance, in metres: temperature deltas and maturity samples alike.
MATCH_RADIUS = 0.05

# icp_align's step cap per stage, coarse voxel (m) and acceptance RMS (m).
ICP_MAX_ITERATIONS = 50
ICP_COARSE_VOXEL = 0.2
ICP_MAX_RMS = 0.2


class AlignmentError(RuntimeError):
    """Cross-session alignment failed to reach an acceptable residual."""


@dataclass(eq=False)
class DeltaReport:
    """Per-point temperature change between two aligned sessions.

    positions holds the reference-cloud points that found a neighbor;
    deltas holds T_moving - T_reference for each of them. no_overlap is
    set when not a single reference point had a neighbor in range.
    """

    positions: np.ndarray
    deltas: np.ndarray
    matched_pairs: int
    mean_dt: float
    rms_nn_distance: float
    no_overlap: bool


@dataclass(frozen=True, eq=False)
class MaturityRecord:
    """Nurse-Saul maturity state of one or many monitoring positions.

    position is carried as given: one (3,) point, or an (N, 3) array of them.
    sample_count, last_time_h, last_temperature and maturity hold one
    entry per position; they take the shape of the samples folded in by
    accumulate_maturity, and before the first fold they are the scalars
    "no sample yet" (0, NaN, NaN, 0.0). maturity is the Nurse-Saul sum
    of max(0, T_avg - datum) * dt over each position's consecutive
    samples, in degC hours. A datum_temperature that is not finite raises
    ValueError.
    """

    position: np.ndarray
    datum_temperature: float = -10.0
    sample_count: np.ndarray | int = 0
    last_time_h: np.ndarray | float = math.nan
    last_temperature: np.ndarray | float = math.nan
    maturity: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        # With a NaN or +inf datum every gain max(0.0, T_avg - datum) is
        # 0.0, with -inf it is inf: either way without complaint.
        if not math.isfinite(self.datum_temperature):
            raise ValueError(f"datum temperature must be finite, got {self.datum_temperature}")


def transform_cloud(cloud: ThermalPointCloud, transform: RigidTransform3) -> ThermalPointCloud:
    """Apply a rigid transform to a cloud's positions; temperatures ride along."""
    return ThermalPointCloud(
        positions=transform.apply(cloud.positions),
        temperatures=cloud.temperatures.copy(),
        session_stamp=cloud.session_stamp,
    )


def _require_monitor_cloud(cloud: ThermalPointCloud, name: str, min_points: int = 0) -> None:
    if cloud.positions.shape[0] < min_points:
        raise ValueError(f"{name} cloud has {cloud.positions.shape[0]} points, needs >= {min_points}")
    if not np.all(np.isfinite(cloud.temperatures)):
        raise ValueError(f"{name} cloud has unset temperatures; call drop_unset() first")


def _yaw_of(transform: RigidTransform3) -> float:
    return math.atan2(transform.rotation[1, 0], transform.rotation[0, 0])


def _as_transform(yaw: float, t_xy: np.ndarray, t_z: float) -> RigidTransform3:
    return RigidTransform3(rotation_about_z(yaw), np.array([t_xy[0], t_xy[1], t_z]))


def _icp_stage(moving: np.ndarray, reference: np.ndarray, start: RigidTransform3) -> tuple[RigidTransform3, float]:
    tree = cKDTree(reference)
    current = start
    current_rms = math.inf
    # (dist, idx) always hold the nearest neighbors of moving placed at current.
    dist, idx = tree.query(current.apply(moving))
    for _ in range(ICP_MAX_ITERATIONS):
        gate = 3.0 * float(np.median(dist))
        keep = dist <= gate
        if not np.any(keep):
            break
        # Closed-form yaw + xy fit of the kept pairs, plus their mean z shift.
        mov, ref = moving[keep], reference[idx[keep]]
        yaw, t_xy = fit_rigid_2d(mov[:, :2], ref[:, :2])
        candidate = _as_transform(yaw, t_xy, float(np.mean(ref[:, 2] - mov[:, 2])))
        cand_dist, cand_idx = tree.query(candidate.apply(moving))
        cand_keep = cand_dist <= 3.0 * float(np.median(cand_dist))
        cand_rms = float(np.sqrt(np.mean(cand_dist[cand_keep] ** 2)))
        if cand_rms > current_rms:
            break
        improvement = current_rms - cand_rms
        prev_yaw = _yaw_of(current)
        prev_translation = np.asarray(current.translation, dtype=float).copy()
        current, current_rms = candidate, cand_rms
        dist, idx = cand_dist, cand_idx
        small_step = (
            abs(wrap_angle(yaw - prev_yaw)) < 1e-10
            and float(np.linalg.norm(np.asarray(candidate.translation, dtype=float) - prev_translation)) < 1e-10
        )
        if improvement < 1e-12 or small_step:
            break
    if not math.isfinite(current_rms):
        keep = dist <= 3.0 * float(np.median(dist))
        current_rms = float(np.sqrt(np.mean(dist[keep] ** 2))) if np.any(keep) else math.inf
    return current, current_rms


def icp_align(
    reference: ThermalPointCloud,
    moving: ThermalPointCloud,
    initial: RigidTransform3 | None = None,
) -> tuple[RigidTransform3, float]:
    """Register moving onto reference with yaw + translation ICP.

    Motion is restricted to x, y, z and rotation about z; gravity-aligned
    maps have no other freedom worth estimating. Runs a coarse pass on
    clouds voxel-thinned to ICP_COARSE_VOXEL to widen the basin, then
    refines at full resolution, each in at most ICP_MAX_ITERATIONS steps.
    Matched-pair RMS never increases within a pass because only improving
    updates are accepted.

    Returns (transform mapping moving into the reference frame, final RMS
    nearest-neighbor distance). Raises AlignmentError when the final RMS
    exceeds ICP_MAX_RMS.
    """
    _require_monitor_cloud(reference, "reference", min_points=100)
    _require_monitor_cloud(moving, "moving", min_points=100)
    if initial is None:
        initial = RigidTransform3.identity()
    start = _as_transform(
        _yaw_of(initial),
        np.asarray(initial.translation, dtype=float)[:2],
        float(np.asarray(initial.translation, dtype=float)[2]),
    )

    # Through the module, so a wrapper on thermal_map.voxel_thin sees these calls.
    ref_coarse, _ = thermal_map.voxel_thin(reference.positions, reference.temperatures, ICP_COARSE_VOXEL)
    mov_coarse, _ = thermal_map.voxel_thin(moving.positions, moving.temperatures, ICP_COARSE_VOXEL)
    if ref_coarse.shape[0] >= 10 and mov_coarse.shape[0] >= 10:
        start, _ = _icp_stage(mov_coarse, ref_coarse, start)

    transform, rms = _icp_stage(moving.positions, reference.positions, start)
    if not math.isfinite(rms) or rms > ICP_MAX_RMS:
        raise AlignmentError(f"alignment residual {rms:.3f} m exceeds {ICP_MAX_RMS:.3f} m")
    return transform, rms


def temperature_delta(reference: ThermalPointCloud, aligned_moving: ThermalPointCloud) -> DeltaReport:
    """Per-point temperature change from reference to an aligned session.

    For every reference point whose nearest neighbor in aligned_moving
    lies within MATCH_RADIUS, reports dT = T_moving - T_reference. The
    clouds must already be in a common frame.
    """
    _require_monitor_cloud(reference, "reference")
    _require_monitor_cloud(aligned_moving, "moving")
    tree = cKDTree(aligned_moving.positions)
    dist, idx = tree.query(reference.positions)
    keep = dist <= MATCH_RADIUS
    if not np.any(keep):
        return DeltaReport(
            positions=np.empty((0, 3)),
            deltas=np.empty(0),
            matched_pairs=0,
            mean_dt=math.nan,
            rms_nn_distance=math.nan,
            no_overlap=True,
        )
    deltas = aligned_moving.temperatures[idx[keep]] - reference.temperatures[keep]
    return DeltaReport(
        positions=reference.positions[keep].copy(),
        deltas=deltas,
        matched_pairs=int(np.count_nonzero(keep)),
        mean_dt=float(np.mean(deltas)),
        rms_nn_distance=float(np.sqrt(np.mean(dist[keep] ** 2))),
        no_overlap=False,
    )


def accumulate_maturity(
    record: MaturityRecord,
    sample: tuple[float | np.ndarray, float | np.ndarray],
    where: bool | np.ndarray = True,
) -> MaturityRecord:
    """Fold one (time h, temperature degC) sample per position into a new record.

    time and temperature broadcast against where and the record's
    arrays. Each position where `where` holds takes its sample: the first
    sample only sets the state, and each later one adds
    max(0, (T_last + T_new)/2 - datum) * dt to its maturity; the clamp
    keeps sub-datum periods from subtracting heat. Other positions keep
    their state. A folded sample that is not finite, or whose time does
    not advance past its position's last sample, raises ValueError. The
    input record is not changed.
    """
    time_h, temp_c, seen, count, last_time, last_temp, maturity = np.broadcast_arrays(
        np.asarray(sample[0], dtype=float), np.asarray(sample[1], dtype=float), np.asarray(where, dtype=bool),
        record.sample_count, record.last_time_h, record.last_temperature, record.maturity,
    )
    if not (np.isfinite(time_h[seen]).all() and np.isfinite(temp_c[seen]).all()):
        raise ValueError("maturity samples must be finite")
    fold = seen & (count > 0)
    t0, t1, c0, c1 = last_time[fold], time_h[fold], last_temp[fold], temp_c[fold]
    stalled = np.flatnonzero(t1 <= t0)
    if stalled.size:
        raise ValueError(f"sample time {t1[stalled[0]]} h does not advance past {t0[stalled[0]]} h")
    total = maturity.astype(float)
    total[fold] += np.maximum(0.0, (c0 + c1) / 2.0 - record.datum_temperature) * (t1 - t0)
    return MaturityRecord(
        record.position,
        record.datum_temperature,
        count + seen,
        np.where(seen, time_h, last_time),
        np.where(seen, temp_c, last_temp),
        total,
    )


def rate_alert(before: MaturityRecord, after: MaturityRecord, max_rate: float) -> np.ndarray:
    """Positions whose newest interval changes faster than max_rate degC/h.

    after is before with one more fold. The result is True where a
    position took a sample in that fold, already had one before it, and
    |T_new - T_last| / dt exceeds max_rate; a rate exactly at the limit
    does not alert. A max_rate that is NaN or negative raises ValueError.
    """
    if not max_rate >= 0.0:
        raise ValueError("max_rate must be a number >= 0")
    interval = (after.sample_count > before.sample_count) & (before.sample_count > 0)
    rise = after.last_temperature - before.last_temperature
    # Divided only over the intervals: elsewhere dt is 0 or NaN.
    rate = np.divide(rise, after.last_time_h - before.last_time_h, out=np.zeros(np.shape(interval)), where=interval)
    return interval & (np.abs(rate) > max_rate)
