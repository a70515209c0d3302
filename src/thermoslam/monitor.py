"""Cross-session map comparison for curing-heat monitoring.

Aligns two temperature-annotated wall clouds from different capture
sessions, reports per-point temperature changes, and accumulates a
Nurse-Saul maturity index with rate-of-change alerts for individual
monitoring positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import RigidTransform3, Vec3, fit_rigid_2d, rotation_about_z, wrap_angle
from . import thermal_map
from .thermal_map import ThermalPointCloud

__all__ = [
    "AlignmentError",
    "DeltaReport",
    "MaturityRecord",
    "RateViolation",
    "ThermalPointCloud",
    "accumulate_maturity",
    "icp_align",
    "rate_alert",
    "temperature_delta",
    "transform_cloud",
]


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


@dataclass(frozen=True)
class MaturityRecord:
    """Accumulated-heat history of one monitoring position.

    samples are (time in hours, surface temperature in degC) in strictly
    increasing time order; maturity is the Nurse-Saul integral
    sum(max(0, T_avg - datum) * dt) over consecutive sample pairs. A
    datum_temperature that is not finite raises ValueError.
    """

    position: Vec3
    samples: tuple[tuple[float, float], ...] = ()
    maturity: float = 0.0
    datum_temperature: float = -10.0

    def __post_init__(self) -> None:
        # With a NaN or +inf datum every gain max(0.0, T_avg - datum) is
        # 0.0, with -inf it is inf: either way without complaint.
        if not math.isfinite(self.datum_temperature):
            raise ValueError(f"datum temperature must be finite, got {self.datum_temperature}")


@dataclass(frozen=True)
class RateViolation:
    start_h: float
    end_h: float
    rate_c_per_h: float


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


def _icp_stage(
    moving: np.ndarray,
    reference: np.ndarray,
    start: RigidTransform3,
    max_iterations: int,
) -> tuple[RigidTransform3, float, int]:
    tree = cKDTree(reference)
    current = start
    current_rms = math.inf
    # (dist, idx) always hold the nearest neighbors of moving placed at current.
    dist, idx = tree.query(current.apply(moving))
    iterations = 0
    for iterations in range(1, max_iterations + 1):
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
    return current, current_rms, iterations


def icp_align(
    reference: ThermalPointCloud,
    moving: ThermalPointCloud,
    initial: RigidTransform3 | None = None,
    max_rms: float = 0.2,
    coarse_voxel: float = 0.2,
    max_iterations: int = 50,
) -> tuple[RigidTransform3, float]:
    """Register moving onto reference with yaw + translation ICP.

    Motion is restricted to x, y, z and rotation about z; gravity-aligned
    maps have no other freedom worth estimating. Runs a coarse pass on
    voxel-thinned clouds to widen the basin, then refines at full
    resolution. Matched-pair RMS never increases within a pass because
    only improving updates are accepted.

    Returns (transform mapping moving into the reference frame, final RMS
    nearest-neighbor distance). Raises AlignmentError when the final RMS
    exceeds max_rms.
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

    if coarse_voxel > 0.0:
        # Through the module, so a wrapper on thermal_map.voxel_thin sees these calls.
        ref_coarse, _ = thermal_map.voxel_thin(reference.positions, reference.temperatures, coarse_voxel)
        mov_coarse, _ = thermal_map.voxel_thin(moving.positions, moving.temperatures, coarse_voxel)
        if ref_coarse.shape[0] >= 10 and mov_coarse.shape[0] >= 10:
            start, _, _ = _icp_stage(mov_coarse, ref_coarse, start, max_iterations)

    transform, rms, _ = _icp_stage(moving.positions, reference.positions, start, max_iterations)
    if not math.isfinite(rms) or rms > max_rms:
        raise AlignmentError(f"alignment residual {rms:.3f} m exceeds {max_rms:.3f} m")
    return transform, rms


def temperature_delta(
    reference: ThermalPointCloud,
    aligned_moving: ThermalPointCloud,
    match_radius: float = 0.05,
) -> DeltaReport:
    """Per-point temperature change from reference to an aligned session.

    For every reference point whose nearest neighbor in aligned_moving
    lies within match_radius, reports dT = T_moving - T_reference. The
    clouds must already be in a common frame.
    """
    _require_monitor_cloud(reference, "reference")
    _require_monitor_cloud(aligned_moving, "moving")
    tree = cKDTree(aligned_moving.positions)
    dist, idx = tree.query(reference.positions)
    keep = dist <= match_radius
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
    new_sample: tuple[float, float],
) -> MaturityRecord:
    """Fold one (time h, temperature degC) sample into a maturity record.

    Adds max(0, (T_last + T_new)/2 - datum) * dt to the accumulated
    maturity; the clamp keeps sub-datum periods from subtracting heat.
    New sample times must strictly increase.
    """
    time_h, temp_c = float(new_sample[0]), float(new_sample[1])
    if not (math.isfinite(time_h) and math.isfinite(temp_c)):
        raise ValueError("maturity samples must be finite")
    if not record.samples:
        return MaturityRecord(record.position, ((time_h, temp_c),), record.maturity, record.datum_temperature)
    last_time, last_temp = record.samples[-1]
    if time_h <= last_time:
        raise ValueError(f"sample time {time_h} h does not advance past {last_time} h")
    gain = max(0.0, (last_temp + temp_c) / 2.0 - record.datum_temperature) * (time_h - last_time)
    return MaturityRecord(
        record.position,
        record.samples + ((time_h, temp_c),),
        record.maturity + gain,
        record.datum_temperature,
    )


def rate_alert(record: MaturityRecord, max_rate: float) -> list[RateViolation]:
    """Intervals where the temperature slope magnitude exceeds max_rate.

    Computed on consecutive samples; a rate exactly at the limit does not
    alert.
    """
    if len(record.samples) < 2:
        raise ValueError("rate check needs at least 2 samples")
    if not max_rate >= 0.0:
        raise ValueError("max_rate must be a number >= 0")
    violations: list[RateViolation] = []
    for (t0, temp0), (t1, temp1) in zip(record.samples, record.samples[1:]):
        rate = (temp1 - temp0) / (t1 - t0)
        if abs(rate) > max_rate:
            violations.append(RateViolation(t0, t1, rate))
    return violations
