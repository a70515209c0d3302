"""Session-to-map pipeline.

Chains the front end (gravity leveling, scan-to-keyframe odometry),
loop-closure detection, pose-graph refinement, wall extrusion with thermal
projection, and fusion into one deterministic run over a loaded session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import (
    PlanarPose,
    RigidTransform3,
    SessionDataset,
    Timestamp,
    compose,
    inverse,
    planar_to_rigid3,
    trajectory_ate,
    wrap_angle,
)
from ..pose_graph import GraphEdge, PoseGraph, detect_loop_closures, optimize
from ..scan_frontend import (
    DegenerateScanError,
    ProjectedScan,
    associate_gravity,
    filter_gravity,
    gravity_project,
    match_scans,
)
from ..thermal_map import ThermalFrame, ThermalPointCloud, VoxelSums, accumulate_map, extrude_walls, project_to_thermal


# A scan becomes a keyframe once it is KEYFRAME_DISTANCE (m) or
# KEYFRAME_ANGLE away from the current keyframe.
KEYFRAME_DISTANCE = 0.08
KEYFRAME_ANGLE = math.radians(10.0)

# A thermal frame is used only within THERMAL_WINDOW_NS of a keyframe and
# where the per-scan motion around it changes by at most MOTION_SMOOTH_XY
# (m) and MOTION_SMOOTH_THETA from one scan interval to the next.
THERMAL_WINDOW_NS = 250_000_000
MOTION_SMOOTH_XY = 0.01
MOTION_SMOOTH_THETA = math.radians(1.0)


@dataclass(eq=False)
class MappingResult:
    cloud: ThermalPointCloud
    trajectory: list[tuple[Timestamp, PlanarPose]]
    diagnostics: dict[str, object]


def _pose_lerp(a: PlanarPose, b: PlanarPose, frac: float) -> PlanarPose:
    return PlanarPose(
        a.x + (b.x - a.x) * frac,
        a.y + (b.y - a.y) * frac,
        a.theta + wrap_angle(b.theta - a.theta) * frac,
    )


class _DenseTrack:
    """Per-scan poses with interpolation and local-uniformity checks."""

    def __init__(self, stamps: np.ndarray, poses: list[PlanarPose]):
        self.stamps = stamps
        self.poses = poses

    def interval_of(self, stamp: int) -> int:
        i = int(np.searchsorted(self.stamps, stamp, side="right") - 1)
        return max(0, min(i, len(self.poses) - 2))

    def pose_at(self, stamp: int) -> PlanarPose:
        if len(self.poses) == 1:
            return self.poses[0]
        i = self.interval_of(stamp)
        t0, t1 = int(self.stamps[i]), int(self.stamps[i + 1])
        frac = 0.0 if t1 == t0 else (stamp - t0) / (t1 - t0)
        return _pose_lerp(self.poses[i], self.poses[i + 1], min(max(frac, 0.0), 1.0))

    def _motion(self, i: int) -> tuple[np.ndarray, float]:
        a, b = self.poses[i], self.poses[i + 1]
        return np.array([b.x - a.x, b.y - a.y]), wrap_angle(b.theta - a.theta)

    def is_smooth_at(self, stamp: int, tol_xy: float, tol_theta: float) -> bool:
        """True when motion around the stamp looks locally uniform.

        Interpolated poses are only trustworthy while the platform moves at
        constant velocity; intervals bracketing a speed or turn change are
        rejected so their thermal frames are skipped.
        """
        if len(self.poses) < 2:
            return True
        i = self.interval_of(stamp)
        v_i, s_i = self._motion(i)
        for j in (i - 1, i + 1):
            if 0 <= j < len(self.poses) - 1:
                v_j, s_j = self._motion(j)
                if float(np.linalg.norm(v_i - v_j)) > tol_xy:
                    return False
                if abs(wrap_angle(s_i - s_j)) > tol_theta:
                    return False
        return True


def run_mapping(dataset: SessionDataset) -> MappingResult:
    """Reconstruct a temperature-annotated wall map from one session.

    The map and trajectory live in the frame of the first usable scan
    (node 0). Deterministic: identical datasets produce identical results.

    Stages run so that each frees what the next does not need. The IMU
    readings are filtered into one gravity direction per reading, and each
    scan is paired with the direction nearest in time. Odometry then levels
    each scan and matches it against the current keyframe as soon as it is
    paired; it keeps only the keyframe scans and every scan's stamp and
    pose, so at most one scan that is not a keyframe exists at a time. Loop
    detection is the last reader of the keyframes' normals and search
    trees, which are dropped before the pose-graph solve. Painting reads
    only odometry poses, so it comes after the solve. One keyframe at a
    time, it extrudes the keyframe's cloud, paints it in place with its
    frames in session order, and folds it at its solved pose into the map's
    running voxel sums; the cloud and the camera-distance grid that
    painting needs are dropped before the next keyframe is extruded, so at
    most one of each exists. The finished sums are the map.
    """
    if not dataset.scans:
        raise ValueError("session has no scans")

    gravity = filter_gravity(dataset.imu)
    pairs, dropped_gravity = associate_gravity(dataset.scans, dataset.imu.stamps)

    # Scan-to-keyframe odometry: every scan is matched against the current
    # keyframe, so drift accumulates per keyframe hop rather than per scan.
    kf_scans: list[ProjectedScan] = []
    kf_poses: list[PlanarPose] = []
    kf_relatives: list[PlanarPose] = []
    scan_stamps: list[int] = []
    scan_poses: list[PlanarPose] = []
    degenerate = 0
    fallbacks = 0
    odometry_associations = 0
    rel_to_kf = PlanarPose()
    last_step = PlanarPose()
    current = None
    for scan, sample in pairs:
        try:
            current = gravity_project(scan, gravity[sample])
        except DegenerateScanError:
            degenerate += 1
            continue
        scan_stamps.append(current.stamp)
        if not kf_scans:
            kf_scans.append(current)
            kf_poses.append(PlanarPose())
            scan_poses.append(PlanarPose())
            continue
        guess = compose(rel_to_kf, last_step)
        result = match_scans(kf_scans[-1], current, initial_guess=guess)
        odometry_associations += result.associations
        rel = result.relative_pose  # the guess when the match did not converge
        if not result.converged:
            fallbacks += 1
        last_step = compose(inverse(rel_to_kf), rel)
        rel_to_kf = rel
        scan_poses.append(compose(kf_poses[-1], rel))
        if math.hypot(rel.x, rel.y) >= KEYFRAME_DISTANCE or abs(rel.theta) >= KEYFRAME_ANGLE:
            kf_scans.append(current)
            kf_relatives.append(rel)
            kf_poses.append(scan_poses[-1])
            rel_to_kf = PlanarPose()
    del pairs, gravity, current
    if not kf_scans:
        raise ValueError("no usable scans after gravity leveling")
    scan_stamps = np.array(scan_stamps, dtype=np.int64)

    loop_edges, loop_rejected, loop_associations = detect_loop_closures(kf_scans, kf_poses)
    # Extrusion reads only the points: fresh scans leave the matched ones'
    # normals and search trees behind.
    kf_scans = [ProjectedScan(s.stamp, s.points_xy) for s in kf_scans]

    edges: list[GraphEdge] = [
        GraphEdge(n, n + 1, rel, kind="odometry") for n, rel in enumerate(kf_relatives)
    ]
    edges.extend(loop_edges)
    solved = optimize(PoseGraph(kf_poses, edges))

    # Thermal attachment: each frame goes to the keyframe nearest in time,
    # with the camera pose interpolated from the dense odometry track.
    node_stamps = np.array([s.stamp for s in kf_scans], dtype=np.int64)
    track = _DenseTrack(scan_stamps, scan_poses)
    frames_used = 0
    frames_far = 0
    frames_unsteady = 0
    paint: list[list[tuple[ThermalFrame, RigidTransform3]]] = [[] for _ in kf_scans]
    for frame in dataset.frames:
        slot = int(np.searchsorted(node_stamps, frame.stamp))
        candidates = [i for i in (slot - 1, slot) if 0 <= i < len(node_stamps)]
        node = min(candidates, key=lambda i: abs(int(node_stamps[i]) - frame.stamp))
        if abs(int(node_stamps[node]) - frame.stamp) > THERMAL_WINDOW_NS:
            frames_far += 1
            continue
        if not track.is_smooth_at(frame.stamp, MOTION_SMOOTH_XY, MOTION_SMOOTH_THETA):
            frames_unsteady += 1
            continue
        sensor_at_frame = planar_to_rigid3(track.pose_at(frame.stamp), dataset.calib.sensor_height)
        node_lift = planar_to_rigid3(kf_poses[node], dataset.calib.sensor_height)
        camera_pose = dataset.calib.camera_extrinsic.compose(sensor_at_frame.inverse()).compose(node_lift)
        paint[node].append((frame, camera_pose))
        frames_used += 1

    final_poses = solved.graph.nodes
    fused = VoxelSums(dataset.calib)
    for scan, views, pose in zip(kf_scans, paint, final_poses):
        cloud = extrude_walls(scan, dataset.calib)
        distance = np.full(cloud.temperatures.shape, np.inf)
        for frame, camera_pose in views:
            project_to_thermal(cloud, distance, camera_pose, dataset.calib.intrinsics, frame)
        accumulate_map(fused, cloud, pose)
        del cloud, distance

    cloud = fused.finish(session_stamp=dataset.scans[0].stamp)
    trajectory = [(int(node_stamps[n]), final_poses[n]) for n in range(len(final_poses))]

    diagnostics: dict[str, object] = {
        "scans_total": len(dataset.scans),
        "scans_dropped_gravity": dropped_gravity,
        "scans_degenerate": degenerate,
        "keyframes": len(kf_scans),
        "odometry_fallbacks": fallbacks,
        "odometry_associations": odometry_associations,
        "frames_total": len(dataset.frames),
        "frames_used": frames_used,
        "frames_outside_window": frames_far,
        "frames_unsteady": frames_unsteady,
        "loop_edges": len(loop_edges),
        "loop_rejected": loop_rejected,
        "loop_associations": loop_associations,
        "pgo_converged": solved.converged,
        "pgo_iterations": solved.iterations,
        "pgo_initial_objective": solved.initial_objective,
        "pgo_final_objective": solved.final_objective,
        "map_points": len(cloud),
        "temperature_set_points": int(np.count_nonzero(np.isfinite(cloud.temperatures))),
    }
    if dataset.ground_truth is not None:
        diagnostics["ate_m"] = trajectory_ate(trajectory, dataset.ground_truth)
    return MappingResult(cloud=cloud, trajectory=trajectory, diagnostics=diagnostics)
