"""Thermal 2.5D mapping toolkit.

Reconstructs temperature-annotated wall point clouds from 2D range scans,
IMU gravity, and radiometric thermal frames; refines trajectories with a
relative-pose graph over odometry and loop-closure edges; and compares
maps across sessions for concrete curing-heat monitoring. A synthetic-site
simulator provides ground truth for every stage.
"""

from .core import (
    HuberLoss,
    ImuSeries,
    PlanarPose,
    RigidTransform3,
    Scan2D,
    SessionDataset,
    compose,
    inverse,
    planar_to_rigid3,
    rotation_about_z,
    rotation_aligning,
    trajectory_ate,
    wrap_angle,
)
from .scan_frontend import (
    DegenerateScanError,
    MatchResult,
    ProjectedScan,
    associate_gravity,
    filter_gravity,
    gravity_project,
    match_scans,
)
from .thermal_map import (
    Calibration,
    CameraIntrinsics,
    ThermalImage,
    ThermalPointCloud,
    VoxelSums,
    WallCloud,
    accumulate_map,
    extrude_walls,
    project_to_thermal,
    voxel_thin,
)
from .pose_graph import (
    DisconnectedGraphError,
    GraphEdge,
    OptimizeResult,
    PoseGraph,
    detect_loop_closures,
    optimize,
)
from .monitor import (
    AlignmentError,
    DeltaReport,
    MaturityRecord,
    accumulate_maturity,
    icp_align,
    rate_alert,
    temperature_delta,
    transform_cloud,
)
from .sim import (
    NoiseSpec,
    SimulationError,
    SiteModel,
    TrajectorySpec,
    WallSegment,
    linear_field,
    rectangle_site,
    simulate_session,
    two_room_site,
    uniform_field,
)

__version__ = "0.1.0"
