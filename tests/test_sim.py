from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from thermoslam import (
    NoiseSpec,
    PlanarPose,
    RigidTransform3,
    SimulationError,
    SiteModel,
    TrajectorySpec,
    WallSegment,
    linear_field,
    rectangle_site,
    simulate_session,
    trajectory_ate,
    two_room_site,
    uniform_field,
)
from thermoslam import sim
from thermoslam.cli_io import save_session
from thermoslam.core import fit_rigid_2d, rotation_about_z
from thermoslam.sim import (
    Timeline,
    field_from_config,
    intersect_rays,
    raycast_scan,
    sine_field,
    sunlit_field,
)


def _square_site(half: float = 2.0) -> SiteModel:
    walls = [
        WallSegment(-half, -half, half, -half, 3.0),
        WallSegment(half, -half, half, half, 3.0),
        WallSegment(half, half, -half, half, 3.0),
        WallSegment(-half, half, -half, -half, 3.0),
    ]
    return SiteModel(walls, uniform_field(20.0), floor_height=3.0)


def _pose3(x: float, y: float, z: float) -> RigidTransform3:
    return RigidTransform3(np.eye(3), np.array([x, y, z]))


# ---------------------------------------------------------------------------
# Geometry containers.


def test_wall_segment_validation():
    with pytest.raises(ValueError):
        WallSegment(0.0, 0.0, 0.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        WallSegment(0.0, 0.0, 1.0, 0.0, 0.0)


def test_site_model_validation():
    with pytest.raises(ValueError):
        SiteModel([], uniform_field(20.0), floor_height=3.0)
    with pytest.raises(ValueError):
        SiteModel([WallSegment(0, 0, 1, 0, 3.0)], uniform_field(20.0), floor_height=0.0)


def test_distance_to_walls_interior_and_endpoint():
    site = SiteModel([WallSegment(0.0, 0.0, 4.0, 0.0, 3.0)], uniform_field(20.0), floor_height=3.0)
    d = site.distance_to_walls([[2.0, 1.5], [6.0, 0.0], [-3.0, 4.0]])
    assert d[0] == pytest.approx(1.5)
    assert d[1] == pytest.approx(2.0)  # past the end: distance to the endpoint
    assert d[2] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Raycasting.


def test_intersect_rays_exact_hit():
    site = _square_site()
    dist, hits, wall = intersect_rays(site, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    assert dist[0] == pytest.approx(2.0)
    assert np.allclose(hits[0], [2.0, 0.0, 1.0])
    assert wall[0] == 1


def test_intersect_rays_miss_and_over_wall():
    site = _square_site()
    up = np.array([[0.0, 0.0, 1.0]])
    dist, hits, wall = intersect_rays(site, [[0.0, 0.0, 1.0]], up)
    assert not np.isfinite(dist[0])
    assert wall[0] == -1
    assert np.isnan(hits[0]).all()
    # A climbing ray reaches the wall plane above the 3 m top edge.
    d = np.array([[1.0, 0.0, 1.5]])
    d /= np.linalg.norm(d)
    dist, _, wall = intersect_rays(site, [[0.0, 0.0, 0.5]], d)
    assert not np.isfinite(dist[0])


def test_raycast_scan_matches_analytic_ranges(monkeypatch):
    monkeypatch.setattr(sim, "BEAM_COUNT", 8)
    site = _square_site(half=2.0)
    scan = raycast_scan(site, _pose3(0.0, 0.0, 1.0), stamp=5)
    assert scan.stamp == 5
    # The sweep starts at -pi, so beams 0 and 2 are axis-aligned wall-center
    # hits at exactly 2 m, and beam 1 reaches the (-2, -2) corner.
    assert scan.ranges[0] == pytest.approx(2.0)
    assert scan.ranges[2] == pytest.approx(2.0)
    assert scan.ranges[1] == pytest.approx(2.0 * math.sqrt(2.0))


def test_raycast_scan_range_max_drops_returns(monkeypatch):
    monkeypatch.setattr(sim, "BEAM_COUNT", 8)
    monkeypatch.setattr(sim, "RANGE_MAX", 1.5)
    site = _square_site(half=2.0)
    scan = raycast_scan(site, _pose3(0.0, 0.0, 1.0))
    assert np.isnan(scan.ranges).all()


def test_raycast_scan_noise_needs_a_generator():
    site = _square_site(half=2.0)
    with pytest.raises(ValueError, match="random generator"):
        raycast_scan(site, _pose3(0.0, 0.0, 1.0), noise=NoiseSpec(range_sigma=0.05))
    with pytest.raises(ValueError, match="random generator"):
        raycast_scan(site, _pose3(0.0, 0.0, 1.0), noise=NoiseSpec(range_dropout_prob=0.1))


def _intersect_rays_broadcast(site, origins, directions):
    """Reference: every ray against every segment in one (R, S) broadcast."""
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    p1, p2 = site._p1, site._p2
    e = p2 - p1
    dxy = d[:, :2]
    rel = p1[None, :, :] - o[:, None, :2]
    denom = dxy[:, None, 0] * e[None, :, 1] - dxy[:, None, 1] * e[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[:, :, 0] * e[None, :, 1] - rel[:, :, 1] * e[None, :, 0]) / denom
        s = (rel[:, :, 0] * dxy[:, None, 1] - rel[:, :, 1] * dxy[:, None, 0]) / denom
        z_hit = o[:, None, 2] + t * d[:, None, 2]
    ok = (
        (np.abs(denom) > 1e-15)
        & (t > 1e-9)
        & (s >= 0.0)
        & (s <= 1.0)
        & (z_hit >= -1e-12)
        & (z_hit <= site._heights[None, :] + 1e-12)
    )
    t = np.where(ok, t, np.inf)
    dist = t.min(axis=1)
    wall = np.where(np.isfinite(dist), t.argmin(axis=1), -1)
    with np.errstate(invalid="ignore"):
        hits = o + dist[:, None] * d
    hits[~np.isfinite(dist)] = np.nan
    return dist, hits, wall


def _assert_matches_broadcast(site, origins, directions):
    dist, hits, wall = intersect_rays(site, origins, directions)
    ref_dist, ref_hits, ref_wall = _intersect_rays_broadcast(site, origins, directions)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(hits, ref_hits, equal_nan=True)
    assert np.array_equal(wall, ref_wall)
    return dist, wall


def _unit(v) -> np.ndarray:
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("site_fn", [two_room_site, rectangle_site])
def test_intersect_rays_matches_broadcast_on_random_rays(site_fn):
    site = site_fn()
    lo = np.minimum(site._p1, site._p2).min(axis=0) - 0.5
    hi = np.maximum(site._p1, site._p2).max(axis=0) + 0.5
    rng = np.random.default_rng(31)
    hit_counts = []
    for _ in range(4):
        n = 2000
        origins = np.column_stack([rng.uniform(lo[0], hi[0], n), rng.uniform(lo[1], hi[1], n), rng.uniform(-0.5, 3.5, n)])
        directions = _unit(rng.standard_normal((n, 3)) * [1.0, 1.0, 0.4])
        dist, _ = _assert_matches_broadcast(site, origins, directions)
        hit_counts.append(np.isfinite(dist).sum())
        # One origin shared by every ray, given once and given per ray.
        _assert_matches_broadcast(site, origins[:1], directions)
        _assert_matches_broadcast(site, np.repeat(origins[:1], n, axis=0), directions)
    assert min(hit_counts) > 0


def test_intersect_rays_matches_broadcast_on_edge_cases():
    site = rectangle_site()  # walls 0..3: y = 0, x = 4, y = 4, x = 0
    # Parallel to walls 0 and 2 (denom == 0), including one ray along wall 0's line.
    _, wall = _assert_matches_broadcast(site, [[2.0, 1.0, 1.0], [-1.0, 0.0, 1.0]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert wall[0] == 1
    # Climbing over wall 1's 3 m top edge, just under it, and diving under the floor.
    dirs = _unit([[1.0, 0.0, 1.5], [1.0, 0.0, 1.2], [1.0, 0.0, -0.5]])
    dist, wall = _assert_matches_broadcast(site, [[2.0, 2.0, 0.5]], dirs)
    assert wall.tolist() == [-1, 1, -1]
    assert np.isinf(dist[0]) and np.isinf(dist[2])


def test_intersect_rays_corner_tie_goes_to_lowest_wall():
    site = rectangle_site()
    # Toward corner (0, 0) the first ray meets walls 0 and 3; toward (0, 4)
    # the second meets walls 2 and 3.
    origins = np.array([[2.0, 2.0, 1.0], [1.0, 3.0, 1.0]])
    dirs = _unit([[-2.0, -2.0, 0.0], [-1.0, 1.0, 0.0]])
    for ray, tied in enumerate([(0, 3), (2, 3)]):
        # Each wall of the pair, alone, is hit at exactly the same distance.
        alone = [
            intersect_rays(SiteModel([site.walls[w]], site.temperature_field, site.floor_height), origins[ray], dirs[ray])[0][0]
            for w in tied
        ]
        assert np.isfinite(alone[0]) and alone[0] == alone[1]
    _, wall = _assert_matches_broadcast(site, origins, dirs)
    assert wall.tolist() == [0, 2]


# ---------------------------------------------------------------------------
# Thermal rendering.


def _render_thermal_all_rays(site, camera_pose, intrinsics, noise, rng, stamp=0):
    """Reference: every pixel ray cast against every wall."""
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
    dist, hits, wall = intersect_rays(site, cam_to_world.translation[None, :], rays_world)
    hit_mask = np.isfinite(dist)
    temps = np.full(w * h, site.ambient_c)
    if np.any(hit_mask):
        temps[hit_mask] = site.sample_temperature(hits[hit_mask], wall[hit_mask])
    haze = float(noise.haze_attenuation)
    if haze > 0.0:
        temps = (1.0 - haze) * temps + haze * site.ambient_c
        temps[~hit_mask] = site.ambient_c
    if noise.thermal_noise_sigma > 0.0:
        temps = temps + noise.thermal_noise_sigma * rng.standard_normal(w * h)
    temps = np.clip(temps, -39.0, 299.0)
    return sim.ThermalImage(stamp, temps.reshape(h, w))


def _camera_pose(x, y, z, yaw, roll=0.0, pitch=0.0) -> RigidTransform3:
    """World-to-camera pose of the rig's camera, its scanner at (x, y, z) with the given attitude."""
    sensor = RigidTransform3(sim._attitude(yaw, roll, pitch), np.array([x, y, z]))
    return sim.default_camera_extrinsic().compose(sensor.inverse())


def _assert_render_matches_all_rays(site, pose, noise, seed):
    got = sim.render_thermal(site, pose, sim.INTRINSICS, noise, np.random.default_rng(seed), stamp=seed)
    ref = _render_thermal_all_rays(site, pose, sim.INTRINSICS, noise, np.random.default_rng(seed), stamp=seed)
    assert got.stamp == ref.stamp
    assert np.array_equal(got.temperatures, ref.temperatures)
    return got.temperatures


@pytest.mark.parametrize(
    "site",
    [
        two_room_site(),
        rectangle_site(field_config={"kind": "sine", "base": 22.0, "amp": 3.0, "kx": 2.1, "ky": 1.3, "gz": 0.9}),
    ],
    ids=["two_room", "rectangle"],
)
def test_render_thermal_blocks_match_all_rays_on_random_poses(site):
    lo = np.minimum(site._p1, site._p2).min(axis=0)
    hi = np.maximum(site._p1, site._p2).max(axis=0)
    noises = [NoiseSpec(), NoiseSpec(haze_attenuation=0.3, thermal_noise_sigma=0.5)]
    tilt = math.radians(3.0)
    rng = np.random.default_rng(26)
    ambient = 0
    for i in range(120):
        x, y = rng.uniform(lo + 0.01, hi - 0.01)
        if site.distance_to_walls([[x, y]])[0] < 1e-3:
            continue
        pose = _camera_pose(x, y, rng.uniform(0.05, 2.8), rng.uniform(-math.pi, math.pi), *rng.uniform(-tilt, tilt, 2))
        temps = _assert_render_matches_all_rays(site, pose, noises[i % 2], seed=i)
        ambient += int(np.any(temps == site.ambient_c))
    assert ambient > 0  # some views see past the walls' top or bottom edge
    # Within 1 cm of a wall: facing it, along it and away from it; then
    # into corners, from a camera just above the wall tops and from one
    # near the floor.
    width, depth = hi - lo
    special = [
        (lo[0] + 0.5 * width, lo[1] + 0.01, 0.6, -0.5 * math.pi),
        (lo[0] + 0.5 * width, lo[1] + 0.01, 0.6, 0.0),
        (lo[0] + 0.5 * width, lo[1] + 0.005, 1.2, math.pi),
        (lo[0] + 0.5 * width, lo[1] + 0.01, 0.6, 0.5 * math.pi),
        (lo[0] + 0.01, lo[1] + 0.01, 0.6, -0.75 * math.pi),
        (lo[0] + 0.5, lo[1] + 0.5, 0.6, -0.75 * math.pi),
        (hi[0] - 0.5, hi[1] - 0.5, 1.5, 0.25 * math.pi),
        (lo[0] + 0.4, lo[1] + 0.4, 2.99, 0.25 * math.pi),
        (lo[0] + 0.4, lo[1] + 0.4, 0.01, 0.25 * math.pi),
    ]
    for j, (x, y, z, yaw) in enumerate(special):
        for roll, pitch in [(0.0, 0.0), (tilt, -tilt), (-tilt, tilt)]:
            _assert_render_matches_all_rays(site, _camera_pose(x, y, z, yaw, roll, pitch), noises[j % 2], seed=j)


# ---------------------------------------------------------------------------
# Temperature fields.


def test_field_presets_closed_form():
    x = np.array([1.0, 2.0])
    y = np.array([0.5, -1.0])
    z = np.array([0.0, 2.0])
    ids = np.array([0, 0])
    assert np.allclose(uniform_field(21.0)(x, y, z, ids), 21.0)
    lin = linear_field(20.0, gx=1.0, gy=-2.0, gz=0.5)
    assert np.allclose(lin(x, y, z, ids), 20.0 + x - 2.0 * y + 0.5 * z)
    sin = sine_field(20.0, amp=3.0, kx=1.0, ky=0.0)
    assert np.allclose(sin(x, y, z, ids), 20.0 + 3.0 * np.sin(x))


def test_sunlit_field_warms_facing_walls():
    walls = [WallSegment(0, 0, 4, 0, 3.0), WallSegment(0, 0, 0, 4, 3.0)]
    field = sunlit_field(walls, warm=30.0, cool=10.0, sun_direction_rad=math.pi / 2.0)
    temps = field(np.zeros(2), np.zeros(2), np.zeros(2), np.array([0, 1]))
    # Wall 0 runs along x, normal along y: fully sunlit. Wall 1 is edge-on.
    assert temps[0] == pytest.approx(30.0)
    assert temps[1] == pytest.approx(10.0)


def test_field_from_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        field_from_config({"kind": "volcanic"}, [])


def test_bundled_sites():
    site = two_room_site()
    assert len(site.walls) == 7
    assert site.floor_height == 3.0
    rect = rectangle_site(width=5.0, depth=2.0)
    assert len(rect.walls) == 4
    xs = [w.x1 for w in rect.walls] + [w.x2 for w in rect.walls]
    assert max(xs) - min(xs) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Trajectories.


def test_trajectory_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(waypoints=())
    with pytest.raises(ValueError):
        TrajectorySpec(waypoints=((0.0, 0.0), (1.0, 0.0)), speed=0.0)
    with pytest.raises(ValueError):
        TrajectorySpec(waypoints=((0.0, 0.0),), imu_rate=5.0, scan_rate=10.0)
    bad = [
        ("speed", math.inf),
        ("speed", math.nan),
        ("turn_rate", math.inf),
        ("turn_rate", math.nan),
        ("scan_rate", math.nan),
        ("imu_rate", math.inf),
        ("imu_rate", math.nan),
        ("thermal_rate", math.nan),
        ("hold_s", -1.0),
        ("hold_s", math.nan),
        ("hold_s", math.inf),
        ("waypoints", ((0.0, 0.0), (math.nan, 1.0))),
        ("waypoints", ((math.inf, 0.0),)),
    ]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            TrajectorySpec(**{"waypoints": ((0.0, 0.0), (1.0, 0.0)), name: value})


def test_timeline_moves_at_constant_speed():
    traj = TrajectorySpec(waypoints=((0.0, 0.0), (2.0, 0.0)), speed=0.5)
    timeline = Timeline(traj)
    assert timeline.duration == pytest.approx(4.0)
    p = timeline.pose_at(1.0)
    assert p.x == pytest.approx(0.5)
    assert p.y == 0.0
    assert p.theta == 0.0
    # Clamped beyond the end.
    end = timeline.pose_at(99.0)
    assert end.x == pytest.approx(2.0)


def test_timeline_turns_in_place_between_legs():
    traj = TrajectorySpec(
        waypoints=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), speed=1.0, turn_rate=math.radians(90.0)
    )
    timeline = Timeline(traj)
    # 1 s leg, 1 s turn through 90 degrees, 1 s leg.
    assert timeline.duration == pytest.approx(3.0)
    mid_turn = timeline.pose_at(1.5)
    assert mid_turn.x == pytest.approx(1.0)
    assert mid_turn.theta == pytest.approx(math.radians(45.0))


def test_stationary_trajectory_needs_hold():
    with pytest.raises(SimulationError):
        Timeline(TrajectorySpec(waypoints=((0.0, 0.0),))).pose_at(0.0)
    timeline = Timeline(TrajectorySpec(waypoints=((0.5, 0.5),), hold_s=2.0))
    assert timeline.duration == pytest.approx(2.0)
    assert timeline.pose_at(1.0) == PlanarPose(0.5, 0.5, 0.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(range_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(range_dropout_prob=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(haze_attenuation=-0.2)
    for name in ("range_sigma", "gravity_tilt_sigma", "accel_noise_sigma", "thermal_noise_sigma"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                NoiseSpec(**{name: value})
    for name in ("range_dropout_prob", "haze_attenuation"):
        with pytest.raises(ValueError, match=name):
            NoiseSpec(**{name: math.nan})


# ---------------------------------------------------------------------------
# Full sessions.


def test_simulate_session_stream_sizes_and_stamps():
    site = _square_site()
    traj = TrajectorySpec(waypoints=((-1.0, 0.0), (1.0, 0.0)), speed=0.5, scan_rate=10.0, imu_rate=50.0, thermal_rate=2.0)
    dataset = simulate_session(site, traj, NoiseSpec(), seed=1)
    assert len(dataset.scans) == 40
    assert len(dataset.imu) == 200
    assert len(dataset.frames) == 8
    stamps = [s.stamp for s in dataset.scans]
    assert stamps == sorted(stamps)
    assert stamps[1] - stamps[0] == 100_000_000
    assert dataset.ground_truth is not None
    assert [s for s, _ in dataset.ground_truth] == stamps


def test_simulate_session_rejects_path_through_wall():
    site = _square_site(half=1.0)
    traj = TrajectorySpec(waypoints=((0.0, 0.0), (5.0, 0.0)))
    with pytest.raises(SimulationError):
        simulate_session(site, traj, NoiseSpec(), seed=1)


def test_simulate_session_same_seed_is_identical():
    site = _square_site()
    traj = TrajectorySpec(waypoints=((-1.0, 0.0), (1.0, 0.0)), speed=0.5)
    noise = NoiseSpec(range_sigma=0.02, gravity_tilt_sigma=math.radians(1.0), thermal_noise_sigma=0.4)
    a = simulate_session(site, traj, noise, seed=42)
    b = simulate_session(site, traj, noise, seed=42)
    for scan_a, scan_b in zip(a.scans, b.scans):
        assert np.array_equal(scan_a.ranges, scan_b.ranges, equal_nan=True)
    assert np.array_equal(a.imu.stamps, b.imu.stamps)
    assert np.array_equal(a.imu.accel, b.imu.accel)
    for frame_a, frame_b in zip(a.frames, b.frames):
        assert np.array_equal(frame_a.temperatures, frame_b.temperatures)
    c = simulate_session(site, traj, noise, seed=43)
    assert not all(
        np.array_equal(x.ranges, y.ranges, equal_nan=True) for x, y in zip(a.scans, c.scans)
    )


def test_simulated_gravity_points_down_when_level():
    site = _square_site()
    traj = TrajectorySpec(waypoints=((-1.0, 0.0), (1.0, 0.0)), speed=0.5)
    dataset = simulate_session(site, traj, NoiseSpec(), seed=3)
    for accel in dataset.imu.accel[:20]:
        direction = accel / np.linalg.norm(accel)
        assert np.allclose(direction, [0.0, 0.0, -1.0], atol=1e-12)


def test_simulated_thermal_frames_read_wall_field():
    # Uniform field: every wall pixel reads the same temperature.
    site = SiteModel(_square_site().walls, uniform_field(24.0), floor_height=3.0)
    traj = TrajectorySpec(waypoints=((0.0, 0.0),), hold_s=1.0)
    dataset = simulate_session(site, traj, NoiseSpec(), seed=4)
    frame = dataset.frames[0]
    wall_pixels = np.abs(frame.temperatures - 24.0) < 1e-6
    assert wall_pixels.mean() > 0.5
    # Sky/floor pixels fall back to ambient.
    assert np.all((wall_pixels) | (np.abs(frame.temperatures - site.ambient_c) < 1e-6))


def _tree_sha256(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# First leg of the smoke tour through the two-room site.
PINNED_WAYPOINTS = ((1.0, 0.8), (3.2, 2.1))
PINNED_SESSION_SHA256 = "2acbca0d43023ac343274cd5b711467566b26a5604dad3c6fd4fa09957537257"


def test_simulated_session_pins_bytes(tmp_path):
    # A noisy session exercises tilted scan rays and the thermal noise
    # stream, so any change to a simulated float moves this digest.
    noise = NoiseSpec(range_sigma=0.01, gravity_tilt_sigma=math.radians(1.0), thermal_noise_sigma=0.5)
    traj = TrajectorySpec(waypoints=PINNED_WAYPOINTS, speed=1.0)
    dataset = simulate_session(two_room_site(), traj, noise, seed=11)
    assert (len(dataset.scans), len(dataset.imu), len(dataset.frames)) == (26, 256, 13)
    save_session(dataset, tmp_path)
    assert _tree_sha256(tmp_path) == PINNED_SESSION_SHA256


# One lap of the 4-wall room with a sine field, so both bundled sites are
# pinned at session level.
PINNED_RECTANGLE_FIELD = {"kind": "sine", "base": 22.0, "amp": 3.0, "kx": 0.8, "ky": 0.5, "gz": 0.5}
PINNED_RECTANGLE_WAYPOINTS = ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0))
PINNED_RECTANGLE_SESSION_SHA256 = "bba1544410a1141911f0a5f5dce0d52e158a9bb5393549ae8ad8c1fea0b1aa08"


def test_simulated_rectangle_session_pins_bytes(tmp_path):
    noise = NoiseSpec(gravity_tilt_sigma=math.radians(1.5), thermal_noise_sigma=0.5)
    traj = TrajectorySpec(waypoints=PINNED_RECTANGLE_WAYPOINTS, speed=1.0, turn_rate=math.radians(90.0))
    dataset = simulate_session(rectangle_site(field_config=PINNED_RECTANGLE_FIELD), traj, noise, seed=7)
    assert (len(dataset.scans), len(dataset.imu), len(dataset.frames)) == (110, 1100, 55)
    save_session(dataset, tmp_path)
    assert _tree_sha256(tmp_path) == PINNED_RECTANGLE_SESSION_SHA256


# ---------------------------------------------------------------------------
# Trajectory evaluation.


def test_align_trajectory_2d_recovers_offset():
    rng = np.random.default_rng(14)
    ref = rng.uniform(-3, 3, (30, 2))
    theta = 0.6
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    est = (ref - np.array([1.0, -2.0])) @ rot  # ref = R @ est + t
    theta_fit, t_fit = fit_rigid_2d(est, ref)
    rot_fit = rotation_about_z(theta_fit)[:2, :2]
    assert np.allclose(est @ rot_fit.T + t_fit, ref, atol=1e-9)


def test_trajectory_ate_alignment_and_errors():
    truth = [(k, PlanarPose(0.1 * k, 0.0, 0.0)) for k in range(20)]
    shifted = [(k, PlanarPose(0.1 * k + 1.0, 0.5, 0.0)) for k in range(20)]
    assert trajectory_ate(shifted, truth) == pytest.approx(0.0, abs=1e-12)
    # Fewer than 3 shared stamps leave the rigid fit undetermined.
    assert math.isnan(trajectory_ate([(100, PlanarPose())], truth))
    assert math.isnan(trajectory_ate(shifted[:2], truth))
    assert trajectory_ate(shifted[:3], truth) == pytest.approx(0.0, abs=1e-12)
