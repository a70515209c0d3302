"""Stage order and memory of ``cli_io.pipeline.run_mapping``.

The pipeline solves the pose graph before any wall cloud exists, then
extrudes and paints one keyframe at a time, in place, with a distance grid
that lives only while that keyframe is painted, and folds the painted
cloud into the map before the next keyframe is extruded. These tests watch the calls
through the pipeline module's names, the same names the benchmark's tracer
wraps.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from thermoslam import GravityVector, NoiseSpec, TrajectorySpec, rectangle_site, simulate_session
from thermoslam.cli_io import pipeline

# Two laps of a square inside the 4 x 4 m room: the second lap revisits the
# first one's keyframes, so loop detection has edges to accept, and every
# wall is painted by about twice as many keyframes as it has map cells.
SQUARE = ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0))
TWO_LAPS = SQUARE + SQUARE + SQUARE[:1]


@pytest.fixture(scope="module")
def looped_session():
    traj = TrajectorySpec(waypoints=TWO_LAPS, speed=1.0, thermal_rate=2.0)
    return simulate_session(rectangle_site(), traj, NoiseSpec(), seed=3)


def test_run_mapping_solves_first_then_paints_one_keyframe_at_a_time(looped_session, monkeypatch):
    calls = []

    def log(name):
        original = getattr(pipeline, name)

        def logged(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(pipeline, name, logged)

    for name in ("detect_loop_closures", "optimize", "extrude_walls", "project_to_thermal", "accumulate_map"):
        log(name)
    diagnostics = pipeline.run_mapping(looped_session).diagnostics
    names = [name for name, _, _ in calls]
    assert diagnostics["loop_edges"] > 0
    assert names.index("detect_loop_closures") < names.index("optimize") < names.index("extrude_walls")
    assert names.count("extrude_walls") == diagnostics["keyframes"]
    assert names.count("project_to_thermal") == diagnostics["frames_used"] > 0

    # Every frame paints, in place, the cloud that the latest extrusion
    # returned, so each keyframe's frames come in one run; frames keep
    # session order. Each cloud is folded into the map exactly once, after
    # its last frame and before the next extrusion, at its solved pose.
    solved = calls[names.index("optimize")][2].graph.nodes
    extruded = []
    folded = []
    stamps = []
    for name, args, result in calls:
        if name == "extrude_walls":
            assert len(folded) == len(extruded)
            extruded.append(result)
        elif name == "project_to_thermal":
            assert result is None
            assert len(folded) == len(extruded) - 1
            assert args[0] is extruded[-1]
            assert args[1].shape == args[0].temperatures.shape
            stamps.append(args[4].stamp)
        elif name == "accumulate_map":
            assert result is None
            assert args[0] is calls[-1][1][0]
            assert args[1] is extruded[-1]
            assert args[2] is solved[len(folded)]
            folded.append(args[1])
    assert stamps == sorted(stamps)
    assert names[-1] == "accumulate_map"
    assert len(folded) == len(extruded)


def test_run_mapping_never_holds_every_keyframe_grid(looped_session, monkeypatch):
    grid_bytes = 0
    extrude = pipeline.extrude_walls

    def counted(scan, calib):
        nonlocal grid_bytes
        cloud = extrude(scan, calib)
        # The cloud's temperature grid and the painting loop's distance grid.
        grid_bytes += 2 * cloud.temperatures.nbytes
        return cloud

    monkeypatch.setattr(pipeline, "extrude_walls", counted)
    tracemalloc.start()
    try:
        pipeline.run_mapping(looped_session)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Holding the temperature and distance grids of all keyframes at once
    # would alone reach grid_bytes. Each keyframe's grids are folded into
    # the map's voxel sums and dropped before the next keyframe's exist.
    assert peak < grid_bytes / 2


def test_run_mapping_keeps_only_the_paired_gravity_for_the_solve(looped_session, monkeypatch):
    def live_gravity():
        gc.collect()
        return sum(isinstance(obj, GravityVector) for obj in gc.get_objects())

    solve = pipeline.optimize
    held = []

    def counted(graph):
        held.append(live_gravity())
        return solve(graph)

    monkeypatch.setattr(pipeline, "optimize", counted)
    before = live_gravity()
    pipeline.run_mapping(looped_session)
    # One filtered vector per IMU sample would be many times the scan count;
    # only each scan's paired vector may outlive the pairing.
    assert held[0] - before <= len(looped_session.scans)
