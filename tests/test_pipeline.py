"""Stage order and memory of ``cli_io.pipeline.run_mapping``.

Odometry levels and matches each scan as it arrives and keeps only the
keyframe scans. The pipeline solves the pose graph before any wall cloud exists, then
extrudes and paints one keyframe at a time, in place, with a distance grid
that lives only while that keyframe is painted, and folds the painted
cloud into the map before the next keyframe is extruded. These tests watch the calls
through the pipeline module's names, the same names the benchmark's tracer
wraps.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from thermoslam import NoiseSpec, ProjectedScan, TrajectorySpec, rectangle_site, simulate_session
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


def test_run_mapping_holds_only_the_keyframe_scans_and_the_latest(looped_session, monkeypatch):
    live = weakref.WeakSet()  # every ProjectedScan made during the run
    keyframes = weakref.WeakSet()  # every scan odometry matched against
    post_init = ProjectedScan.__post_init__

    def tracked(self):
        post_init(self)
        live.add(self)

    monkeypatch.setattr(ProjectedScan, "__post_init__", tracked)
    match, solve = pipeline.match_scans, pipeline.optimize
    at_match = []
    at_solve = []

    def counted_match(reference, moving, **kwargs):
        keyframes.add(reference)
        at_match.append((len(live), len(keyframes)))
        return match(reference, moving, **kwargs)

    def counted_solve(graph):
        gc.collect()
        at_solve.append((len(live), len(graph.nodes)))
        return solve(graph)

    monkeypatch.setattr(pipeline, "match_scans", counted_match)
    monkeypatch.setattr(pipeline, "optimize", counted_solve)
    diagnostics = pipeline.run_mapping(looped_session).diagnostics
    assert len(at_match) == len(looped_session.scans) - 1 > diagnostics["keyframes"]
    # At each odometry match only the keyframes so far and the scan being
    # matched exist; leveling every scan first would hold them all.
    assert all(held <= kept + 1 for held, kept in at_match), max(held - kept for held, kept in at_match)
    # Past loop detection only the keyframes' points are left.
    assert at_solve == [(diagnostics["keyframes"], diagnostics["keyframes"])]
