from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from thermoslam import (
    DisconnectedGraphError,
    GraphEdge,
    PlanarPose,
    PoseGraph,
    ProjectedScan,
    compose,
    detect_loop_closures,
    inverse,
    match_scans,
    optimize,
)
from thermoslam import pose_graph
from thermoslam.pose_graph import objective, relative_pose_residuals


# ---------------------------------------------------------------------------
# Containers.


def test_graph_edge_validation():
    with pytest.raises(ValueError):
        GraphEdge(1, 1, PlanarPose())
    with pytest.raises(ValueError):
        GraphEdge(0, 1, PlanarPose(), kind="guess")


def test_pose_graph_validation_and_lookup():
    nodes = [PlanarPose(), PlanarPose(1.0, 0.0, 0.0)]
    graph = PoseGraph(nodes, [GraphEdge(0, 1, PlanarPose())])
    assert graph.nodes[1] is nodes[1]
    with pytest.raises(ValueError):
        PoseGraph(nodes, [GraphEdge(0, 9, PlanarPose())])


@pytest.mark.parametrize("endpoint", [-1, 2], ids=["negative", "past_end"])
def test_pose_graph_rejects_endpoint_outside_nodes(endpoint):
    nodes = [PlanarPose(), PlanarPose(1.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="unknown node"):
        PoseGraph(nodes, [GraphEdge(0, endpoint, PlanarPose())])
    with pytest.raises(ValueError, match="unknown node"):
        PoseGraph(nodes, [GraphEdge(endpoint, 1, PlanarPose())])
    # The same check runs again when an edge is appended after construction.
    graph = PoseGraph(nodes, [GraphEdge(0, 1, PlanarPose())])
    graph.edges.append(GraphEdge(0, endpoint, PlanarPose(), kind="loop_closure"))
    with pytest.raises(ValueError, match="unknown node"):
        optimize(graph)


# ---------------------------------------------------------------------------
# Relative-pose residuals.


def _rows(poses: list[PlanarPose]) -> np.ndarray:
    return np.array([[p.x, p.y, p.theta] for p in poses])


def test_relative_pose_residual_zero_when_consistent():
    rng = np.random.default_rng(9)
    poses_i, poses_j, measured = [], [], []
    for _ in range(50):
        poses_i.append(PlanarPose(*rng.uniform(-3, 3, 3)))
        measured.append(PlanarPose(*rng.uniform(-1, 1, 3)))
        poses_j.append(compose(poses_i[-1], measured[-1]))
    r, _, _ = relative_pose_residuals(_rows(poses_i), _rows(poses_j), _rows(measured))
    assert r.shape == (50, 3)
    assert np.abs(r).max() < 1e-12


def test_relative_pose_residual_is_gauge_invariant():
    rng = np.random.default_rng(10)
    poses_i, poses_j, measured, gauges = [], [], [], []
    for _ in range(20):
        poses_i.append(PlanarPose(*rng.uniform(-3, 3, 3)))
        poses_j.append(PlanarPose(*rng.uniform(-3, 3, 3)))
        measured.append(PlanarPose(*rng.uniform(-1, 1, 3)))
        gauges.append(PlanarPose(*rng.uniform(-5, 5, 3)))
    r0, _, _ = relative_pose_residuals(_rows(poses_i), _rows(poses_j), _rows(measured))
    r1, _, _ = relative_pose_residuals(
        _rows([compose(g, p) for g, p in zip(gauges, poses_i)]),
        _rows([compose(g, p) for g, p in zip(gauges, poses_j)]),
        _rows(measured),
    )
    assert np.allclose(r0, r1, atol=1e-9)


# ---------------------------------------------------------------------------
# Optimization.


def _chain_graph(n: int = 5, perturb: float = 0.0, seed: int = 0):
    """Chain of n nodes; optional noise corrupts the odometry measurements."""
    rng = np.random.default_rng(seed)
    truth = [PlanarPose()]
    for k in range(1, n):
        truth.append(compose(truth[-1], PlanarPose(0.5, 0.05 * (k % 2), 0.2)))
    edges = []
    for k in range(n - 1):
        measured = compose(inverse(truth[k]), truth[k + 1])
        if perturb > 0.0:
            measured = PlanarPose(
                measured.x + rng.normal(0, perturb),
                measured.y + rng.normal(0, perturb),
                measured.theta + rng.normal(0, perturb),
            )
        edges.append(GraphEdge(k, k + 1, measured))
    init = [PlanarPose()]
    for edge in edges:
        init.append(compose(init[-1], edge.measured))
    return PoseGraph(init, edges), truth


def test_objective_zero_on_consistent_chain():
    graph, _ = _chain_graph()
    assert objective(graph) < 1e-20


def test_optimize_consistent_chain_is_fixed_point():
    graph, _ = _chain_graph()
    before = [(p.x, p.y, p.theta) for p in graph.nodes]
    result = optimize(graph)
    assert result.converged
    after = [(p.x, p.y, p.theta) for p in result.graph.nodes]
    assert np.allclose(np.asarray(after), np.asarray(before), atol=1e-10)


def test_optimize_keeps_anchor_bitwise():
    graph, truth = _chain_graph(perturb=0.01, seed=3)
    loop = GraphEdge(0, 4, compose(inverse(truth[0]), truth[4]), kind="loop_closure")
    graph.edges.append(loop)
    anchor_before = graph.nodes[0]
    result = optimize(graph)
    assert result.graph.nodes[0] is anchor_before
    assert result.final_objective <= result.initial_objective


def test_optimize_improves_noisy_loop():
    graph, truth = _chain_graph(n=6, perturb=0.02, seed=4)
    graph.edges.append(GraphEdge(0, 5, compose(inverse(truth[0]), truth[5]), kind="loop_closure"))

    def worst_error(g):
        return max(
            math.hypot(p.x - t.x, p.y - t.y) for p, t in zip(g.nodes, truth)
        )

    before = worst_error(graph)
    result = optimize(graph)
    assert result.converged
    assert worst_error(result.graph) < before
    assert result.final_objective < result.initial_objective


def test_optimize_large_loop_graph_stays_small():
    # Two laps of 500 nodes each with noisy odometry and a closure every
    # tenth node of the second lap. A dense (3N)^2 Hessian alone would be
    # 72 MB here; the sparse solve needs a few.
    rng = np.random.default_rng(16)
    step = PlanarPose(0.1, 0.0, 2.0 * math.pi / 500)
    truth = [PlanarPose()]
    for _ in range(999):
        truth.append(compose(truth[-1], step))
    edges = []
    init = [PlanarPose()]
    for k in range(999):
        noise = PlanarPose(*rng.normal(0.0, [0.01, 0.01, 0.002]))
        edges.append(GraphEdge(k, k + 1, compose(step, noise)))
        init.append(compose(init[-1], edges[-1].measured))
    for k in range(0, 500, 10):
        edges.append(GraphEdge(k, k + 500, compose(inverse(truth[k]), truth[k + 500]), kind="loop_closure"))
    graph = PoseGraph(init, edges)

    tracemalloc.start()
    try:
        result = optimize(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged
    assert result.final_objective < result.initial_objective
    assert peak < 16 * 2**20


def test_optimize_requires_anchor_and_connectivity():
    with pytest.raises(ValueError, match="gauge anchor"):
        optimize(PoseGraph([], []))
    disconnected = PoseGraph([PlanarPose() for _ in range(3)], [GraphEdge(0, 1, PlanarPose())])
    with pytest.raises(DisconnectedGraphError):
        optimize(disconnected)


def test_optimize_single_node_graph():
    graph = PoseGraph([PlanarPose(1.0, 2.0, 0.5)], [])
    result = optimize(graph)
    assert result.converged
    assert result.iterations == 0
    assert result.graph.nodes[0] == PlanarPose(1.0, 2.0, 0.5)


# ---- loop-closure detection ----


def _room_scans(poses: list[PlanarPose], n: int = 160, half: float = 2.0) -> list[ProjectedScan]:
    # One shared square room seen in each pose's sensor frame.
    edge = np.linspace(-half, half, n // 4, endpoint=False)
    world = np.concatenate(
        [
            np.column_stack([edge, np.full_like(edge, -half)]),
            np.column_stack([np.full_like(edge, half), edge]),
            np.column_stack([-edge, np.full_like(edge, half)]),
            np.column_stack([np.full_like(edge, -half), -edge]),
        ]
    )
    return [ProjectedScan(k, inverse(p).apply(world)) for k, p in enumerate(poses)]


def test_detect_loop_closures_finds_revisit(monkeypatch):
    poses = [PlanarPose(0.04 * k, 0.0, 0.01 * k) for k in range(12)]
    scans = _room_scans(poses)
    # Corner beams have no flat-wall correspondence and saturate, so the
    # cost gate sits above that floor but far below a bad match.
    monkeypatch.setattr(pose_graph, "LOOP_MAX_COST", 0.02)
    edges, rejected, _ = detect_loop_closures(scans, poses)
    assert rejected == 0
    assert [(e.from_id, e.to_id) for e in edges] == [(0, 11)]
    assert edges[0].kind == "loop_closure"
    truth = compose(inverse(poses[0]), poses[11])
    got = edges[0].measured
    assert math.hypot(got.x - truth.x, got.y - truth.y) < 1e-6
    assert abs(got.theta - truth.theta) < 1e-6


def test_detect_loop_closures_gates(monkeypatch):
    poses = [PlanarPose(0.04 * k, 0.0, 0.0) for k in range(12)]
    scans = _room_scans(poses)
    # Unreachable inlier ratio turns the one candidate into a rejection.
    monkeypatch.setattr(pose_graph, "LOOP_MIN_INLIER_RATIO", 1.1)
    edges, rejected, associations = detect_loop_closures(scans, poses)
    assert edges == [] and rejected == 1
    assert associations == match_scans(scans[0], scans[11], compose(inverse(poses[0]), poses[11])).associations
    # A distance gate below the node spacing leaves no candidates at all.
    monkeypatch.setattr(pose_graph, "LOOP_MAX_DISTANCE", 0.1)
    edges, rejected, associations = detect_loop_closures(scans, poses)
    assert edges == [] and rejected == 0 and associations == 0
    with pytest.raises(ValueError):
        detect_loop_closures(scans, poses[:-1])
