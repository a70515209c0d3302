"""Relative-pose graph over odometry and loop-closure edges.

Nodes are planar poses, named by their position in :attr:`PoseGraph.nodes`:
node k is ``nodes[k]``, and an edge's ``from_id``/``to_id`` index that list.
Each edge constrains the relative pose of its two nodes, measured by scan
matching between consecutive keyframes (odometry) or revisits (loop
closures). :func:`optimize` minimizes the Huber-robust sum of the weighted
relative-pose residuals with Levenberg-Marquardt, holding node 0 fixed as
the gauge anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HuberLoss, PlanarPose, compose, inverse, wrap_angle
from .scan_frontend import ProjectedScan, match_scans

EDGE_KINDS = ("odometry", "loop_closure")

_SPIN = np.array([[0.0, -1.0], [1.0, 0.0]])  # d/dtheta of a rotation, left factor

# Weights of the translation and rotation rows of each edge residual, and
# the robust loss on each edge's weighted residual norm.
TRANSLATION_WEIGHT = 5.0
ROTATION_WEIGHT = 400.0
EDGE_LOSS = HuberLoss(0.1)

# Levenberg-Marquardt: at most MAX_ITERATIONS steps, stopping once an
# accepted step lowers the objective by at most RELATIVE_TOLERANCE of its
# value; the damping starts at INITIAL_DAMPING.
MAX_ITERATIONS = 100
RELATIVE_TOLERANCE = 1e-8
INITIAL_DAMPING = 1e-4

# Loop-closure candidates: every LOOP_STRIDE-th node is paired with every
# LOOP_STRIDE-th later node; at most LOOP_MAX_CANDIDATES pairs are matched
# and a node takes part in at most LOOP_MAX_PER_NODE accepted closures.
LOOP_STRIDE = 3
LOOP_MAX_CANDIDATES = 4000
LOOP_MAX_PER_NODE = 2


class DisconnectedGraphError(ValueError):
    """The pose graph does not connect all nodes."""


@dataclass(eq=False)
class GraphEdge:
    """Relative-pose constraint between two nodes.

    measured maps to-node coordinates into the from-node frame.
    """

    from_id: int
    to_id: int
    measured: PlanarPose
    kind: str = "odometry"

    def __post_init__(self) -> None:
        if self.kind not in EDGE_KINDS:
            raise ValueError(f"edge kind must be one of {EDGE_KINDS}")
        if self.from_id == self.to_id:
            raise ValueError("edge endpoints must differ")


@dataclass(eq=False)
class PoseGraph:
    """Node k is nodes[k]; every edge endpoint is a position in nodes."""

    nodes: list[PlanarPose]
    edges: list[GraphEdge]

    def __post_init__(self) -> None:
        _check_endpoints(self)


def _check_endpoints(graph: PoseGraph) -> None:
    # A position of -1 would otherwise silently name the last node.
    n = len(graph.nodes)
    for e in graph.edges:
        if not (0 <= e.from_id < n and 0 <= e.to_id < n):
            raise ValueError(f"edge references unknown node ({e.from_id}, {e.to_id})")


def _check_connected(graph: PoseGraph) -> None:
    # edges is a plain list, so an edge appended after construction is
    # checked here, before any endpoint indexes the state array.
    _check_endpoints(graph)
    parent = list(range(len(graph.nodes)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in graph.edges:
        parent[find(e.from_id)] = find(e.to_id)
    roots = {find(k) for k in range(len(graph.nodes))}
    if len(roots) > 1:
        raise DisconnectedGraphError(f"pose graph splits into {len(roots)} components")


def detect_loop_closures(
    scans: list[ProjectedScan],
    poses: list[PlanarPose],
    min_index_gap: int = 10,
    max_distance: float = 2.0,
    max_cost: float = 0.01,
    min_inlier_ratio: float = 0.6,
) -> tuple[list[GraphEdge], int, int]:
    """Find loop-closure edges among non-adjacent nodes.

    Candidates are node pairs on the LOOP_STRIDE grid more than
    min_index_gap apart in index whose estimated positions lie within
    max_distance; pairs with a node that already has LOOP_MAX_PER_NODE
    closures are skipped, and enumeration stops after LOOP_MAX_CANDIDATES
    matched pairs. An edge is kept only when the match converges under the
    cost gate with enough inliers. Returns (edges, rejected_candidate_count,
    associations) in a deterministic order; associations sums the matches'
    :attr:`MatchResult.associations`.
    """
    if len(scans) != len(poses):
        raise ValueError("scans and poses length mismatch")
    xy = np.array([[p.x, p.y] for p in poses]) if poses else np.empty((0, 2))
    edges: list[GraphEdge] = []
    rejected = 0
    evaluated = 0
    associations = 0
    accepted_count = {i: 0 for i in range(len(scans))}
    for i in range(0, len(scans), LOOP_STRIDE):
        for j in range(i + min_index_gap + 1, len(scans), LOOP_STRIDE):
            if evaluated >= LOOP_MAX_CANDIDATES:
                return edges, rejected, associations
            if accepted_count[i] >= LOOP_MAX_PER_NODE or accepted_count[j] >= LOOP_MAX_PER_NODE:
                continue
            if float(np.linalg.norm(xy[i] - xy[j])) >= max_distance:
                continue
            evaluated += 1
            guess = compose(inverse(poses[i]), poses[j])
            result = match_scans(scans[i], scans[j], initial_guess=guess)
            associations += result.associations
            ratio = result.inlier_count / max(len(scans[j]), 1)
            if result.converged and result.final_cost <= max_cost and ratio >= min_inlier_ratio:
                edges.append(GraphEdge(i, j, result.relative_pose, kind="loop_closure"))
                accepted_count[i] += 1
                accepted_count[j] += 1
            else:
                rejected += 1
    return edges, rejected, associations


# ---------------------------------------------------------------------------
# Residual block. Returns (residual, d residual / d pose_i,
# d residual / d pose_j); pose parameters are ordered (x, y, theta).


def relative_pose_residual(
    pose_i: PlanarPose,
    pose_j: PlanarPose,
    measured: PlanarPose,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted mismatch between the estimated and measured relative pose.

    The residual is [sqrt(tw)*dx, sqrt(tw)*dy, sqrt(rw)*dtheta] of the
    error transform (estimated relative)^-1 * measured, with tw and rw the
    TRANSLATION_WEIGHT and ROTATION_WEIGHT; it vanishes when the poses
    agree with the measurement.
    """
    sqrt_t = math.sqrt(TRANSLATION_WEIGHT)
    sqrt_r = math.sqrt(ROTATION_WEIGHT)
    u = np.array([pose_j.x - pose_i.x, pose_j.y - pose_i.y])
    tm = np.array([measured.x, measured.y])
    a = pose_i.theta - pose_j.theta
    ca, sa = math.cos(a), math.sin(a)
    rot_a = np.array([[ca, -sa], [sa, ca]])  # R(theta_i - theta_j)
    cj, sj = math.cos(pose_j.theta), math.sin(pose_j.theta)
    rot_nj = np.array([[cj, sj], [-sj, cj]])  # R(-theta_j)
    et = rot_a @ tm - rot_nj @ u
    etheta = wrap_angle(measured.theta - pose_j.theta + pose_i.theta)
    r = np.array([sqrt_t * et[0], sqrt_t * et[1], sqrt_r * etheta])

    ji = np.zeros((3, 3))
    jj = np.zeros((3, 3))
    spin_rot_tm = _SPIN @ rot_a @ tm
    ji[:2, :2] = sqrt_t * rot_nj
    ji[:2, 2] = sqrt_t * spin_rot_tm
    ji[2, 2] = sqrt_r
    jj[:2, :2] = -sqrt_t * rot_nj
    jj[:2, 2] = sqrt_t * (-spin_rot_tm + _SPIN @ rot_nj @ u)
    jj[2, 2] = -sqrt_r
    return r, ji, jj


@dataclass(eq=False)
class OptimizeResult:
    graph: PoseGraph
    converged: bool
    iterations: int
    initial_objective: float
    final_objective: float


def _pose_array(graph: PoseGraph) -> np.ndarray:
    return np.array([[p.x, p.y, p.theta] for p in graph.nodes])


def _pass(states: np.ndarray, graph: PoseGraph, with_derivatives: bool):
    """One sweep over all relative-pose residual blocks.

    Returns (objective, H, g); H and g are None unless requested. Robust
    weighting is applied per block via the usual rho'(r)/r scheme.
    """
    dim = 3 * len(graph.nodes)
    h = np.zeros((dim, dim)) if with_derivatives else None
    g = np.zeros(dim) if with_derivatives else None
    objective = 0.0

    def pose_of(k: int) -> PlanarPose:
        return PlanarPose(states[k, 0], states[k, 1], states[k, 2])

    for edge in graph.edges:
        ki, kj = edge.from_id, edge.to_id
        pose_i, pose_j = pose_of(ki), pose_of(kj)
        r, jac_i, jac_j = relative_pose_residual(pose_i, pose_j, edge.measured)
        norm = float(np.linalg.norm(r))
        objective += float(EDGE_LOSS.values(np.array([norm]))[0])
        if with_derivatives:
            w = float(EDGE_LOSS.weights(np.array([norm]))[0])
            si, sj = 3 * ki, 3 * kj
            h[si : si + 3, si : si + 3] += w * jac_i.T @ jac_i
            h[sj : sj + 3, sj : sj + 3] += w * jac_j.T @ jac_j
            cross = w * jac_i.T @ jac_j
            h[si : si + 3, sj : sj + 3] += cross
            h[sj : sj + 3, si : si + 3] += cross.T
            g[si : si + 3] += w * jac_i.T @ r
            g[sj : sj + 3] += w * jac_j.T @ r
    return objective, h, g


def objective(graph: PoseGraph) -> float:
    """Robust objective at the graph's current poses."""
    value, _, _ = _pass(_pose_array(graph), graph, False)
    return value


def optimize(graph: PoseGraph) -> OptimizeResult:
    """Damped least-squares refinement of all poses except the anchor.

    Node 0 is the gauge anchor and comes back as the same object; an
    empty graph raises ValueError. Steps are only accepted when the
    objective does not increase, so the objective is non-increasing over
    accepted iterations; termination is by relative objective change
    (RELATIVE_TOLERANCE) or the iteration cap (MAX_ITERATIONS), and a
    non-converged run still returns its best iterate, flagged.
    """
    if not graph.nodes:
        raise ValueError("pose graph needs node 0 as gauge anchor")
    _check_connected(graph)
    if len(graph.nodes) == 1:
        value = objective(graph)
        return OptimizeResult(graph, True, 0, value, value)

    # The anchor's three parameters stay fixed: the system is over the rest.
    states = _pose_array(graph)
    value, h, g = _pass(states, graph, True)
    initial = value
    damping = INITIAL_DAMPING
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        damped = h[3:, 3:].copy()
        gf = g[3:]
        damped.flat[:: damped.shape[0] + 1] += damping * np.maximum(np.diag(damped), 1e-12)
        try:
            step = np.linalg.solve(damped, -gf)
        except np.linalg.LinAlgError:
            damping *= 10.0
            if damping > 1e12:
                break
            continue
        cand = states.copy()
        cand.reshape(-1)[3:] += step
        cand[:, 2] = np.array([wrap_angle(t) for t in cand[:, 2]])
        cand_value, cand_h, cand_g = _pass(cand, graph, True)
        if cand_value <= value:
            drop = value - cand_value
            states, value, h, g = cand, cand_value, cand_h, cand_g
            damping = max(damping * 0.1, 1e-15)
            if drop <= RELATIVE_TOLERANCE * max(value, 1e-300):
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break

    nodes = [graph.nodes[0]] + [PlanarPose(x, y, theta) for x, y, theta in states[1:]]
    return OptimizeResult(PoseGraph(nodes, graph.edges), converged, iterations, initial, value)
