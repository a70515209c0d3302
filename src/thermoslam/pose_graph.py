"""Relative-pose graph over odometry and loop-closure edges.

Nodes are planar poses, named by their position in :attr:`PoseGraph.nodes`:
node k is ``nodes[k]``, and an edge's ``from_id``/``to_id`` index that list.
Each edge constrains the relative pose of its two nodes, measured by scan
matching between consecutive keyframes (odometry) or revisits (loop
closures). :func:`optimize` minimizes the Huber-robust sum of the weighted
relative-pose residuals with Levenberg-Marquardt, holding node 0 fixed as
the gauge anchor. Every edge's residual is evaluated in one batched pass,
and each step is one sparse LU solve; no dense matrix over all poses exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import HuberLoss, PlanarPose, compose, inverse, wrap_angles
from .scan_frontend import ProjectedScan, match_scans

EDGE_KINDS = ("odometry", "loop_closure")

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

# Loop-closure candidates and gates (distance in m): see detect_loop_closures.
LOOP_STRIDE = 3
LOOP_MIN_INDEX_GAP = 10
LOOP_MAX_DISTANCE = 2.0
LOOP_MAX_CANDIDATES = 4000
LOOP_MAX_PER_NODE = 2
LOOP_MAX_COST = 0.01
LOOP_MIN_INLIER_RATIO = 0.6


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


def detect_loop_closures(scans: list[ProjectedScan], poses: list[PlanarPose]) -> tuple[list[GraphEdge], int, int]:
    """Find loop-closure edges among non-adjacent nodes.

    Candidates are node pairs on the LOOP_STRIDE grid more than
    LOOP_MIN_INDEX_GAP apart in index whose estimated positions lie within
    LOOP_MAX_DISTANCE; pairs with a node that already has LOOP_MAX_PER_NODE
    closures are skipped, and enumeration stops after LOOP_MAX_CANDIDATES
    matched pairs. An edge is kept only when the match converges with a
    cost of at most LOOP_MAX_COST and an inlier count of at least
    LOOP_MIN_INLIER_RATIO of the later scan's points. Returns (edges,
    rejected_candidate_count, associations) in a deterministic order;
    associations sums the matches' :attr:`MatchResult.associations`.
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
        for j in range(i + LOOP_MIN_INDEX_GAP + 1, len(scans), LOOP_STRIDE):
            if evaluated >= LOOP_MAX_CANDIDATES:
                return edges, rejected, associations
            if accepted_count[i] >= LOOP_MAX_PER_NODE or accepted_count[j] >= LOOP_MAX_PER_NODE:
                continue
            if float(np.linalg.norm(xy[i] - xy[j])) >= LOOP_MAX_DISTANCE:
                continue
            evaluated += 1
            guess = compose(inverse(poses[i]), poses[j])
            result = match_scans(scans[i], scans[j], initial_guess=guess)
            associations += result.associations
            ratio = result.inlier_count / max(len(scans[j]), 1)
            if result.converged and result.final_cost <= LOOP_MAX_COST and ratio >= LOOP_MIN_INLIER_RATIO:
                edges.append(GraphEdge(i, j, result.relative_pose, kind="loop_closure"))
                accepted_count[i] += 1
                accepted_count[j] += 1
            else:
                rejected += 1
    return edges, rejected, associations


# ---------------------------------------------------------------------------
# Residual blocks, one row per edge; pose parameters are (x, y, theta).


def relative_pose_residuals(
    poses_i: np.ndarray, poses_j: np.ndarray, measured: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted mismatch between estimated and measured relative poses, per edge.

    Row e of each (E, 3) argument and of the (E, 3) residual is edge e's.
    The residual is [sqrt(tw)*dx, sqrt(tw)*dy, sqrt(rw)*dtheta] of the error
    transform (estimated relative)^-1 * measured, with tw and rw the
    TRANSLATION_WEIGHT and ROTATION_WEIGHT; it vanishes when the poses agree
    with the measurement. Also returns the (E, 3, 3) Jacobians
    d residual / d pose_i and d residual / d pose_j.
    """
    sqrt_t = math.sqrt(TRANSLATION_WEIGHT)
    sqrt_r = math.sqrt(ROTATION_WEIGHT)
    ux, uy = (poses_j[:, :2] - poses_i[:, :2]).T
    a = poses_i[:, 2] - poses_j[:, 2]
    ca, sa = np.cos(a), np.sin(a)
    cj, sj = np.cos(poses_j[:, 2]), np.sin(poses_j[:, 2])
    # m = R(theta_i - theta_j) @ measured translation, v = R(-theta_j) @ u.
    mx = ca * measured[:, 0] - sa * measured[:, 1]
    my = sa * measured[:, 0] + ca * measured[:, 1]
    vx = cj * ux + sj * uy
    vy = cj * uy - sj * ux
    etheta = wrap_angles(measured[:, 2] - poses_j[:, 2] + poses_i[:, 2])
    r = np.column_stack([sqrt_t * (mx - vx), sqrt_t * (my - vy), sqrt_r * etheta])

    # d R / d theta = S R with S = [[0, -1], [1, 0]]: theta_i moves the
    # translation rows by sqrt(tw) S m and theta_j by -S of those rows.
    jac_i = np.zeros((len(r), 3, 3))
    jac_i[:, :2, :2] = sqrt_t * np.stack([cj, sj, -sj, cj], axis=1).reshape(-1, 2, 2)
    jac_i[:, :2, 2] = sqrt_t * np.column_stack([-my, mx])
    jac_i[:, 2, 2] = sqrt_r
    jac_j = -jac_i
    jac_j[:, :2, 2] = np.column_stack([r[:, 1], -r[:, 0]])
    return r, jac_i, jac_j


@dataclass(eq=False)
class OptimizeResult:
    graph: PoseGraph
    converged: bool
    iterations: int
    initial_objective: float
    final_objective: float


def _pose_array(graph: PoseGraph) -> np.ndarray:
    return np.array([[p.x, p.y, p.theta] for p in graph.nodes])


def _edge_arrays(graph: PoseGraph) -> tuple[np.ndarray, np.ndarray]:
    """(E, 2) endpoint ids and (E, 3) measured poses, in edge order."""
    ids = np.array([(e.from_id, e.to_id) for e in graph.edges], dtype=np.intp)
    measured = np.array([(e.measured.x, e.measured.y, e.measured.theta) for e in graph.edges])
    return ids.reshape(-1, 2), measured.reshape(-1, 3)


def _pass(states: np.ndarray, edges: tuple[np.ndarray, np.ndarray]):
    """Every relative-pose residual block, evaluated at once.

    Returns (objective, H, g), with H a sparse CSC matrix. H and g cover
    node 1 onwards, node k at 3(k-1) to 3(k-1)+2: the anchor is left out.
    Robust weighting is applied per block via the usual rho'(r)/r scheme.
    """
    ids, measured = edges
    r, jac_i, jac_j = relative_pose_residuals(states[ids[:, 0]], states[ids[:, 1]], measured)
    norms = np.linalg.norm(r, axis=1)
    # Each edge touches six parameters, its from-node's then its to-node's.
    # The anchor's come out negative and are dropped; tocsc sums duplicates.
    jac = np.concatenate([jac_i, jac_j], axis=2)
    weighted_t = EDGE_LOSS.weights(norms)[:, None, None] * jac.transpose(0, 2, 1)
    params = (3 * ids[:, :, None] - 3 + np.arange(3)).reshape(-1, 6)
    rows, cols = np.repeat(params, 6, axis=1), np.tile(params, 6)
    keep = (rows >= 0) & (cols >= 0)
    dim = 3 * (len(states) - 1)
    blocks = (weighted_t @ jac).reshape(-1, 36)
    h = sparse.coo_matrix((blocks[keep], (rows[keep], cols[keep])), shape=(dim, dim)).tocsc()
    free = params >= 0
    g = np.bincount(params[free], weights=(weighted_t @ r[:, :, None])[:, :, 0][free], minlength=dim)
    return float(EDGE_LOSS.values(norms).sum()), h, g


def objective(graph: PoseGraph) -> float:
    """Robust objective at the graph's current poses."""
    return _pass(_pose_array(graph), _edge_arrays(graph))[0]


def optimize(graph: PoseGraph) -> OptimizeResult:
    """Damped least-squares refinement of all poses except the anchor.

    Each Levenberg-Marquardt step damps the sparse Hessian's diagonal and
    solves with one SuperLU factor; an exactly singular factor raises the
    damping instead. Node 0 is the gauge anchor and comes back as the same
    object; an empty graph raises ValueError. Steps are only accepted when
    the objective does not increase, so the objective is non-increasing
    over accepted iterations; termination is by relative objective change
    (RELATIVE_TOLERANCE) or the iteration cap (MAX_ITERATIONS), and a
    non-converged run still returns its best iterate, flagged.
    """
    # Imported on use: every command imports this module, but only `map` solves.
    from scipy.sparse.linalg import splu

    if not graph.nodes:
        raise ValueError("pose graph needs node 0 as gauge anchor")
    _check_connected(graph)
    if len(graph.nodes) == 1:
        value = objective(graph)
        return OptimizeResult(graph, True, 0, value, value)

    # The anchor's three parameters stay fixed: the system is over the rest.
    edges = _edge_arrays(graph)
    states = _pose_array(graph)
    value, h, g = _pass(states, edges)
    initial = value
    damping = INITIAL_DAMPING
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        damped = h + sparse.diags(damping * np.maximum(h.diagonal(), 1e-12), format="csc")
        try:
            step = splu(damped).solve(-g)
        except RuntimeError:  # the factor is exactly singular
            damping *= 10.0
            if damping > 1e12:
                break
            continue
        cand = states.copy()
        cand.reshape(-1)[3:] += step
        cand[:, 2] = wrap_angles(cand[:, 2])
        cand_value, cand_h, cand_g = _pass(cand, edges)
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
