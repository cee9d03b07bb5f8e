"""Keyframe pose graph with batch SE(3) Levenberg-Marquardt optimization.

The graph stores one node per keyframe and two edge kinds: odometry edges
between consecutive keyframes and loop edges ``(loop node, node, relative
pose)``, as GTSAM's ``BetweenFactor<Pose3>``: two node indices and a
measured relative pose, with no record of how the loop was found.
Optimization minimizes

    sum_e rho(||log(M_e^-1 (T_from^-1 T_to))||^2_Lambda_e)

over all node poses except node 0, which is held fixed to remove the global
gauge freedom.  ``Lambda_e = diag(1/sigma^2)`` is diagonal, as in GTSAM's
``noiseModel::Diagonal``: one rotation and one translation sigma per edge
kind, four of the five fields of ``PoseGraphConfig``.  ``rho`` is the
identity for odometry edges and a Huber kernel for loop edges, whose scale
is the fifth field.  State updates are left-multiplicative, matching the
rest of the package: ``T <- exp_rt(delta) T``.  The LM damping schedule,
stopping thresholds and iteration cap are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .geometry import (
    Pose, adjoint_rt, exp_rt, left_jacobian_inverse, log_rt, project_rotation,
)

__all__ = [
    "PoseGraphConfig",
    "PoseGraphEdge",
    "PoseGraph",
    "OptimizationReport",
    "add_odometry_node",
    "add_loop_edge",
    "optimize",
]

# Damping schedule for LM; lam scales diag(H), so it is dimensionless.
_LAMBDA_INIT = 1e-4
_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12
# LM stops when the relative cost decrease or the gradient norm falls below these.
_COST_REL_TOLERANCE = 1e-6
_GRADIENT_TOLERANCE = 1e-8
_MAX_ITERATIONS = 50  # LM steps per solve


def _whitener(rotation_sigma: float, translation_sigma: float) -> np.ndarray:
    """Whitening factors sqrt(1/sigma^2) for the [w, v] twist layout: the
    Cholesky factor of diag(1/sigma^2), entry for entry."""
    return np.sqrt([1.0 / rotation_sigma**2] * 3 + [1.0 / translation_sigma**2] * 3)


@dataclass
class PoseGraphConfig:
    """Edge standard deviations (rad for rotation, m for translation) and the
    loop edges' robust kernel."""

    odometry_rotation_sigma: float = 0.01
    odometry_translation_sigma: float = 0.05
    loop_rotation_sigma: float = 0.05
    loop_translation_sigma: float = 0.2
    huber_scale: float = 1.0

    def __post_init__(self):
        for name in ("odometry_rotation_sigma", "odometry_translation_sigma",
                     "loop_rotation_sigma", "loop_translation_sigma"):
            sigma = getattr(self, name)
            try:
                inverse_variance = 1.0 / sigma**2
            except (ZeroDivisionError, OverflowError):
                inverse_variance = 0.0
            if not (sigma > 0.0 and 0.0 < inverse_variance < math.inf):
                raise ValueError(
                    f"{name} must be > 0 with 1/sigma^2 finite and positive, got {sigma!r}"
                )
        if not self.huber_scale > 0.0:
            raise ValueError("huber_scale must be positive")


@dataclass
class PoseGraphEdge:
    from_node: int
    to_node: int
    measurement: Pose  # to-node pose expressed in the from-node frame
    robust: bool  # loop edges get the Huber kernel, odometry edges none


class PoseGraph:
    """Mutable node/edge store of read-only poses."""

    def __init__(self, config: PoseGraphConfig):
        self.config = config
        self.nodes: List[Pose] = []
        self.edges: List[PoseGraphEdge] = []


@dataclass
class OptimizationReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool


def add_odometry_node(graph: PoseGraph, pose: Pose) -> None:
    """Append node k = len(graph.nodes); for k > 0 also add the odometry edge
    (k-1, k).

    The edge measurement is the relative pose implied by the estimates at
    insertion time, ``inverse(pose_{k-1}) * pose_k``.
    """
    k = len(graph.nodes)
    graph.nodes.append(pose)
    if k > 0:
        measurement = graph.nodes[k - 1].inverse().compose(graph.nodes[k])
        graph.edges.append(PoseGraphEdge(k - 1, k, measurement, robust=False))


def add_loop_edge(graph: PoseGraph, loop_node: int, node: int, relative_pose: Pose) -> None:
    """Append the robust edge (loop_node, node) measuring relative_pose, the
    node's pose expressed in the earlier loop node's frame.

    A loop edge points back in time to an existing node:
    ``0 <= loop_node < node < len(graph.nodes)``.
    """
    n = len(graph.nodes)
    if not 0 <= loop_node < node < n:
        raise ValueError(
            f"loop edge ({loop_node}, {node}) must join an earlier node to a "
            f"later one of the graph's {n}"
        )
    graph.edges.append(PoseGraphEdge(loop_node, node, relative_pose, robust=True))


class _EdgeArrays:
    """The edge set of one solve as stacked arrays, with the COO pattern of
    its normal equations; both are fixed while the edge set is fixed."""

    def __init__(self, edges: List[PoseGraphEdge], num_nodes: int, config: PoseGraphConfig):
        self.num_nodes = num_nodes
        self.huber = config.huber_scale
        self.from_node = np.array([e.from_node for e in edges])
        self.to_node = np.array([e.to_node for e in edges])
        self.robust = np.array([e.robust for e in edges])
        m_rot = np.stack([e.measurement.rotation for e in edges])
        m_trans = np.stack([e.measurement.translation for e in edges])
        self.inv_rot = m_rot.transpose(0, 2, 1)
        self.inv_trans = -(self.inv_rot @ m_trans[:, :, None])[:, :, 0]
        # ||r||^2 weighted by diag(1/sigma^2) = ||w * r||^2, one w per edge kind
        self.whitener = np.where(
            self.robust[:, None],
            _whitener(config.loop_rotation_sigma, config.loop_translation_sigma),
            _whitener(config.odometry_rotation_sigma, config.odometry_translation_sigma),
        )

        # Each edge adds one block B as +B at (from, from) and (to, to) and
        # -B at (from, to) and (to, from).  Node i owns parameter block i-1;
        # node 0 (gauge fixed) owns none, so blocks touching it are dropped.
        blocks_i = np.stack([self.from_node, self.to_node, self.from_node, self.to_node], 1) - 1
        blocks_j = np.stack([self.from_node, self.to_node, self.to_node, self.from_node], 1) - 1
        self.keep = (blocks_i >= 0) & (blocks_j >= 0)
        k = np.arange(6)
        rows = 6 * blocks_i[:, :, None, None] + k[:, None]
        cols = 6 * blocks_j[:, :, None, None] + k[None, :]
        self.rows = np.broadcast_to(rows, self.keep.shape + (6, 6))[self.keep].ravel()
        self.cols = np.broadcast_to(cols, self.keep.shape + (6, 6))[self.keep].ravel()
        self.sign = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]


@dataclass
class _Evaluation:
    """Per-edge residuals, Huber weights and total cost at one node state."""

    prefix_rot: np.ndarray  # P = M^-1 T_from^-1, (E, 3, 3) and (E, 3)
    prefix_trans: np.ndarray
    residual: np.ndarray  # r = log(P T_to), (E, 6)
    whitened: np.ndarray  # w * r, (E, 6)
    weight: np.ndarray  # IRLS weight rho'(||w * r||^2), (E,)
    cost: float


def _evaluate(
    edges: _EdgeArrays, rotation: np.ndarray, translation: np.ndarray
) -> _Evaluation:
    """Twist errors log(M^-1 T_from^-1 T_to) of every edge, zero for a
    consistent edge, and the robust cost sum_e rho(||w_e * r_e||^2)."""
    prefix_rot = edges.inv_rot @ rotation[edges.from_node].transpose(0, 2, 1)
    prefix_trans = edges.inv_trans - (
        prefix_rot @ translation[edges.from_node][:, :, None]
    )[:, :, 0]
    r = log_rt(
        prefix_rot @ rotation[edges.to_node],
        (prefix_rot @ translation[edges.to_node][:, :, None])[:, :, 0] + prefix_trans,
    )
    rw = edges.whitener * r
    s = (rw * rw).sum(axis=1)
    # Huber on the squared norm: rho(s) = s inside the scale, else
    # 2 delta sqrt(s) - delta^2 with weight rho'(s) = delta / sqrt(s)
    delta = edges.huber
    root = np.sqrt(s)
    outer = edges.robust & (s > delta * delta)
    rho = np.where(outer, 2.0 * delta * root - delta * delta, s)
    weight = np.where(edges.robust, delta / np.maximum(root, delta), 1.0)
    return _Evaluation(prefix_rot, prefix_trans, r, rw, weight, float(rho.sum()))


def _jacobians(ev: _Evaluation) -> np.ndarray:
    """(E, 6, 6) derivatives of each residual wrt a left perturbation of the
    edge's to-node; the from-node's derivative is the negative.

    Perturbing either endpoint inserts exp(+-d) left of T_to, which
    conjugates through P:  r(d) = log(exp(Adj(P) d) exp(r)), hence
    J_to = Jl^-1(r) Adj(P) and J_from = -J_to.
    """
    return left_jacobian_inverse(ev.residual) @ adjoint_rt(ev.prefix_rot, ev.prefix_trans)


def _normal_equations(
    edges: _EdgeArrays, ev: _Evaluation
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """Gauss-Newton system over all nodes except node 0 (gauge fixed)."""
    wj = edges.whitener[:, :, None] * _jacobians(ev)
    kwj = ev.weight[:, None, None] * wj
    block = kwj.transpose(0, 2, 1) @ wj  # kappa (WJ)^T (WJ)
    grad = (kwj.transpose(0, 2, 1) @ ev.whitened[:, :, None])[:, :, 0]
    dim = 6 * (edges.num_nodes - 1)
    values = (edges.sign * block[:, None])[edges.keep].ravel()
    h = sparse.coo_matrix((values, (edges.rows, edges.cols)), shape=(dim, dim)).tocsr()
    g = np.zeros((edges.num_nodes, 6))
    np.add.at(g, edges.to_node, grad)
    np.add.at(g, edges.from_node, -grad)
    return h, g[1:].ravel()


def optimize(graph: PoseGraph) -> OptimizationReport:
    """Levenberg-Marquardt over the node poses; updates the graph in place.

    Stops when the relative cost decrease falls below
    ``_COST_REL_TOLERANCE``, the gradient norm falls below
    ``_GRADIENT_TOLERANCE``, no damping value yields a decrease, or
    ``_MAX_ITERATIONS`` steps are taken; the last two are reported as
    ``converged=False`` with the best iterate kept.  Each node state is
    evaluated once: a trial step's evaluation gives its cost and, when the
    step is accepted, the next normal equations.
    """
    if not graph.nodes:
        raise ValueError("cannot optimize an empty graph")
    if not graph.edges:
        return OptimizationReport(0.0, 0.0, 0, True)
    n = len(graph.nodes)
    rotation = np.stack([p.rotation for p in graph.nodes])
    translation = np.stack([p.translation for p in graph.nodes])
    edges = _EdgeArrays(graph.edges, n, graph.config)
    current = _evaluate(edges, rotation, translation)
    initial_cost = current.cost
    iterations = 0
    converged = False

    lam = _LAMBDA_INIT
    for _ in range(_MAX_ITERATIONS):
        h, g = _normal_equations(edges, current)
        if np.linalg.norm(g) < _GRADIENT_TOLERANCE:
            converged = True
            break
        diag = h.diagonal()
        stepped = False
        while lam <= _LAMBDA_MAX:
            damped = h + sparse.diags(lam * np.maximum(diag, 1e-32))
            delta = spsolve(damped.tocsc(), -g)
            if np.all(np.isfinite(delta)):
                step_rot, step_trans = exp_rt(delta.reshape(n - 1, 6))
                cand_rot = rotation.copy()
                cand_trans = translation.copy()
                cand_rot[1:] = step_rot @ rotation[1:]
                cand_trans[1:] = (step_rot @ translation[1:, :, None])[:, :, 0] + step_trans
                trial = _evaluate(edges, cand_rot, cand_trans)
                if trial.cost < current.cost:
                    rel_decrease = (current.cost - trial.cost) / max(current.cost, 1e-300)
                    rotation, translation, current = cand_rot, cand_trans, trial
                    lam = max(lam / 3.0, _LAMBDA_MIN)
                    iterations += 1
                    stepped = True
                    if rel_decrease < _COST_REL_TOLERANCE:
                        converged = True
                    break
            lam *= 10.0
        if not stepped:
            converged = False  # damping exhausted; keep best iterate
            break
        if converged:
            break

    if iterations:
        graph.nodes[1:] = map(Pose, project_rotation(rotation[1:]), translation[1:])
    return OptimizationReport(initial_cost, current.cost, iterations, converged)
