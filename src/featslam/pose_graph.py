"""Keyframe pose graph with batch SE(3) Levenberg-Marquardt optimization.

The graph stores one node per keyframe and two edge kinds: odometry edges
between consecutive keyframes and loop edges from accepted loop constraints.
Optimization minimizes

    sum_e rho(||log(M_e^-1 (T_from^-1 T_to))||^2_Lambda_e)

over all node poses except node 0, which is held fixed to remove the global
gauge freedom.  ``rho`` is the identity for odometry edges and a Huber kernel
for loop edges.  State updates are left-multiplicative, matching the rest of
the package: ``T <- exp(delta) T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .geometry import Pose, exp, log, se3_adjoint, se3_left_jacobian_inverse
from .loop_closure import LoopConstraint

__all__ = [
    "PoseGraphConfig",
    "PoseGraphEdge",
    "PoseGraph",
    "OptimizationReport",
    "add_odometry_node",
    "add_loop_edge",
    "edge_residual",
    "edge_jacobians",
    "information_from_sigmas",
    "optimize",
    "save_g2o",
]

# Damping schedule for LM; lam scales diag(H), so it is dimensionless.
_LAMBDA_INIT = 1e-4
_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12


# Default edge standard deviations: rad for rotation, m for translation.
ODOMETRY_ROTATION_SIGMA = 0.01
ODOMETRY_TRANSLATION_SIGMA = 0.05
LOOP_ROTATION_SIGMA = 0.05
LOOP_TRANSLATION_SIGMA = 0.2


def information_from_sigmas(rotation_sigma: float, translation_sigma: float) -> np.ndarray:
    """Diagonal information matrix 1/sigma^2 for the [w, v] twist layout."""
    return np.diag([1.0 / rotation_sigma**2] * 3 + [1.0 / translation_sigma**2] * 3)


def default_odometry_information() -> np.ndarray:
    return information_from_sigmas(ODOMETRY_ROTATION_SIGMA, ODOMETRY_TRANSLATION_SIGMA)


def default_loop_information() -> np.ndarray:
    return information_from_sigmas(LOOP_ROTATION_SIGMA, LOOP_TRANSLATION_SIGMA)


def _validated_information(information: np.ndarray) -> np.ndarray:
    info = np.asarray(information, dtype=float)
    if info.shape != (6, 6):
        raise ValueError(f"information matrix must be 6x6, got {info.shape}")
    if not np.all(np.isfinite(info)):
        raise ValueError("information matrix must be finite")
    scale = np.abs(info).max()
    if not np.allclose(info, info.T, atol=1e-9 * max(scale, 1.0)):
        raise ValueError("information matrix must be symmetric")
    info = 0.5 * (info + info.T)
    if np.linalg.eigvalsh(info)[0] <= 0.0:
        raise ValueError("information matrix must be positive definite")
    return info


@dataclass
class PoseGraphConfig:
    """Edge weights, robust kernel, and LM stopping thresholds."""

    odometry_information: np.ndarray = field(default_factory=default_odometry_information)
    loop_information: np.ndarray = field(default_factory=default_loop_information)
    huber_scale: float = 1.0
    cost_rel_tolerance: float = 1e-6
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        self.odometry_information = _validated_information(self.odometry_information)
        self.loop_information = _validated_information(self.loop_information)
        if self.huber_scale <= 0.0:
            raise ValueError("huber_scale must be positive")
        if self.cost_rel_tolerance < 0.0 or self.gradient_tolerance < 0.0:
            raise ValueError("tolerances must be non-negative")


@dataclass
class PoseGraphEdge:
    from_node: int
    to_node: int
    measurement: Pose  # to-node pose expressed in the from-node frame
    information: np.ndarray
    robust: bool  # loop edges get the Huber kernel, odometry edges none


class PoseGraph:
    """Mutable node/edge store; ``poses`` hands out copies."""

    def __init__(self, config: Optional[PoseGraphConfig] = None):
        self.config = config if config is not None else PoseGraphConfig()
        self.nodes: List[Pose] = []
        self.edges: List[PoseGraphEdge] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def poses(self) -> List[Pose]:
        """Copies of the current estimates."""
        return [p.copy() for p in self.nodes]


@dataclass
class OptimizationReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool


def add_odometry_node(
    graph: PoseGraph,
    k: int,
    pose_k: Pose,
    information: Optional[np.ndarray] = None,
) -> None:
    """Append node k; for k > 0 also add the odometry edge (k-1, k).

    The edge measurement is the relative pose implied by the estimates at
    insertion time, ``inverse(pose_{k-1}) * pose_k``.
    """
    if k != len(graph.nodes):
        raise ValueError(f"expected node index {len(graph.nodes)}, got {k}")
    info = (
        _validated_information(information)
        if information is not None
        else graph.config.odometry_information
    )
    graph.nodes.append(pose_k.copy())
    if k > 0:
        measurement = graph.nodes[k - 1].inverse().compose(graph.nodes[k])
        graph.edges.append(
            PoseGraphEdge(k - 1, k, measurement, info, robust=False)
        )


def add_loop_edge(
    graph: PoseGraph,
    constraint: LoopConstraint,
    information: Optional[np.ndarray] = None,
) -> None:
    """Append an accepted loop constraint as a robust edge.

    ``constraint.relative_pose`` expresses the current keyframe in the loop
    keyframe's frame, so the edge runs from ``to_keyframe`` (the old loop
    node) to ``from_keyframe`` (the current node).
    """
    if not constraint.accepted:
        raise ValueError("cannot add an unaccepted loop constraint")
    n = len(graph.nodes)
    if not (0 <= constraint.to_keyframe < n and 0 <= constraint.from_keyframe < n):
        raise ValueError(
            f"loop edge ({constraint.to_keyframe}, {constraint.from_keyframe}) "
            f"references a missing node (graph has {n})"
        )
    info = (
        _validated_information(information)
        if information is not None
        else graph.config.loop_information
    )
    graph.edges.append(
        PoseGraphEdge(
            constraint.to_keyframe,
            constraint.from_keyframe,
            constraint.relative_pose.copy(),
            info,
            robust=True,
        )
    )


def edge_residual(nodes: List[Pose], edge: PoseGraphEdge) -> np.ndarray:
    """Twist error log(M^-1 (T_from^-1 T_to)), zero for a consistent edge."""
    rel = nodes[edge.from_node].inverse().compose(nodes[edge.to_node])
    return log(edge.measurement.inverse().compose(rel))


def edge_jacobians(
    nodes: List[Pose], edge: PoseGraphEdge
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual and its derivatives wrt left perturbations of the endpoints.

    With P = M^-1 T_from^-1 the residual is r = log(P T_to).  Perturbing
    either endpoint inserts exp(+-delta) left of T_to, which conjugates
    through P:  r(delta) = log(exp(Adj(P) delta) exp(r)), hence

        dr/d(delta_to)   =  Jl^-1(r) Adj(P)
        dr/d(delta_from) = -Jl^-1(r) Adj(P)

    Returns (residual, J_from, J_to).
    """
    prefix = edge.measurement.inverse().compose(nodes[edge.from_node].inverse())
    r = log(prefix.compose(nodes[edge.to_node]))
    j_to = se3_left_jacobian_inverse(r) @ se3_adjoint(prefix)
    return r, -j_to, j_to


def _whitener(information: np.ndarray) -> np.ndarray:
    # info = L L^T  =>  ||r||^2_info = ||L^T r||^2
    return np.linalg.cholesky(information).T


def _robust_terms(s: float, delta: float) -> Tuple[float, float]:
    """Huber rho(s) and IRLS weight rho'(s) for squared norm s, scale delta."""
    if s <= delta * delta:
        return s, 1.0
    root = np.sqrt(s)
    return 2.0 * delta * root - delta * delta, delta / root


def _graph_cost(nodes: List[Pose], edges: List[PoseGraphEdge], huber: float) -> float:
    total = 0.0
    for edge in edges:
        r = edge_residual(nodes, edge)
        s = float(r @ edge.information @ r)
        if edge.robust:
            s, _ = _robust_terms(s, huber)
        total += s
    return total


def _build_normal_equations(
    nodes: List[Pose], edges: List[PoseGraphEdge], huber: float
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """Gauss-Newton system over all nodes except node 0 (gauge fixed)."""
    dim = 6 * (len(nodes) - 1)
    g = np.zeros(dim)
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []

    block = np.arange(6)

    def _add_block(bi: int, bj: int, m: np.ndarray) -> None:
        r, c = np.meshgrid(6 * bi + block, 6 * bj + block, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(m.ravel())

    for edge in edges:
        r, j_from, j_to = edge_jacobians(nodes, edge)
        w = _whitener(edge.information)
        rw = w @ r
        kappa2 = 1.0
        if edge.robust:
            _, kappa2 = _robust_terms(float(rw @ rw), huber)
        # Parameter indices: node i occupies block i-1; node 0 has none.
        f = edge.from_node - 1
        t = edge.to_node - 1
        jw_from = w @ j_from
        jw_to = w @ j_to
        if f >= 0:
            _add_block(f, f, kappa2 * (jw_from.T @ jw_from))
            g[6 * f : 6 * f + 6] += kappa2 * (jw_from.T @ rw)
        if t >= 0:
            _add_block(t, t, kappa2 * (jw_to.T @ jw_to))
            g[6 * t : 6 * t + 6] += kappa2 * (jw_to.T @ rw)
        if f >= 0 and t >= 0:
            cross = kappa2 * (jw_from.T @ jw_to)
            _add_block(f, t, cross)
            _add_block(t, f, cross.T)

    if rows:
        h = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        ).tocsr()
    else:
        h = sparse.csr_matrix((dim, dim))
    return h, g


def _apply_step(nodes: List[Pose], delta: np.ndarray) -> List[Pose]:
    out = [nodes[0].copy()]
    for i in range(1, len(nodes)):
        xi = delta[6 * (i - 1) : 6 * i]
        out.append(exp(xi).compose(nodes[i]))
    return out


def optimize(graph: PoseGraph, max_iterations: int = 50) -> OptimizationReport:
    """Levenberg-Marquardt over the node poses; updates the graph in place.

    Stops when the relative cost decrease falls below
    ``config.cost_rel_tolerance``, the gradient norm falls below
    ``config.gradient_tolerance``, or no damping value yields a decrease
    (reported as ``converged=False`` with the best iterate kept).
    """
    if not graph.nodes:
        raise ValueError("cannot optimize an empty graph")
    cfg = graph.config
    nodes = [p.copy() for p in graph.nodes]
    cost = _graph_cost(nodes, graph.edges, cfg.huber_scale)
    initial_cost = cost
    iterations = 0
    converged = False

    if len(nodes) == 1 or not graph.edges:
        graph.nodes = nodes
        return OptimizationReport(float(initial_cost), float(cost), 0, True)

    lam = _LAMBDA_INIT
    for _ in range(max_iterations):
        h, g = _build_normal_equations(nodes, graph.edges, cfg.huber_scale)
        if np.linalg.norm(g) < cfg.gradient_tolerance:
            converged = True
            break
        diag = h.diagonal()
        stepped = False
        while lam <= _LAMBDA_MAX:
            damped = h + sparse.diags(lam * np.maximum(diag, 1e-32))
            delta = spsolve(damped.tocsc(), -g)
            if np.all(np.isfinite(delta)):
                candidate = _apply_step(nodes, delta)
                new_cost = _graph_cost(candidate, graph.edges, cfg.huber_scale)
                if new_cost < cost:
                    rel_decrease = (cost - new_cost) / max(cost, 1e-300)
                    nodes = candidate
                    cost = new_cost
                    lam = max(lam / 3.0, _LAMBDA_MIN)
                    iterations += 1
                    stepped = True
                    if rel_decrease < cfg.cost_rel_tolerance:
                        converged = True
                    break
            lam *= 10.0
        if not stepped:
            converged = False  # damping exhausted; keep best iterate
            break
        if converged:
            break

    graph.nodes = nodes
    return OptimizationReport(float(initial_cost), float(cost), iterations, converged)


# g2o stores the information matrix over [trans, rot]; internal twist order
# is [rot, trans].
_G2O_ORDER = np.array([3, 4, 5, 0, 1, 2])


def save_g2o(graph: PoseGraph, path) -> None:
    """Text dump in g2o VERTEX_SE3:QUAT / EDGE_SE3:QUAT format."""
    lines = []
    for i, pose in enumerate(graph.nodes):
        t = pose.translation
        w, x, y, z = pose.rotation.q
        lines.append(
            f"VERTEX_SE3:QUAT {i} {t[0]:.12g} {t[1]:.12g} {t[2]:.12g} "
            f"{x:.12g} {y:.12g} {z:.12g} {w:.12g}"
        )
    for edge in graph.edges:
        t = edge.measurement.translation
        w, x, y, z = edge.measurement.rotation.q
        info = edge.information[np.ix_(_G2O_ORDER, _G2O_ORDER)]
        upper = " ".join(
            f"{info[i, j]:.12g}" for i in range(6) for j in range(i, 6)
        )
        lines.append(
            f"EDGE_SE3:QUAT {edge.from_node} {edge.to_node} "
            f"{t[0]:.12g} {t[1]:.12g} {t[2]:.12g} "
            f"{x:.12g} {y:.12g} {z:.12g} {w:.12g} {upper}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
