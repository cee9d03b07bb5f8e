"""Frame-to-submap odometry: constant-velocity prediction, Gauss-Newton
registration on point-to-line and point-to-plane residuals, voxel submap.

Registration transforms each feature into the global frame, finds its 5
nearest submap neighbors, and fits a line (edges, covariance
eigen-decomposition) or a plane (planars, least squares on n.p = -1).
Residuals are robustified with a Huber loss and the 6-dof normal equations
are solved through a truncated eigen-decomposition, which both reports and
disarms unconstrained directions (long corridors, single planes).

Pose updates are left-multiplicative: pose <- exp(delta) . pose, with the
twist laid out [wx, wy, wz, vx, vy, vz].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from featslam.features import FeatureCloud, FeatureConfig, extract_features
from featslam.geometry import Pose, exp


class IllConditionedError(RuntimeError):
    """Normal-equation solve produced non-finite values."""


@dataclass
class OdometryConfig:
    max_iterations: int = 20
    convergence_tolerance: float = 1e-4  # |twist step|, combined rad/m
    # re-association is frozen once the step or the cost improvement falls
    # below these, so the final iterate is the exact minimizer of one
    # fixed robust objective instead of an association limit cycle
    freeze_step: float = 1e-3
    freeze_cost_rel: float = 1e-3
    refine_iterations: int = 40
    huber_scale: float = 0.3  # m
    max_correspondence_distance: float = 5.0  # m, gate on the 5th neighbor
    edge_voxel_size: float = 0.4  # m
    planar_voxel_size: float = 0.8  # m
    crop_radius: float = 100.0  # m
    min_submap_edges: int = 10
    min_submap_planars: int = 50
    eigenvalue_floor: float = 1e-8  # relative truncation cutoff
    features: FeatureConfig = field(default_factory=FeatureConfig)


KNN = 5  # neighbors per correspondence
LINE_EIGEN_RATIO = 3.0  # largest eigenvalue must exceed ratio x second
PLANE_FIT_TOLERANCE = 0.2  # m, every neighbor must sit on the fitted plane


# ---------------------------------------------------------------------------
# Submap
# ---------------------------------------------------------------------------

_OFFSET = 1 << 20  # voxel index bias so packed keys stay non-negative


def _voxel_keys(points: np.ndarray, voxel: float) -> np.ndarray:
    ijk = np.floor(points / voxel).astype(np.int64) + _OFFSET
    return (ijk[:, 0] << 42) | (ijk[:, 1] << 21) | ijk[:, 2]


class _VoxelSet:
    """Keep-first voxel grid over 3-d points: parallel key and point arrays
    in insertion order."""

    def __init__(self, voxel: float):
        self.voxel = voxel
        self.keys = np.zeros(0, dtype=np.int64)
        self.points = np.zeros((0, 3))

    def insert(self, points: np.ndarray) -> None:
        keys = _voxel_keys(points, self.voxel)
        _, first = np.unique(keys, return_index=True)
        first.sort()  # first point per voxel, in batch order
        first = first[~np.isin(keys[first], self.keys)]
        self.keys = np.concatenate([self.keys, keys[first]])
        self.points = np.concatenate([self.points, points[first]])

    def crop(self, center: np.ndarray, radius: float) -> None:
        keep = np.linalg.norm(self.points - center, axis=1) <= radius
        self.keys = self.keys[keep]
        self.points = self.points[keep]


class Submap:
    """Global-frame edge/planar feature map with nearest-neighbor indexes."""

    def __init__(self, cfg: OdometryConfig | None = None):
        cfg = cfg or OdometryConfig()
        self._edges = _VoxelSet(cfg.edge_voxel_size)
        self._planars = _VoxelSet(cfg.planar_voxel_size)
        self.crop_radius = cfg.crop_radius
        self.edge_tree = None
        self.planar_tree = None

    @property
    def edge_points(self) -> np.ndarray:
        return self._edges.points

    @property
    def planar_points(self) -> np.ndarray:
        return self._planars.points

    @property
    def num_edges(self) -> int:
        return len(self.edge_points)

    @property
    def num_planars(self) -> int:
        return len(self.planar_points)

    def insert(self, features: FeatureCloud, pose: Pose) -> None:
        """Add features transformed by pose, then crop around the pose and
        rebuild the search trees."""
        self._edges.insert(pose.apply(features.edges))
        self._planars.insert(pose.apply(features.planars))
        self._edges.crop(pose.translation, self.crop_radius)
        self._planars.crop(pose.translation, self.crop_radius)
        self.edge_tree = cKDTree(self.edge_points) if self.num_edges else None
        self.planar_tree = cKDTree(self.planar_points) if self.num_planars else None


# ---------------------------------------------------------------------------
# Correspondence construction
# ---------------------------------------------------------------------------


@dataclass
class Correspondences:
    """Frozen geometric primitives matched to sensor-frame feature points."""

    edge_points: np.ndarray  # (Ne, 3) sensor frame
    line_centroids: np.ndarray  # (Ne, 3) global frame
    line_directions: np.ndarray  # (Ne, 3) unit
    plane_points: np.ndarray  # (Np, 3) sensor frame
    plane_normals: np.ndarray  # (Np, 3) unit
    plane_offsets: np.ndarray  # (Np,) so that residual = n.g + d

    def __len__(self) -> int:
        return len(self.edge_points) + len(self.plane_points)


def _empty(n=0):
    return np.zeros((n, 3))


def associate(features: FeatureCloud, submap: Submap, pose: Pose, cfg: OdometryConfig):
    """Match features (at the given pose) to submap lines and planes."""
    e_pts, e_cent, e_dir = _empty(), _empty(), _empty()
    if len(features.edges) and submap.edge_tree is not None:
        g = pose.apply(features.edges)
        dist, idx = submap.edge_tree.query(g, k=KNN)
        near = dist[:, -1] <= cfg.max_correspondence_distance
        group = submap.edge_points[idx]  # (N, 5, 3)
        cent = group.mean(axis=1)
        q = group - cent[:, None, :]
        cov = np.einsum("nki,nkj->nij", q, q) / KNN
        vals, vecs = np.linalg.eigh(cov)  # ascending
        linear = vals[:, 2] >= LINE_EIGEN_RATIO * vals[:, 1]
        keep = near & linear
        e_pts = features.edges[keep]
        e_cent = cent[keep]
        e_dir = vecs[keep][:, :, 2]

    p_pts, p_n, p_d = _empty(), _empty(), np.zeros(0)
    if len(features.planars) and submap.planar_tree is not None:
        g = pose.apply(features.planars)
        dist, idx = submap.planar_tree.query(g, k=KNN)
        near = dist[:, -1] <= cfg.max_correspondence_distance
        a = submap.planar_points[idx]  # (N, 5, 3)
        m = np.einsum("nki,nkj->nij", a, a)
        b = -a.sum(axis=1)
        det = np.abs(np.linalg.det(m))
        scale = np.linalg.norm(m, axis=(1, 2)) ** 3 + 1e-300
        solvable = det > 1e-9 * scale
        n = np.zeros_like(b)
        if solvable.any():
            n[solvable] = np.linalg.solve(m[solvable], b[solvable][..., None])[..., 0]
        norm = np.linalg.norm(n, axis=1)
        ok = solvable & (norm > 1e-12)
        unit = np.zeros_like(n)
        unit[ok] = n[ok] / norm[ok, None]
        offset = np.zeros(len(n))
        offset[ok] = 1.0 / norm[ok]
        # every neighbor must lie on the fitted plane
        d_fit = np.abs(np.einsum("nki,ni->nk", a, unit) + offset[:, None])
        flat = (d_fit <= PLANE_FIT_TOLERANCE).all(axis=1)
        keep = near & ok & flat
        p_pts = features.planars[keep]
        p_n = unit[keep]
        p_d = offset[keep]

    return Correspondences(e_pts, e_cent, e_dir, p_pts, p_n, p_d)


def _residuals(corr: Correspondences, pose: Pose):
    """Evaluate the correspondences at pose.

    Returns the residuals, lines first (non-negative) then planes (signed);
    the unit direction each residual is measured along (zero for a point
    on its line); and the transformed points, in the same order.
    """
    g_edges = pose.apply(corr.edge_points)
    g_planes = pose.apply(corr.plane_points)
    rel = g_edges - corr.line_centroids
    along = np.einsum("ni,ni->n", rel, corr.line_directions)
    rej = rel - along[:, None] * corr.line_directions
    er = np.linalg.norm(rej, axis=1)
    edir = np.zeros_like(rej)
    nz = er > 1e-12
    edir[nz] = rej[nz] / er[nz, None]
    pr = np.einsum("ni,ni->n", g_planes, corr.plane_normals) + corr.plane_offsets
    return (
        np.concatenate([er, pr]),
        np.concatenate([edir, corr.plane_normals]),
        np.concatenate([g_edges, g_planes]),
    )


def _huber_rho(r: np.ndarray, scale: float) -> np.ndarray:
    a = np.abs(r)
    return np.where(a <= scale, 0.5 * a * a, scale * (a - 0.5 * scale))


def _huber_weight(r: np.ndarray, scale: float) -> np.ndarray:
    a = np.abs(r)
    return np.where(a <= scale, 1.0, scale / np.maximum(a, 1e-300))


def _cost(r: np.ndarray, num_edges: int, huber_scale: float) -> float:
    """Huber objective; the line and the plane terms are summed apart."""
    rho = _huber_rho(r, huber_scale)
    return float(rho[:num_edges].sum() + rho[num_edges:].sum())


def _normal_equations(r, dirs, g, huber_scale: float):
    """Robust Gauss-Newton (H, gradient); residual rows are J = [g x n, n]."""
    j = np.concatenate([np.cross(g, dirs), dirs], axis=1)
    jw = j * _huber_weight(r, huber_scale)[:, None]
    return j.T @ jw, jw.T @ r


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


@dataclass
class RegistrationResult:
    pose: Pose
    final_cost: float  # mean |residual| at the returned pose
    iterations: int
    converged: bool = False
    degenerate: bool = False
    degenerate_directions: int = 0
    objective: float = 0.0
    num_edge_matches: int = 0
    num_plane_matches: int = 0
    cost_trace: list = field(default_factory=list)


MIN_TOTAL_MATCHES = 10
MAX_STEP_HALVINGS = 8


def register(
    features: FeatureCloud,
    submap: Submap,
    initial: Pose,
    cfg: OdometryConfig | None = None,
) -> RegistrationResult:
    """Estimate the pose aligning features to the submap, from initial."""
    cfg = cfg or OdometryConfig()
    if submap.num_edges < cfg.min_submap_edges or (
        submap.num_planars < cfg.min_submap_planars
    ):
        return RegistrationResult(
            pose=initial.copy(), final_cost=float("inf"), iterations=0, degenerate=True
        )

    pose = initial.copy()
    trace = []
    converged = False
    null_directions = 0
    corr = None
    iterations = 0
    prev_cost = None
    frozen = False
    budget = cfg.max_iterations + cfg.refine_iterations
    while iterations < budget:
        iterations += 1
        if not frozen:
            corr = associate(features, submap, pose, cfg)
            if len(corr) < MIN_TOTAL_MATCHES:
                return RegistrationResult(
                    pose=pose,
                    final_cost=float("inf"),
                    iterations=iterations,
                    degenerate=True,
                    cost_trace=trace,
                )
            evaluation = _residuals(corr, pose)
            cost = _cost(evaluation[0], len(corr.edge_points), cfg.huber_scale)
        # frozen iterations reuse the evaluation of the accepted step
        h, grad = _normal_equations(*evaluation, cfg.huber_scale)
        if not trace:
            trace.append(cost)
        if not (np.isfinite(h).all() and np.isfinite(grad).all()):
            raise IllConditionedError("non-finite normal equations")

        vals, vecs = np.linalg.eigh(h)
        top = vals[-1]
        if top <= 0.0:
            null_directions = 6
            break
        keep = vals > cfg.eigenvalue_floor * top
        null_directions = int((~keep).sum())
        inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
        delta = -vecs @ (inv * (vecs.T @ grad))
        if not np.isfinite(delta).all():
            raise IllConditionedError("non-finite normal-equation solution")

        # step halving against the frozen correspondences; a step must buy
        # a real decrease or the iteration is treated as stalled
        alpha = 1.0
        accepted = None
        for _ in range(MAX_STEP_HALVINGS):
            cand = exp(alpha * delta).compose(pose)
            cand_eval = _residuals(corr, cand)
            c = _cost(cand_eval[0], len(corr.edge_points), cfg.huber_scale)
            if c <= cost * (1.0 - 1e-8):
                accepted = (cand, cand_eval, c)
                break
            alpha *= 0.5
        if accepted is None:
            if frozen:
                converged = True  # fixed objective flat along the step
                break
            frozen = True  # stalled against shifting associations
            continue
        pose, evaluation, cost = accepted
        trace.append(cost)
        step_norm = np.linalg.norm(alpha * delta)
        if step_norm < cfg.convergence_tolerance:
            converged = True
            break
        if not frozen:
            stagnant = (
                prev_cost is not None
                and cost > prev_cost * (1.0 - cfg.freeze_cost_rel)
            )
            if stagnant or step_norm < cfg.freeze_step:
                frozen = True
            if iterations >= cfg.max_iterations:
                frozen = True
            prev_cost = cost

    return RegistrationResult(
        pose=pose,
        final_cost=float(np.abs(evaluation[0]).mean()),
        iterations=iterations,
        converged=converged,
        degenerate=null_directions > 0,
        degenerate_directions=null_directions,
        objective=trace[-1] if trace else 0.0,
        num_edge_matches=len(corr.edge_points),
        num_plane_matches=len(corr.plane_points),
        cost_trace=trace,
    )


# ---------------------------------------------------------------------------
# Frame pipeline
# ---------------------------------------------------------------------------


@dataclass
class OdometryState:
    current_pose: Pose = field(default_factory=Pose.identity)
    previous_pose: Pose = field(default_factory=Pose.identity)
    frame_index: int = 0


def predict_pose(state: OdometryState) -> Pose:
    """Constant-velocity extrapolation T_{k-1} (T_{k-2}^-1 T_{k-1})."""
    step = state.previous_pose.inverse().compose(state.current_pose)
    return state.current_pose.compose(step)


def process_frame(
    state: OdometryState,
    scan,
    submap: Submap,
    cfg: OdometryConfig | None = None,
):
    """Extract features, register against the submap, fold them in.

    Returns (features, pose, RegistrationResult or None).  The first frame
    bootstraps the submap at the identity without registering.
    """
    cfg = cfg or OdometryConfig()
    features = extract_features(scan, cfg.features)
    if submap.num_edges == 0 and submap.num_planars == 0:
        pose = Pose.identity()
        result = None
    else:
        result = register(features, submap, predict_pose(state), cfg)
        pose = result.pose
    submap.insert(features, pose)
    state.previous_pose = state.current_pose
    state.current_pose = pose
    state.frame_index += 1
    return features, pose, result
