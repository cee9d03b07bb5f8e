"""Frame-to-submap odometry: constant-velocity prediction, Gauss-Newton
registration on point-to-line and point-to-plane residuals, voxel submap.

Registration transforms each feature into the global frame, finds its 5
nearest submap neighbors, and fits a line (edges, covariance
eigen-decomposition) or a plane (planars, least squares on n.p = -1).
Residuals are robustified with a Huber loss and the 6-dof normal equations
are solved through a truncated eigen-decomposition, which both reports and
disarms unconstrained directions (long corridors, single planes).

Pose updates are left-multiplicative: pose <- exp(delta) . pose, with the
twist laid out [wx, wy, wz, vx, vy, vz].  Inside registration the pose is
a rotation matrix and a translation, and each tried step is composed with
3x3 products; every result is projected onto SO(3) by
``project_rotation``, so the constant-velocity prediction does not
compound rounding.

The submap is two keep-first voxel sets, edges and planars, cropped
around the latest pose.  Each set builds its KD-tree when the tree is
first read after a change, so a loop submap assembled from many
keyframes builds only the two trees its registration queries.

``OdometryConfig`` holds the iteration budgets, the robust scale, the
correspondence gate and the submap geometry; the solver's tolerances and
the submap size below which registration is skipped are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from featslam.features import FeatureCloud, FeatureConfig, extract_features
from featslam.geometry import Pose, exp_rt, project_rotation


class IllConditionedError(RuntimeError):
    """Normal-equation solve produced non-finite values."""


@dataclass
class OdometryConfig:
    max_iterations: int = 20
    refine_iterations: int = 40
    huber_scale: float = 0.3  # m
    max_correspondence_distance: float = 5.0  # m, gate on the 5th neighbor
    edge_voxel_size: float = 0.4  # m
    planar_voxel_size: float = 0.8  # m
    crop_radius: float = 100.0  # m

    def __post_init__(self):
        for name in ("max_iterations", "refine_iterations"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("huber_scale", "max_correspondence_distance", "edge_voxel_size",
                     "planar_voxel_size", "crop_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.max_iterations + self.refine_iterations < 1:
            raise ValueError(
                "max_iterations + refine_iterations must be >= 1, got "
                f"{self.max_iterations} + {self.refine_iterations}"
            )


KNN = 5  # neighbors per correspondence
CONVERGENCE_TOLERANCE = 1e-4  # |twist step|, combined rad/m
# re-association is frozen once the step or the cost improvement falls
# below these, so the final iterate is the exact minimizer of one
# fixed robust objective instead of an association limit cycle
FREEZE_STEP = 1e-3
FREEZE_COST_REL = 1e-3
EIGENVALUE_FLOOR = 1e-8  # relative truncation cutoff
MIN_SUBMAP_EDGES = 10
MIN_SUBMAP_PLANARS = 50
LINE_EIGEN_RATIO = 3.0  # largest eigenvalue must exceed ratio x second
PLANE_FIT_TOLERANCE = 0.2  # m, every neighbor must sit on the fitted plane


# ---------------------------------------------------------------------------
# Submap
# ---------------------------------------------------------------------------

_OFFSET = 1 << 20  # voxel index bias so packed keys stay non-negative


def _voxel_keys(points: np.ndarray, voxel: float) -> np.ndarray:
    ijk = np.floor(points / voxel).astype(np.int64) + _OFFSET
    return (ijk[:, 0] << 42) | (ijk[:, 1] << 21) | ijk[:, 2]


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which keys occur in sorted_keys."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys).clip(max=len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


class _VoxelSet:
    """Keep-first voxel grid over 3-d points: parallel key and point arrays
    in insertion order, a sorted copy of the keys for membership tests, and
    a search tree over the points, built when first read after a change."""

    def __init__(self, voxel: float):
        self.voxel = voxel
        self.keys = np.zeros(0, dtype=np.int64)
        self.points = np.zeros((0, 3))
        self._sorted = self.keys
        self._tree = None

    @property
    def tree(self):
        """cKDTree over the points, or None while the set is empty."""
        if self._tree is None and len(self.points):
            self._tree = cKDTree(self.points)
        return self._tree

    def insert(self, points: np.ndarray) -> None:
        keys = _voxel_keys(points, self.voxel)
        unique, first = np.unique(keys, return_index=True)
        new = ~_member(self._sorted, unique)
        if not new.any():
            return
        first = np.sort(first[new])  # first point per new voxel, in batch order
        self.keys = np.concatenate([self.keys, keys[first]])
        self.points = np.concatenate([self.points, points[first]])
        self._sorted = np.sort(np.concatenate([self._sorted, unique[new]]))
        self._tree = None

    def crop(self, center: np.ndarray, radius: float) -> None:
        keep = np.linalg.norm(self.points - center, axis=1) <= radius
        if keep.all():
            return
        self.keys = self.keys[keep]
        self.points = self.points[keep]
        self._sorted = np.sort(self.keys)
        self._tree = None


class Submap:
    """Global-frame edge and planar voxel sets, cropped around the latest
    pose."""

    def __init__(self, cfg: OdometryConfig):
        self.edges = _VoxelSet(cfg.edge_voxel_size)
        self.planars = _VoxelSet(cfg.planar_voxel_size)
        self.crop_radius = cfg.crop_radius

    def insert(self, features: FeatureCloud, pose: Pose) -> None:
        """Add features transformed by pose, then crop around the pose."""
        for voxels, points in ((self.edges, features.edges), (self.planars, features.planars)):
            voxels.insert(pose.apply(points))
            voxels.crop(pose.translation, self.crop_radius)


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


def _empty():
    return np.zeros((0, 3))


def _fit_planes(a: np.ndarray):
    """Least-squares planes n.p = -1 through each group of points a (N, K, 3).

    The normal equations (a^T a) n = -sum(a) are solved through the
    adjugate of the symmetric 3x3 matrix: one set of cofactors gives both
    the determinant and the solution.  Returns the unit normals, the
    offsets d (so that n.p + d = 0 on the plane) and where the fit is
    defined; undefined rows hold zeros.
    """
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    xx, xy, xz = (x * x).sum(1), (x * y).sum(1), (x * z).sum(1)
    yy, yz, zz = (y * y).sum(1), (y * z).sum(1), (z * z).sum(1)
    bx, by, bz = -x.sum(1), -y.sum(1), -z.sum(1)
    c00, c01, c02 = yy * zz - yz * yz, xz * yz - xy * zz, xy * yz - xz * yy
    c11, c12, c22 = xx * zz - xz * xz, xy * xz - xx * yz, xx * yy - xy * xy
    det = xx * c00 + xy * c01 + xz * c02
    frob2 = xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz)
    solvable = np.abs(det) > 1e-9 * (np.sqrt(frob2) ** 3 + 1e-300)
    inv_det = np.where(solvable, 1.0 / np.where(solvable, det, 1.0), 0.0)
    n = np.empty((len(det), 3))
    n[:, 0] = (c00 * bx + c01 * by + c02 * bz) * inv_det
    n[:, 1] = (c01 * bx + c11 * by + c12 * bz) * inv_det
    n[:, 2] = (c02 * bx + c12 * by + c22 * bz) * inv_det
    norm = np.linalg.norm(n, axis=1)
    ok = solvable & (norm > 1e-12)
    safe = np.where(ok, norm, 1.0)
    return (
        np.where(ok[:, None], n / safe[:, None], 0.0),
        np.where(ok, 1.0 / safe, 0.0),
        ok,
    )


def associate(
    features: FeatureCloud,
    submap: Submap,
    rotation: np.ndarray,
    translation: np.ndarray,
    cfg: OdometryConfig,
):
    """Match features, at the pose (rotation matrix, translation), to
    submap lines and planes."""
    e_pts, e_cent, e_dir = _empty(), _empty(), _empty()
    if len(features.edges) and submap.edges.tree is not None:
        g = features.edges @ rotation.T + translation
        dist, idx = submap.edges.tree.query(g, k=KNN)
        near = dist[:, -1] <= cfg.max_correspondence_distance
        group = submap.edges.points[idx]  # (N, 5, 3)
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
    if len(features.planars) and submap.planars.tree is not None:
        g = features.planars @ rotation.T + translation
        dist, idx = submap.planars.tree.query(g, k=KNN)
        near = dist[:, -1] <= cfg.max_correspondence_distance
        a = submap.planars.points[idx]  # (N, 5, 3)
        unit, offset, ok = _fit_planes(a)
        # every neighbor must lie on the fitted plane
        d_fit = np.abs(np.einsum("nki,ni->nk", a, unit) + offset[:, None])
        flat = (d_fit <= PLANE_FIT_TOLERANCE).all(axis=1)
        keep = near & ok & flat
        p_pts = features.planars[keep]
        p_n = unit[keep]
        p_d = offset[keep]

    return Correspondences(e_pts, e_cent, e_dir, p_pts, p_n, p_d)


def _residuals(corr: Correspondences, rotation: np.ndarray, translation: np.ndarray):
    """Evaluate the correspondences at the pose (rotation matrix, translation).

    Returns the residuals, lines first (non-negative) then planes (signed);
    the unit direction each residual is measured along (zero for a point
    on its line); and the transformed points, in the same order.
    """
    g_edges = corr.edge_points @ rotation.T + translation
    g_planes = corr.plane_points @ rotation.T + translation
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
    (gx, gy, gz), (nx, ny, nz) = g.T, dirs.T
    j = np.empty((len(r), 6))
    j[:, 0] = gy * nz - gz * ny
    j[:, 1] = gz * nx - gx * nz
    j[:, 2] = gx * ny - gy * nx
    j[:, 3:] = dirs
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
    # twist directions left unestimated: 6 when registration was skipped
    degenerate_directions: int = 0
    num_edge_matches: int = 0
    num_plane_matches: int = 0

    @property
    def degenerate(self) -> bool:
        return self.degenerate_directions > 0


MIN_TOTAL_MATCHES = 10
MAX_STEP_HALVINGS = 8


def register(
    features: FeatureCloud,
    submap: Submap,
    initial: Pose,
    cfg: OdometryConfig,
) -> RegistrationResult:
    """Estimate the pose aligning features to the submap, from initial."""
    rotation, translation = initial.rotation, initial.translation
    if (len(submap.edges.points) < MIN_SUBMAP_EDGES
            or len(submap.planars.points) < MIN_SUBMAP_PLANARS):
        return RegistrationResult(Pose(project_rotation(rotation), translation),
                                  float("inf"), 0, degenerate_directions=6)

    converged = False
    null_directions = 0
    iterations = 0
    prev_cost = None
    frozen = False
    budget = cfg.max_iterations + cfg.refine_iterations
    while iterations < budget:
        iterations += 1
        if not frozen:
            corr = associate(features, submap, rotation, translation, cfg)
            if len(corr) < MIN_TOTAL_MATCHES:
                return RegistrationResult(Pose(project_rotation(rotation), translation),
                                          float("inf"), iterations, degenerate_directions=6)
            evaluation = _residuals(corr, rotation, translation)
            cost = _cost(evaluation[0], len(corr.edge_points), cfg.huber_scale)
        # frozen iterations reuse the evaluation of the accepted step
        h, grad = _normal_equations(*evaluation, cfg.huber_scale)
        if not (np.isfinite(h).all() and np.isfinite(grad).all()):
            raise IllConditionedError("non-finite normal equations")

        vals, vecs = np.linalg.eigh(h)
        top = vals[-1]
        if top <= 0.0:
            null_directions = 6
            break
        keep = vals > EIGENVALUE_FLOOR * top
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
            step_r, step_t = exp_rt(alpha * delta)
            cand_r, cand_t = step_r @ rotation, step_r @ translation + step_t
            cand_eval = _residuals(corr, cand_r, cand_t)
            c = _cost(cand_eval[0], len(corr.edge_points), cfg.huber_scale)
            if c <= cost * (1.0 - 1e-8):
                accepted = (cand_r, cand_t, cand_eval, c)
                break
            alpha *= 0.5
        if accepted is None:
            if frozen:
                converged = True  # fixed objective flat along the step
                break
            frozen = True  # stalled against shifting associations
            continue
        rotation, translation, evaluation, cost = accepted
        step_norm = np.linalg.norm(alpha * delta)
        if step_norm < CONVERGENCE_TOLERANCE:
            converged = True
            break
        if not frozen:
            stagnant = (
                prev_cost is not None
                and cost > prev_cost * (1.0 - FREEZE_COST_REL)
            )
            if stagnant or step_norm < FREEZE_STEP:
                frozen = True
            if iterations >= cfg.max_iterations:
                frozen = True
            prev_cost = cost

    return RegistrationResult(
        pose=Pose(project_rotation(rotation), translation),
        final_cost=float(np.abs(evaluation[0]).mean()),
        iterations=iterations,
        converged=converged,
        degenerate_directions=null_directions,
        num_edge_matches=len(corr.edge_points),
        num_plane_matches=len(corr.plane_points),
    )


# ---------------------------------------------------------------------------
# Frame pipeline
# ---------------------------------------------------------------------------


@dataclass
class OdometryState:
    current_pose: Pose = field(default_factory=Pose.identity)
    previous_pose: Pose = field(default_factory=Pose.identity)


def predict_pose(state: OdometryState) -> Pose:
    """Constant-velocity extrapolation T_{k-1} (T_{k-2}^-1 T_{k-1})."""
    step = state.previous_pose.inverse().compose(state.current_pose)
    return state.current_pose.compose(step)


def process_frame(
    state: OdometryState,
    scan,
    submap: Submap,
    cfg: OdometryConfig,
    feature_cfg: FeatureConfig,
):
    """Extract features, register against the submap, fold them in.

    Returns (features, pose, RegistrationResult or None).  The first frame
    bootstraps the submap at the identity without registering.
    """
    features = extract_features(scan, feature_cfg)
    if len(submap.edges.points) == 0 and len(submap.planars.points) == 0:
        pose = Pose.identity()
        result = None
    else:
        result = register(features, submap, predict_pose(state), cfg)
        pose = result.pose
    submap.insert(features, pose)
    state.previous_pose = state.current_pose
    state.current_pose = pose
    return features, pose, result
