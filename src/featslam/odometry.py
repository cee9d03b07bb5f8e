"""Frame-to-submap odometry: constant-velocity prediction, Gauss-Newton
registration on point-to-line and point-to-plane residuals, voxel submap.

Registration transforms each feature into the global frame, finds its 5
nearest submap neighbors, and fits a line (edges, covariance
eigen-decomposition) or a plane (planars, least squares on n.p = -1).
As in F-LOAM (Wang et al., IROS 2021), a line's residual is the 3-vector
e = (I - d d^T)(g - c) that rejects the point from the line, so each line
constrains both directions across it; a plane's is the signed distance.
The cost is the Huber loss of |e| and of the plane distances, and the
6-dof normal equations are solved through a truncated eigen-decomposition,
which both reports and disarms unconstrained directions (long corridors,
single planes).

Each tried pose costs one lean pass: one transform of the stacked edge
and plane points, the rejection vectors, the residuals and the Huber cost,
which is all the step test reads.  The Jacobian rows and weights are built
only at the accepted pose.

``max_iterations`` counts association rounds, at least 1 (2 by default:
F-LOAM matches each scan to the map in two rounds): correspondences are
made anew on each of the first ``max_iterations`` iterations, and the
remaining ``refine_iterations`` refine the pose against the last ones,
frozen.  A stagnant cost or a small step freezes them sooner, which
matters for larger budgets such as loop refinement's.

Pose updates are left-multiplicative: pose <- exp(delta) . pose, with the
twist laid out [wx, wy, wz, vx, vy, vz].  Inside registration the pose is
a rotation matrix and a translation, and each tried step is composed with
3x3 products; every result is projected onto SO(3) by
``project_rotation``, so the constant-velocity prediction does not
compound rounding.

The stage's only state is its submap: two keep-first voxel sets, edges
and planars, which ``process_frame`` crops to ``CROP_RADIUS`` around each
pose it folds in.  The prediction is read from the frame poses the caller
already holds.  Each set builds its KD-tree when first read after a change,
so a loop submap assembled from many keyframes builds only the two trees
its registration queries.

A registration that cannot estimate a pose (a submap too small, too few
matches, a non-finite or all-zero system, a non-finite step) returns one
result: the pose it had reached, infinite cost and all 6 directions
unestimated.  Its frame is folded into the submap only when the submap was
too small to register against.

``OdometryConfig`` holds the iteration budgets, the correspondence gate
and the voxel sizes; the Huber scale, the solver's tolerances, the crop
radius and the smallest submap registered against are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from featslam.features import FeatureCloud, FeatureConfig, extract_features
from featslam.geometry import Pose, exp_rt, project_rotation


@dataclass
class OdometryConfig:
    # association rounds, at least 1, before the rest refine on frozen
    # correspondences: F-LOAM's two matching rounds per scan
    max_iterations: int = 2
    refine_iterations: int = 40
    max_correspondence_distance: float = 5.0  # m, gate on the 5th neighbor
    edge_voxel_size: float = 0.4  # m
    planar_voxel_size: float = 0.8  # m

    def __post_init__(self):
        for name, low in (("max_iterations", 1), ("refine_iterations", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("max_correspondence_distance", "edge_voxel_size", "planar_voxel_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


KNN = 5  # neighbors per correspondence
HUBER_SCALE = 0.3  # m
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
CROP_RADIUS = 100.0  # m, odometry's window around the latest pose


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
    """Keep-first voxel grid over 3-d points: the points in insertion order,
    the sorted keys of their voxels for membership tests, and a search tree
    over the points, built when first read after a change."""

    def __init__(self, voxel: float):
        self.voxel = voxel
        self.points = np.zeros((0, 3))
        self.keys = np.zeros(0, dtype=np.int64)
        self._tree = None

    @property
    def tree(self):
        """cKDTree over the points."""
        if self._tree is None:
            # median splits buy nothing for a tree queried a few times
            # before the next change; sliding midpoint builds faster
            self._tree = cKDTree(self.points, balanced_tree=False)
        return self._tree

    def insert(self, points: np.ndarray) -> None:
        keys = _voxel_keys(points, self.voxel)
        unique, first = np.unique(keys, return_index=True)
        new = ~_member(self.keys, unique)
        if not new.any():
            return
        first = np.sort(first[new])  # first point per new voxel, in batch order
        self.points = np.concatenate([self.points, points[first]])
        self.keys = np.sort(np.concatenate([self.keys, unique[new]]))
        self._tree = None

    def crop(self, center: np.ndarray, radius: float) -> None:
        keep = np.linalg.norm(self.points - center, axis=1) <= radius
        if keep.all():
            return
        self.points = self.points[keep]
        # a stored point's key is the key it was inserted under
        self.keys = np.sort(_voxel_keys(self.points, self.voxel))
        self._tree = None


class Submap:
    """Global-frame edge and planar voxel sets; the caller crops them."""

    def __init__(self, cfg: OdometryConfig):
        self.edges = _VoxelSet(cfg.edge_voxel_size)
        self.planars = _VoxelSet(cfg.planar_voxel_size)

    def insert(self, features: FeatureCloud, pose: Pose) -> None:
        """Add features transformed by pose."""
        self.edges.insert(pose.apply(features.edges))
        self.planars.insert(pose.apply(features.planars))


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
    points: np.ndarray = field(init=False)  # (Ne + Np, 3) edge then plane points

    def __post_init__(self):
        self.points = np.concatenate([self.edge_points, self.plane_points])


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
    submap lines and planes.  The submap holds at least ``KNN`` points of
    each kind, as ``register`` checks; an empty cloud gives no matches."""
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
    e_pts, e_cent, e_dir = features.edges[keep], cent[keep], vecs[keep][:, :, 2]

    g = features.planars @ rotation.T + translation
    dist, idx = submap.planars.tree.query(g, k=KNN)
    near = dist[:, -1] <= cfg.max_correspondence_distance
    a = submap.planars.points[idx]  # (N, 5, 3)
    unit, offset, ok = _fit_planes(a)
    # every neighbor must lie on the fitted plane
    d_fit = np.abs(np.einsum("nki,ni->nk", a, unit) + offset[:, None])
    flat = (d_fit <= PLANE_FIT_TOLERANCE).all(axis=1)
    keep = near & ok & flat
    return Correspondences(e_pts, e_cent, e_dir, features.planars[keep], unit[keep],
                           offset[keep])


def _residuals(corr: Correspondences, rotation: np.ndarray, translation: np.ndarray):
    """Evaluate the correspondences at the pose (rotation matrix, translation).

    Returns the transformed points, lines first then planes; each line's
    rejection vector e = (I - d d^T)(g - c); and the residuals in the same
    order as the points, |e| per line (non-negative) then the signed plane
    distances n.g + d.
    """
    g = corr.points @ rotation.T + translation
    ne = len(corr.edge_points)
    rel = g[:ne] - corr.line_centroids
    along = np.einsum("ni,ni->n", rel, corr.line_directions)
    rej = rel - along[:, None] * corr.line_directions
    r = np.empty(len(g))
    r[:ne] = np.linalg.norm(rej, axis=1)
    r[ne:] = np.einsum("ni,ni->n", g[ne:], corr.plane_normals) + corr.plane_offsets
    return g, rej, r


def _huber_rho(r: np.ndarray) -> np.ndarray:
    a = np.abs(r)
    return np.where(a <= HUBER_SCALE, 0.5 * a * a, HUBER_SCALE * (a - 0.5 * HUBER_SCALE))


def _huber_weight(r: np.ndarray) -> np.ndarray:
    a = np.abs(r)
    return np.where(a <= HUBER_SCALE, 1.0, HUBER_SCALE / np.maximum(a, 1e-300))


def _cost(r: np.ndarray, num_edges: int) -> float:
    """Huber objective; the line and the plane terms are summed apart."""
    rho = _huber_rho(r)
    return float(rho[:num_edges].sum() + rho[num_edges:].sum())


def _normal_equations(corr: Correspondences, g, rej, r):
    """Robust Gauss-Newton (H, gradient) at one evaluation of corr.

    A line adds three rows [g x m_k, m_k], one per row m_k of I - d d^T,
    whose residuals are its rejection vector; a plane adds the row
    [g x n, n] with its signed distance.  Every row of a correspondence
    carries the Huber weight of its residual norm.
    """
    ne = len(rej)
    d = corr.line_directions
    lines = np.eye(3) - d[:, :, None] * d[:, None, :]  # (Ne, 3, 3), row k is m_k
    dirs = np.concatenate([lines.reshape(-1, 3), corr.plane_normals])
    pts = np.concatenate([np.repeat(g[:ne], 3, axis=0), g[ne:]])
    (gx, gy, gz), (nx, ny, nz) = pts.T, dirs.T
    j = np.empty((len(dirs), 6))
    j[:, 0] = gy * nz - gz * ny
    j[:, 1] = gz * nx - gx * nz
    j[:, 2] = gx * ny - gy * nx
    j[:, 3:] = dirs
    w = _huber_weight(r)
    jw = j * np.concatenate([np.repeat(w[:ne], 3), w[ne:]])[:, None]
    return j.T @ jw, jw.T @ np.concatenate([rej.ravel(), r[ne:]])


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
    associations: int = 0  # associate calls made

    @property
    def degenerate(self) -> bool:
        return self.degenerate_directions > 0


MIN_TOTAL_MATCHES = 10


def _unregistered(rotation: np.ndarray, translation: np.ndarray,
                  iterations: int, associations: int) -> RegistrationResult:
    """The result of a registration that could not estimate a pose."""
    return RegistrationResult(Pose(project_rotation(rotation), translation),
                              float("inf"), iterations, degenerate_directions=6,
                              associations=associations)


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
        return _unregistered(rotation, translation, 0, 0)

    converged = False
    iterations = 0
    associations = 0
    prev_cost = None
    frozen = False
    budget = cfg.max_iterations + cfg.refine_iterations
    while iterations < budget:
        iterations += 1
        if not frozen:
            corr = associate(features, submap, rotation, translation, cfg)
            associations += 1
            if len(corr.points) < MIN_TOTAL_MATCHES:
                return _unregistered(rotation, translation, iterations, associations)
            evaluation = _residuals(corr, rotation, translation)
            cost = _cost(evaluation[2], len(corr.edge_points))
        # the system is built only at accepted poses; frozen iterations
        # reuse the evaluation of the accepted step
        h, grad = _normal_equations(corr, *evaluation)
        if not (np.isfinite(h).all() and np.isfinite(grad).all()):
            return _unregistered(rotation, translation, iterations, associations)

        vals, vecs = np.linalg.eigh(h)
        top = vals[-1]
        keep = vals > EIGENVALUE_FLOOR * top
        null_directions = int((~keep).sum())
        inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
        delta = -vecs @ (inv * (vecs.T @ grad))
        # an all-zero system keeps no direction and gives a zero step
        if not (top > 0.0 and np.isfinite(delta).all()):
            return _unregistered(rotation, translation, iterations, associations)

        # the whole step against the current correspondences must buy a
        # real decrease, or the objective is flat along it: converged
        step_r, step_t = exp_rt(delta)
        cand_r, cand_t = step_r @ rotation, step_r @ translation + step_t
        cand_eval = _residuals(corr, cand_r, cand_t)
        cand_cost = _cost(cand_eval[2], len(corr.edge_points))
        if not cand_cost <= cost * (1.0 - 1e-8):
            converged = True
            break
        rotation, translation, evaluation, cost = cand_r, cand_t, cand_eval, cand_cost
        step_norm = np.linalg.norm(delta)
        if step_norm < CONVERGENCE_TOLERANCE:
            converged = True
            break
        if not frozen:
            stagnant = prev_cost is not None and cost > prev_cost * (1.0 - FREEZE_COST_REL)
            frozen = stagnant or step_norm < FREEZE_STEP or associations >= cfg.max_iterations
            prev_cost = cost

    return RegistrationResult(
        pose=Pose(project_rotation(rotation), translation),
        final_cost=float(np.abs(evaluation[2]).mean()),
        iterations=iterations,
        converged=converged,
        degenerate_directions=null_directions,
        num_edge_matches=len(corr.edge_points),
        num_plane_matches=len(corr.plane_points),
        associations=associations,
    )


# ---------------------------------------------------------------------------
# Frame pipeline
# ---------------------------------------------------------------------------


def predict_pose(poses: Sequence[Pose]) -> Pose:
    """Constant-velocity extrapolation T_{k-1} (T_{k-2}^-1 T_{k-1}) from the
    poses so far, of which there is at least one; one pose predicts zero
    velocity."""
    previous, current = poses[-min(len(poses), 2)], poses[-1]
    return current.compose(previous.inverse().compose(current))


def process_frame(poses: Sequence[Pose], scan, submap: Submap, cfg: OdometryConfig,
                  feature_cfg: FeatureConfig):
    """Extract features, register, fold them into the submap and crop it.

    poses are the poses of the frames before this one; only the submap
    changes.  Returns (features, pose, RegistrationResult or None).  The
    first frame (no poses before it) bootstraps the submap at the identity
    without registering; a later frame that meets an empty submap, as after
    empty first scans, gets the unregistered result at its prediction and
    is folded in there.  A frame whose registration failed against a
    submap big enough to register against is not folded in: its pose is
    not an estimate, and its points would be misplaced in the map.
    """
    features = extract_features(scan, feature_cfg)
    if not poses:
        pose = Pose.identity()
        result = None
    else:
        result = register(features, submap, predict_pose(poses), cfg)
        pose = result.pose
    if result is None or result.iterations == 0 or np.isfinite(result.final_cost):
        submap.insert(features, pose)
        for voxels in (submap.edges, submap.planars):
            voxels.crop(pose.translation, CROP_RADIUS)
    return features, pose, result
