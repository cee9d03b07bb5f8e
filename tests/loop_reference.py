"""Per-element reference implementations, kept as test oracles.

``features.extract_features``, ``scan_context.descriptor_distance`` and the
odometry submap and registration do their work in whole-array numpy passes
or evaluate each pose once.  The functions here are the straightforward code
they replace: per ring, segment, sector and candidate for feature
extraction; per column shift for the descriptor distance; a dict per voxel
grid; separate residual, objective and normal-equation evaluations for
registration, with each line's three rows built one line at a time; a
batched einsum, determinant and solve for the plane fits of the
correspondence search; the unit-quaternion rotation
(``QuaternionRotation``) that a ``geometry.Pose`` stored before its rotation
became a matrix, and SE(3) exp, log, left Jacobians and adjoint on one pose or twist
at a time, with exp and log through quaternions, and the pose-graph
Levenberg-Marquardt solve built on them, one edge at a time and with a
cost pass separate from each normal-equation pass; and the simulator's ray
caster, one wall or pole at a time, and blocked, every wall and pole
against every ray.  Tests compare the two on seeded inputs; nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from featslam.dataset_io import RawScan
from featslam import features
from featslam.features import FeatureCloud
from featslam.geometry import DegenerateRotationError, Pose, skew
from featslam.odometry import (
    KNN,
    LINE_EIGEN_RATIO,
    PLANE_FIT_TOLERANCE,
    Correspondences,
    _huber_rho,
    _huber_weight,
    _voxel_keys,
)
from featslam import pose_graph
from featslam.pose_graph import _LAMBDA_INIT as LAMBDA_INIT
from featslam.pose_graph import _LAMBDA_MAX as LAMBDA_MAX
from featslam.pose_graph import _LAMBDA_MIN as LAMBDA_MIN
from featslam.pose_graph import OptimizationReport
from featslam.scan_context import EMPTY_BIN
from featslam.scan_context import ScanContextDescriptor
from featslam.simulate import Pole, Wall, World, _ground_hits


def compute_smoothness(
    ring_points: np.ndarray, i: int, half_width: int, min_range: float = 0.0
):
    """Smoothness of point i in an ordered list of ring points.

    Returns None ("unscored") when the point is closer to the sensor than
    min_range.  Requires half_width <= i < len(ring_points) - half_width.
    """
    pts = np.asarray(ring_points, dtype=float)
    if not (half_width <= i < len(pts) - half_width):
        raise IndexError("window does not fit inside the ring ordering")
    p = pts[i]
    r = np.linalg.norm(p)
    if r < min_range:
        return None
    window = pts[i - half_width : i + half_width + 1]
    diff = window.sum(axis=0) - (2 * half_width + 1) * p
    return float(np.linalg.norm(diff) / (2 * half_width * r))


def segment_smoothness(pts: np.ndarray, half_width: int, cyclic: bool):
    """Vectorized smoothness over one ring segment.

    Returns (sigma, scorable) arrays; non-scorable entries hold sigma = inf.
    For open segments the first/last half_width points are unscored.
    """
    n = len(pts)
    sigma = np.full(n, np.inf)
    scorable = np.zeros(n, dtype=bool)
    w = 2 * half_width + 1
    if cyclic:
        if n < w:
            return sigma, scorable
        idx = (np.arange(n)[:, None] + np.arange(-half_width, half_width + 1)) % n
        window_sum = pts[idx].sum(axis=1)
        centers = np.arange(n)
    else:
        if n < w:
            return sigma, scorable
        kernel = np.ones(w)
        window_sum = np.stack(
            [np.convolve(pts[:, k], kernel, mode="valid") for k in range(3)], axis=1
        )
        centers = np.arange(half_width, n - half_width)
    p = pts[centers]
    r = np.linalg.norm(p, axis=1)
    diff = window_sum - w * p
    ok = r > 0
    vals = np.full(len(centers), np.inf)
    vals[ok] = np.linalg.norm(diff[ok], axis=1) / (2 * half_width * r[ok])
    sigma[centers] = vals
    scorable[centers] = ok
    return sigma, scorable


def occluded(rng: np.ndarray, half_width: int, cyclic: bool, gap: float):
    """True where some window neighbor is closer by more than gap meters:
    the point sits on the far side of an occlusion silhouette."""
    n = len(rng)
    flag = np.zeros(n, dtype=bool)
    if n < 2:
        return flag
    for k in range(1, half_width + 1):
        if cyclic:
            flag |= (rng - np.roll(rng, k)) > gap
            flag |= (rng - np.roll(rng, -k)) > gap
        else:
            flag[k:] |= (rng[k:] - rng[:-k]) > gap
            flag[:-k] |= (rng[:-k] - rng[k:]) > gap
    return flag


def ring_segments(azimuth: np.ndarray, gap_factor: float):
    """Split an azimuth-sorted ring into (indices, cyclic) segments at gaps."""
    n = len(azimuth)
    gaps = np.diff(azimuth, append=azimuth[0] + 2 * np.pi)  # cyclic gaps
    median_gap = np.median(gaps)
    big = gaps > gap_factor * max(median_gap, 1e-9)
    if not big.any():
        return [(np.arange(n), True)]
    cut_after = np.flatnonzero(big)
    segments = []
    for k in range(len(cut_after)):
        start = (cut_after[k] + 1) % n
        stop = cut_after[(k + 1) % len(cut_after)]
        if stop >= start:
            seg = np.arange(start, stop + 1)
        else:
            seg = np.concatenate([np.arange(start, n), np.arange(0, stop + 1)])
        segments.append((seg, False))
    return segments


def extract_features(scan: RawScan) -> FeatureCloud:
    """The per-ring loop that features.extract_features replaces.

    Per ring and azimuthal sector: candidates sorted by smoothness; up to
    MAX_EDGES_PER_SECTOR with sigma > SMOOTHNESS_THRESHOLD become edges, up
    to MAX_PLANARS_PER_SECTOR with sigma <= it become planars.  Points
    past MAX_RANGE are dropped first; points nearer than MIN_RANGE are not
    scored.  Points within NEIGHBORHOOD_HALF_WIDTH of a selected edge are
    suppressed from further selection.  These are the constants of
    ``features``, read at each call.
    """
    kept = np.linalg.norm(scan.xyz, axis=1) <= features.MAX_RANGE
    xyz, rings = scan.xyz[kept], scan.ring[kept]
    if len(xyz) == 0:
        return FeatureCloud()

    hw = features.NEIGHBORHOOD_HALF_WIDTH
    num_sectors = features.NUM_SECTORS
    threshold = features.SMOOTHNESS_THRESHOLD
    edges, planars = [], []
    for ring_id in np.unique(rings):
        pts = xyz[rings == ring_id]
        if len(pts) < 2 * hw + 1:
            continue
        azimuth = np.arctan2(pts[:, 1], pts[:, 0])
        order = np.argsort(azimuth, kind="stable")
        pts = pts[order]
        azimuth = azimuth[order]

        for seg_idx, cyclic in ring_segments(azimuth, features.GAP_FACTOR):
            seg = pts[seg_idx]
            sigma, scorable = segment_smoothness(seg, hw, cyclic)
            rng = np.linalg.norm(seg, axis=1)
            scorable &= rng >= features.MIN_RANGE
            scorable &= ~occluded(rng, hw, cyclic, features.OCCLUSION_GAP)

            sector = np.floor(
                (azimuth[seg_idx] + np.pi) / (2 * np.pi) * num_sectors
            ).astype(int) % num_sectors

            suppressed = np.zeros(len(seg), dtype=bool)
            n = len(seg)
            for s in range(num_sectors):
                cand = np.flatnonzero(scorable & (sector == s))
                if len(cand) == 0:
                    continue
                by_sigma = cand[np.argsort(sigma[cand], kind="stable")]
                picked_edges = 0
                for i in by_sigma[::-1]:
                    if picked_edges >= features.MAX_EDGES_PER_SECTOR:
                        break
                    if sigma[i] <= threshold:
                        break  # descending order: no edge candidates remain
                    if suppressed[i]:
                        continue
                    edges.append(seg[i])
                    picked_edges += 1
                    lo, hi = i - hw, i + hw
                    if cyclic:
                        suppressed[np.arange(lo, hi + 1) % n] = True
                    else:
                        suppressed[max(lo, 0) : min(hi + 1, n)] = True
                picked_planars = 0
                for i in by_sigma:
                    if picked_planars >= features.MAX_PLANARS_PER_SECTOR:
                        break
                    if sigma[i] > threshold:
                        break
                    if suppressed[i]:
                        continue
                    planars.append(seg[i])
                    picked_planars += 1

    return FeatureCloud(
        edges=np.array(edges) if edges else np.zeros((0, 3)),
        planars=np.array(planars) if planars else np.zeros((0, 3)),
    )


def descriptor_distance(a: ScanContextDescriptor, b: ScanContextDescriptor):
    """The per-shift loop that scan_context.descriptor_distance replaces.

    Returns (distance in [0, 1], best shift). Columns empty in both
    descriptors are skipped; if every column is skipped the distance is 1.
    """
    if a.matrix.shape != b.matrix.shape:
        raise ValueError(
            f"descriptor shapes differ: {a.matrix.shape} vs {b.matrix.shape}"
        )
    num_sectors = a.matrix.shape[1]
    a_occ = a.matrix > EMPTY_BIN
    b_occ = b.matrix > EMPTY_BIN
    av = np.where(a_occ, a.matrix, 0.0)
    bv = np.where(b_occ, b.matrix, 0.0)
    a_col_occ = a_occ.any(axis=0)
    a_norm = np.linalg.norm(av, axis=0)

    best = (1.0, 0)
    for shift in range(num_sectors):
        bs = np.roll(bv, -shift, axis=1)
        col_occ = a_col_occ | np.roll(b_occ.any(axis=0), -shift)
        if not col_occ.any():
            continue
        b_norm = np.roll(np.linalg.norm(bv, axis=0), -shift)
        dot = (av * bs).sum(axis=0)
        denom = a_norm * b_norm
        # a zero column against an occupied one carries no directional
        # information: score it as maximally distant rather than dividing
        cos = np.where(denom > 0.0, dot / np.where(denom > 0.0, denom, 1.0), 0.0)
        col_dist = 1.0 - cos
        # snap float dust to zero so shifted twins compare exactly equal
        col_dist = np.where(np.abs(col_dist) < 1e-12, 0.0, col_dist)
        d = float(np.clip(col_dist[col_occ].mean(), 0.0, 1.0))
        if d < best[0]:
            best = (d, shift)
    return best


class VoxelSet:
    """The dict-backed keep-first voxel grid that odometry._VoxelSet replaces."""

    def __init__(self, voxel: float):
        self.voxel = voxel
        self._cells: dict[int, np.ndarray] = {}

    def insert(self, points: np.ndarray) -> None:
        if len(points) == 0:
            return
        keys = _voxel_keys(points, self.voxel)
        cells = self._cells
        for k, p in zip(keys.tolist(), points):
            if k not in cells:
                cells[k] = p

    def crop(self, center: np.ndarray, radius: float) -> None:
        if not self._cells:
            return
        pts = np.array(list(self._cells.values()))
        keep = np.linalg.norm(pts - center, axis=1) <= radius
        if keep.all():
            return
        keys = list(self._cells.keys())
        self._cells = {k: p for k, p, ok in zip(keys, pts, keep) if ok}

    def points(self) -> np.ndarray:
        if not self._cells:
            return np.zeros((0, 3))
        return np.array(list(self._cells.values()))


def residuals(corr, pose):
    """Line rejection vectors e = (I - d d^T)(g - c) and their norms, and
    signed plane residuals, with the edge and plane branches evaluated
    apart."""
    rej = np.zeros((len(corr.edge_points), 3))
    er = np.zeros(len(corr.edge_points))
    if len(corr.edge_points):
        g = pose.apply(corr.edge_points)
        rel = g - corr.line_centroids
        along = np.einsum("ni,ni->n", rel, corr.line_directions)
        rej = rel - along[:, None] * corr.line_directions
        er = np.linalg.norm(rej, axis=1)
    pr = np.zeros(len(corr.plane_points))
    if len(corr.plane_points):
        g = pose.apply(corr.plane_points)
        pr = np.einsum("ni,ni->n", g, corr.plane_normals) + corr.plane_offsets
    return er, rej, pr


def objective(corr, pose) -> float:
    er, _, pr = residuals(corr, pose)
    return float(_huber_rho(er).sum() + _huber_rho(pr).sum())


def build_system(corr, pose):
    """Robust Gauss-Newton normal equations (H, g, objective, residuals),
    built one line at a time: a line's three rows are [g x m_k, m_k] for
    the rows m_k of I - d d^T, its three residuals are its rejection
    vector, and all three carry the Huber weight of the vector's norm."""
    er, rej, pr = residuals(corr, pose)
    rows = []
    resid = []
    weights = []
    for g, d, e, norm in zip(pose.apply(corr.edge_points), corr.line_directions, rej, er):
        m = np.eye(3) - np.outer(d, d)
        rows.append(np.concatenate([np.cross(g, m), m], axis=1))
        resid.append(e)
        weights.append(np.full(3, _huber_weight(norm)))
    if len(corr.plane_points):
        g_pts = pose.apply(corr.plane_points)
        j = np.concatenate(
            [np.cross(g_pts, corr.plane_normals), corr.plane_normals], axis=1
        )
        rows.append(j)
        resid.append(pr)
        weights.append(_huber_weight(pr))
    total = float(_huber_rho(er).sum() + _huber_rho(pr).sum())
    if not rows:
        return np.zeros((6, 6)), np.zeros(6), total, np.zeros(0)
    j = np.vstack(rows)
    r = np.concatenate(resid)
    w = np.concatenate(weights)
    jw = j * w[:, None]
    h = j.T @ jw
    grad = jw.T @ r
    return h, grad, total, r


def associate(features, submap, pose, cfg):
    """odometry.associate with the plane fits solved by np.linalg: the
    normal equations (a^T a) n = -sum(a) formed by einsum, their
    determinant by np.linalg.det and their solution by np.linalg.solve."""
    e_pts, e_cent, e_dir = np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3))
    if len(features.edges) and submap.edges.tree is not None:
        g = pose.apply(features.edges)
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

    p_pts, p_n, p_d = np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0)
    if len(features.planars) and submap.planars.tree is not None:
        g = pose.apply(features.planars)
        dist, idx = submap.planars.tree.query(g, k=KNN)
        near = dist[:, -1] <= cfg.max_correspondence_distance
        a = submap.planars.points[idx]  # (N, 5, 3)
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


# ---------------------------------------------------------------------------
# The quaternion rotation, SE(3) maps on one twist or pose through it, and
# the per-edge Levenberg-Marquardt pose-graph solve that evaluated every
# state twice.
# ---------------------------------------------------------------------------


class QuaternionRotation:
    """Unit quaternion rotation, canonicalized to w >= 0 and renormalized
    after every compose: the rotation type a ``geometry.Pose`` held before
    its rotation became a read-only 3x3 matrix."""

    __slots__ = ("q",)

    def __init__(self, w: float, x: float, y: float, z: float):
        q = np.array([w, x, y, z], dtype=float)
        n = np.linalg.norm(q)
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("quaternion norm must be finite and non-zero")
        q /= n
        if q[0] < 0.0:
            q = -q
        self.q = q

    @classmethod
    def from_rotvec(cls, rotvec: np.ndarray) -> "QuaternionRotation":
        """Exponential map: axis-angle vector (rad) to quaternion."""
        rotvec = np.asarray(rotvec, dtype=float)
        theta = np.linalg.norm(rotvec)
        half = 0.5 * theta
        if theta < 1e-8:
            # sin(t/2)/t = 1/2 - t^2/48 + O(t^4)
            s = 0.5 - theta * theta / 48.0
        else:
            s = np.sin(half) / theta
        return cls(np.cos(half), *(rotvec * s))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "QuaternionRotation":
        """Quaternion from a rotation matrix (Shepperd's method)."""
        m = np.asarray(m, dtype=float)
        t = np.trace(m)
        if t > 0.0:
            r = np.sqrt(1.0 + t)
            w = 0.5 * r
            s = 0.5 / r
            x = (m[2, 1] - m[1, 2]) * s
            y = (m[0, 2] - m[2, 0]) * s
            z = (m[1, 0] - m[0, 1]) * s
        else:
            i = int(np.argmax(np.diag(m)))
            j, k = (i + 1) % 3, (i + 2) % 3
            r = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
            v = np.empty(3)
            v[i] = 0.5 * r
            s = 0.5 / r
            w = (m[k, j] - m[j, k]) * s
            v[j] = (m[j, i] + m[i, j]) * s
            v[k] = (m[k, i] + m[i, k]) * s
            x, y, z = v
        return cls(w, x, y, z)

    def matrix(self) -> np.ndarray:
        w, x, y, z = self.q
        xx, yy, zz = x * x, y * y, z * z
        wx, wy, wz = w * x, w * y, w * z
        xy, xz, yz = x * y, x * z, y * z
        return np.array(
            [
                [1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)],
                [2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)],
                [2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)],
            ]
        )

    def compose(self, other: "QuaternionRotation") -> "QuaternionRotation":
        """Hamilton product self * other, renormalized."""
        w1, x1, y1, z1 = self.q
        w2, x2, y2, z2 = other.q
        return QuaternionRotation(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "QuaternionRotation":
        w, x, y, z = self.q
        return QuaternionRotation(w, -x, -y, -z)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.matrix().T

    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        return 2.0 * np.arctan2(np.linalg.norm(self.q[1:]), self.q[0])


def rotvec(rotation: np.ndarray) -> np.ndarray:
    """Logarithm map: rotation to axis-angle vector (rad), through its
    quaternion.

    Raises DegenerateRotationError for angles within 1e-6 of pi."""
    q = QuaternionRotation.from_matrix(rotation).q
    w = q[0]
    v = q[1:]
    s = np.linalg.norm(v)
    theta = 2.0 * np.arctan2(s, w)
    if theta > np.pi - 1e-6:
        raise DegenerateRotationError(f"rotation angle {theta} too close to pi")
    if s < 1e-12:
        scale = 2.0 / w if w > 0 else 2.0
    else:
        scale = theta / s
    return v * scale


def so3_left_jacobian(rotvec: np.ndarray) -> np.ndarray:
    # V(w) such that exp([w, v]) has translation V(w) v
    theta = np.linalg.norm(rotvec)
    k = skew(rotvec)
    if theta < 1e-6:
        return np.eye(3) + 0.5 * k + k @ k / 6.0
    a = 2.0 * np.sin(0.5 * theta) ** 2 / (theta * theta)  # (1 - cos) / theta^2
    b = (theta - np.sin(theta)) / (theta * theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def so3_left_jacobian_inverse(rotvec: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(rotvec)
    k = skew(rotvec)
    if theta < 1e-4:
        # 1/theta^2 - (1+cos)/(2 theta sin) = 1/12 + theta^2/720 + O(theta^4)
        c = 1.0 / 12.0 + theta * theta / 720.0
    else:
        c = 1.0 / (theta * theta) - (1.0 + np.cos(theta)) / (
            2.0 * theta * np.sin(theta)
        )
    return np.eye(3) - 0.5 * k + c * (k @ k)


def exp(twist: np.ndarray) -> Pose:
    """SE(3) exponential of a twist [w, v]."""
    twist = np.asarray(twist, dtype=float).reshape(6)
    w, v = twist[:3], twist[3:]
    return Pose(QuaternionRotation.from_rotvec(w).matrix(), so3_left_jacobian(w) @ v)


def log(pose: Pose) -> np.ndarray:
    """SE(3) logarithm; inverse of exp for rotation angle < pi - 1e-6."""
    w = rotvec(pose.rotation)
    v = so3_left_jacobian_inverse(w) @ pose.translation
    return np.concatenate([w, v])


def se3_adjoint(pose: Pose) -> np.ndarray:
    """Adj(T) [w, v] = [R w, t x (R w) + R v]."""
    r = pose.rotation
    adj = np.zeros((6, 6))
    adj[:3, :3] = r
    adj[3:, :3] = skew(pose.translation) @ r
    adj[3:, 3:] = r
    return adj


def se3_q_block(rotvec: np.ndarray, rho: np.ndarray) -> np.ndarray:
    # Coupling block of the SE(3) left Jacobian (Barfoot's Q matrix, permuted
    # into the rotation-first twist layout).
    theta = np.linalg.norm(rotvec)
    wx = skew(rotvec)
    px = skew(rho)
    wpx = wx @ px
    pwx = px @ wx
    wpwx = wpx @ wx
    if theta < 1e-3:
        t2 = theta * theta
        c1 = 1.0 / 6.0 - t2 / 120.0  # (theta - sin)/theta^3
        c2 = 1.0 / 24.0 - t2 / 720.0  # (1 - theta^2/2 - cos)/theta^4
        c3 = 1.0 / 120.0 - t2 / 2520.0  # c2 - 3 (theta - sin - theta^3/6)/theta^5
    else:
        t2 = theta * theta
        t3 = t2 * theta
        t4 = t3 * theta
        t5 = t4 * theta
        st, ct = np.sin(theta), np.cos(theta)
        c1 = (theta - st) / t3
        m = 1.0 - 0.5 * t2 - ct
        c2 = m / t4
        c3 = (m / t4 - 3.0 * (theta - st - t3 / 6.0) / t5)
    return (
        0.5 * px
        + c1 * (wpx + pwx + wpwx)
        - c2 * (wx @ wpx + pwx @ wx - 3.0 * wpwx)
        - 0.5 * c3 * (wpwx @ wx + wx @ wpwx)
    )


def se3_left_jacobian(twist: np.ndarray) -> np.ndarray:
    """Left Jacobian of SE(3): exp(xi + d) ~= exp(J_l(xi) d) exp(xi)."""
    twist = np.asarray(twist, dtype=float).reshape(6)
    w, v = twist[:3], twist[3:]
    jl = so3_left_jacobian(w)
    out = np.zeros((6, 6))
    out[:3, :3] = jl
    out[3:, 3:] = jl
    out[3:, :3] = se3_q_block(w, v)
    return out


def se3_left_jacobian_inverse(twist: np.ndarray) -> np.ndarray:
    twist = np.asarray(twist, dtype=float).reshape(6)
    w, v = twist[:3], twist[3:]
    jli = so3_left_jacobian_inverse(w)
    out = np.zeros((6, 6))
    out[:3, :3] = jli
    out[3:, 3:] = jli
    out[3:, :3] = -jli @ se3_q_block(w, v) @ jli
    return out


def edge_residual(nodes, edge) -> np.ndarray:
    """Twist error log(M^-1 (T_from^-1 T_to)), zero for a consistent edge."""
    rel = nodes[edge.from_node].inverse().compose(nodes[edge.to_node])
    return log(edge.measurement.inverse().compose(rel))


def edge_jacobians(nodes, edge):
    """(residual, J_from, J_to) with r = log(P T_to), P = M^-1 T_from^-1:
    dr/d(delta_to) = Jl^-1(r) Adj(P) = -dr/d(delta_from)."""
    prefix = edge.measurement.inverse().compose(nodes[edge.from_node].inverse())
    r = log(prefix.compose(nodes[edge.to_node]))
    j_to = se3_left_jacobian_inverse(r) @ se3_adjoint(prefix)
    return r, -j_to, j_to


@dataclass
class InformationEdge:
    """A pose-graph edge carrying its own information matrix."""

    from_node: int
    to_node: int
    measurement: Pose
    robust: bool
    information: np.ndarray


def information_edges(edges, config) -> list:
    """The graph's edges, each weighted by diag(1/sigma^2) of its kind's
    sigmas in config, for the oracle below."""
    out = []
    for e in edges:
        kind = "loop" if e.robust else "odometry"
        rotation_sigma = getattr(config, f"{kind}_rotation_sigma")
        translation_sigma = getattr(config, f"{kind}_translation_sigma")
        information = np.diag([1.0 / rotation_sigma**2] * 3 + [1.0 / translation_sigma**2] * 3)
        out.append(InformationEdge(e.from_node, e.to_node, e.measurement, e.robust, information))
    return out


def whitener(information: np.ndarray) -> np.ndarray:
    # info = L L^T  =>  ||r||^2_info = ||L^T r||^2
    return np.linalg.cholesky(information).T


def robust_terms(s: float, delta: float):
    """Huber rho(s) and IRLS weight rho'(s) for squared norm s, scale delta."""
    if s <= delta * delta:
        return s, 1.0
    root = np.sqrt(s)
    return 2.0 * delta * root - delta * delta, delta / root


def graph_cost(nodes, edges, huber: float) -> float:
    total = 0.0
    for edge in edges:
        r = edge_residual(nodes, edge)
        s = float(r @ edge.information @ r)
        if edge.robust:
            s, _ = robust_terms(s, huber)
        total += s
    return total


def build_normal_equations(nodes, edges, huber: float):
    """Gauss-Newton (H, g) over all nodes except node 0, one block at a time."""
    dim = 6 * (len(nodes) - 1)
    g = np.zeros(dim)
    rows, cols, vals = [], [], []
    block = np.arange(6)

    def add_block(bi, bj, m):
        r, c = np.meshgrid(6 * bi + block, 6 * bj + block, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(m.ravel())

    for edge in edges:
        r, j_from, j_to = edge_jacobians(nodes, edge)
        w = whitener(edge.information)
        rw = w @ r
        kappa2 = 1.0
        if edge.robust:
            _, kappa2 = robust_terms(float(rw @ rw), huber)
        f = edge.from_node - 1
        t = edge.to_node - 1
        jw_from = w @ j_from
        jw_to = w @ j_to
        if f >= 0:
            add_block(f, f, kappa2 * (jw_from.T @ jw_from))
            g[6 * f : 6 * f + 6] += kappa2 * (jw_from.T @ rw)
        if t >= 0:
            add_block(t, t, kappa2 * (jw_to.T @ jw_to))
            g[6 * t : 6 * t + 6] += kappa2 * (jw_to.T @ rw)
        if f >= 0 and t >= 0:
            cross = kappa2 * (jw_from.T @ jw_to)
            add_block(f, t, cross)
            add_block(t, f, cross.T)

    if rows:
        h = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        ).tocsr()
    else:
        h = sparse.csr_matrix((dim, dim))
    return h, g


def apply_step(nodes, delta):
    out = [nodes[0]]
    for i in range(1, len(nodes)):
        out.append(exp(delta[6 * (i - 1) : 6 * i]).compose(nodes[i]))
    return out


def optimize(graph) -> OptimizationReport:
    """Levenberg-Marquardt on Pose lists, with a separate cost pass per trial
    step and a normal-equation pass per accepted state.  The graph's edges
    carry their information matrices (``information_edges``); the Huber
    scale, the stopping thresholds and the iteration cap are read from
    ``pose_graph`` at each call."""
    if not graph.nodes:
        raise ValueError("cannot optimize an empty graph")
    nodes = list(graph.nodes)
    cost = graph_cost(nodes, graph.edges, pose_graph.HUBER_SCALE)
    initial_cost = cost
    iterations = 0
    converged = False
    if len(nodes) == 1 or not graph.edges:
        graph.nodes = nodes
        return OptimizationReport(float(initial_cost), float(cost), 0, True)

    lam = LAMBDA_INIT
    for _ in range(pose_graph._MAX_ITERATIONS):
        h, g = build_normal_equations(nodes, graph.edges, pose_graph.HUBER_SCALE)
        if np.linalg.norm(g) < pose_graph._GRADIENT_TOLERANCE:
            converged = True
            break
        diag = h.diagonal()
        stepped = False
        while lam <= LAMBDA_MAX:
            damped = h + sparse.diags(lam * np.maximum(diag, 1e-32))
            delta = spsolve(damped.tocsc(), -g)
            if np.all(np.isfinite(delta)):
                candidate = apply_step(nodes, delta)
                new_cost = graph_cost(candidate, graph.edges, pose_graph.HUBER_SCALE)
                if new_cost < cost:
                    rel_decrease = (cost - new_cost) / max(cost, 1e-300)
                    nodes = candidate
                    cost = new_cost
                    lam = max(lam / 3.0, LAMBDA_MIN)
                    iterations += 1
                    stepped = True
                    if rel_decrease < pose_graph._COST_REL_TOLERANCE:
                        converged = True
                    break
            lam *= 10.0
        if not stepped:
            converged = False
            break
        if converged:
            break

    graph.nodes = nodes
    return OptimizationReport(float(initial_cost), float(cost), iterations, converged)


# ---------------------------------------------------------------------------
# Simulator ray casting, one wall or pole at a time, and blocked: both cast
# every primitive against every ray.
# ---------------------------------------------------------------------------


def wall_hits(origin, dirs, wall: Wall):
    """Ray parameter t per ray for one wall (inf when missed)."""
    p0 = np.asarray(wall.p0, float)
    p1 = np.asarray(wall.p1, float)
    u = p1 - p0
    n = np.array([-u[1], u[0]])
    denom = dirs[:, :2] @ n
    t = np.full(len(dirs), np.inf)
    ok = np.abs(denom) > 1e-12
    t_ok = ((p0 - origin[:2]) @ n) / denom[ok]
    hit_xy = origin[:2] + t_ok[:, None] * dirs[ok, :2]
    s = (hit_xy - p0) @ u / (u @ u)
    z = origin[2] + t_ok * dirs[ok, 2]
    good = (t_ok > 0) & (s >= 0.0) & (s <= 1.0) & (z >= wall.z0) & (z <= wall.z1)
    vals = np.where(good, t_ok, np.inf)
    t[ok] = vals
    return t


def pole_hits(origin, dirs, pole: Pole):
    """Ray parameter t per ray for one pole (inf when missed)."""
    c = np.asarray(pole.center, float)
    oc = origin[:2] - c
    a = np.einsum("ni,ni->n", dirs[:, :2], dirs[:, :2])
    b = 2.0 * dirs[:, :2] @ oc
    c0 = oc @ oc - pole.radius**2
    disc = b * b - 4.0 * a * c0
    t = np.full(len(dirs), np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    root = (-b[ok] - np.sqrt(disc[ok])) / (2.0 * a[ok])
    z = origin[2] + root * dirs[ok, 2]
    good = (root > 0) & (z >= pole.z0) & (z <= pole.z1)
    t[ok] = np.where(good, root, np.inf)
    return t


# Walls or poles cast per array pass in the blocked caster.
_BLOCK = 8


def _lower_to_wall_hits(t, origin, dirs, walls):
    """Lower each ray's t to its nearest wall hit, every wall against every
    ray, _BLOCK walls per array pass.

    Per (wall, ray): the hit solves (o + t d - p0) . n = 0 with n the
    segment normal; it counts when t > 0, the segment parameter s is in
    [0, 1] and the height in [z0, z1].  Rays within 1e-12 of parallel
    miss."""
    p0 = np.array([w.p0 for w in walls], float)
    u = np.array([w.p1 for w in walls], float) - p0
    n = np.stack([-u[:, 1], u[:, 0]], axis=1)
    num = ((p0 - origin[:2]) * n).sum(axis=1)[:, None]
    uu = (u * u).sum(axis=1)[:, None]
    z0 = np.array([w.z0 for w in walls], float)[:, None]
    z1 = np.array([w.z1 for w in walls], float)[:, None]
    dx, dy, dz = dirs.T
    for b in (slice(k, k + _BLOCK) for k in range(0, len(walls), _BLOCK)):
        denom = n[b, :1] * dx + n[b, 1:] * dy
        good = np.abs(denom) > 1e-12
        hit = np.divide(num[b], denom, out=denom)
        good &= hit > 0
        s = (origin[0] + hit * dx - p0[b, :1]) * u[b, :1]
        s += (origin[1] + hit * dy - p0[b, 1:]) * u[b, 1:]
        s /= uu[b]
        good &= (s >= 0.0) & (s <= 1.0)
        z = np.multiply(hit, dz, out=s)
        z += origin[2]
        good &= (z >= z0[b]) & (z <= z1[b])
        hit[~good] = np.inf
        np.minimum(t, hit.min(axis=0), out=t)


def _lower_to_pole_hits(t, origin, dirs, poles):
    """Lower each ray's t to its nearest pole hit, every pole against every
    ray, _BLOCK poles per array pass: the smaller root of
    |o + t d - c|^2 = r^2 in the plane, counted when it is positive and its
    height is in [z0, z1].  Rays within 1e-12 of vertical miss."""
    oc = origin[:2] - np.array([p.center for p in poles], float)
    c0 = ((oc * oc).sum(axis=1) - np.array([p.radius for p in poles]) ** 2)[:, None]
    z0 = np.array([p.z0 for p in poles], float)[:, None]
    z1 = np.array([p.z1 for p in poles], float)[:, None]
    a = np.einsum("ni,ni->n", dirs[:, :2], dirs[:, :2])
    four_a, two_a = 4.0 * a, 2.0 * a
    dx2, dy2 = 2.0 * dirs[:, 0], 2.0 * dirs[:, 1]
    for b in (slice(k, k + _BLOCK) for k in range(0, len(poles), _BLOCK)):
        half = oc[b, :1] * dx2 + oc[b, 1:] * dy2  # the b of b^2 - 4ac
        disc = half * half - four_a * c0[b]
        good = (disc >= 0) & (a > 1e-12)
        root = np.sqrt(disc, out=disc)
        root += half
        np.negative(root, out=root)
        root /= two_a
        good &= root > 0
        z = np.multiply(root, dirs[:, 2], out=half)
        z += origin[2]
        good &= (z >= z0[b]) & (z <= z1[b])
        root[~good] = np.inf
        np.minimum(t, root.min(axis=0), out=t)


def blocked_nearest_hits(world: World, origin, dirs):
    """The simulator's caster before azimuth windows: each ray's nearest
    surface hit, every wall and pole cast against every ray in blocks.  The
    windowed caster runs the same arithmetic on each (primitive, ray) pair
    it keeps, so the two agree bit for bit."""
    t = np.full(len(dirs), np.inf)
    # misses divide by zero and take roots of negatives; they are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        if world.walls:
            _lower_to_wall_hits(t, origin, dirs, world.walls)
        if world.poles:
            _lower_to_pole_hits(t, origin, dirs, world.poles)
    if world.ground_z is not None:
        np.minimum(t, _ground_hits(origin, dirs, world.ground_z), out=t)
    return t


def nearest_hits(world: World, origin, dirs):
    """Ray parameter of each ray's nearest surface hit; inf where none."""
    t = np.full(len(dirs), np.inf)
    for wall in world.walls:
        t = np.minimum(t, wall_hits(origin, dirs, wall))
    for pole in world.poles:
        t = np.minimum(t, pole_hits(origin, dirs, pole))
    if world.ground_z is not None:
        t = np.minimum(t, _ground_hits(origin, dirs, world.ground_z))
    return t
