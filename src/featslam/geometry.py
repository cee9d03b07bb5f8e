"""The SE(3) pose type and the SE(3)/SO(3) maps shared by every stage of
the pipeline.

Conventions used throughout the package:

* A pose's rotation is one read-only 3x3 matrix: ``compose`` multiplies
  the matrices and ``inverse`` transposes, and neither renormalizes.
  Odometry's constant-velocity prediction ``cur (prev^-1 cur)`` multiplies
  a product's drift off SO(3) by about 2.4 per frame, so every matrix an
  optimizer hands back (registration, the pose-graph solve) or a file holds
  goes through ``project_rotation``, the one projection onto SO(3).
* Quaternions appear only in the TUM writer of :mod:`featslam.dataset_io`.
* Twists are plain 6-vectors ``[wx, wy, wz, vx, vy, vz]`` -- rotational part
  first (rad), translational part second (m).
* Optimizer updates are LEFT-multiplicative everywhere:
  ``pose <- exp_rt(delta) @ pose``.  Jacobians in :mod:`featslam.odometry` and
  :mod:`featslam.pose_graph` are derived for this convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateRotationError",
    "Pose",
    "adjoint_rt",
    "exp_rt",
    "left_jacobian_inverse",
    "log_rt",
    "project_rotation",
    "skew",
]


class DegenerateRotationError(ValueError):
    """Raised when log_rt() is evaluated too close to the pi-rotation cut."""


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 cross-product matrix of v, or (N, 3, 3) matrices of an (N, 3) stack."""
    v = np.asarray(v, dtype=float)
    k = np.zeros(v.shape + (3,))
    k[..., 0, 1], k[..., 0, 2] = -v[..., 2], v[..., 1]
    k[..., 1, 0], k[..., 1, 2] = v[..., 2], -v[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -v[..., 1], v[..., 0]
    return k


# |M^T M - I| project_rotation accepts (~100x that of KITTI's 7 digits), and
# the one its polar steps reach; each step about squares it, so two reach
# it from 1e-4 and at most four are taken
_ORTHONORMAL_TOLERANCE = 1e-4
_POLAR_TOLERANCE = 4.0 * np.finfo(float).eps


def project_rotation(matrix: np.ndarray) -> np.ndarray:
    """The rotation matrix nearest a matrix within 1e-4 of orthonormal, or
    the nearest rotation to each matrix of an (N, 3, 3) stack.

    Raises ValueError for a matrix that is not finite, has det <= 0 or
    has |M^T M - I|max > 1e-4.  Then takes polar (Newton-Schulz) steps
    R <- 1.5 R - 0.5 R R^T R until |R^T R - I|max <= 4 eps; a matrix
    already that close is kept as it is."""
    m = np.array(matrix, dtype=float)
    single = m.ndim < 3
    m = m.reshape(-1, 3, 3)
    if not np.isfinite(m).all():
        raise ValueError("rotation matrix is not finite")
    det, gram = np.linalg.det(m), m.transpose(0, 2, 1) @ m
    error = np.abs(gram - np.eye(3)).max(axis=(1, 2))
    bad = ~((det > 0.0) & (error <= _ORTHONORMAL_TOLERANCE))
    if bad.any():
        i = int(np.argmax(bad))
        where = "" if single else f" at index {i}"
        raise ValueError(
            f"not a rotation matrix{where}: det {det[i]:.3g}, |M^T M - I| {error[i]:.3g}"
        )
    for _ in range(4):
        todo = np.flatnonzero(error > _POLAR_TOLERANCE)
        if not len(todo):
            break
        r = m[todo]
        r = 1.5 * r - 0.5 * (r @ gram[todo])
        g = r.transpose(0, 2, 1) @ r
        m[todo], gram[todo] = r, g
        error[todo] = np.abs(g - np.eye(3)).max(axis=(1, 2))
    return m[0] if single else m


class Pose:
    """Rigid transform in SE(3): a read-only (3, 3) rotation matrix and a
    read-only translation 3-vector (m).

    The constructor keeps a read-only copy of each array, in the memory
    order it was given; ``project_rotation`` checks a matrix an optimizer
    or a file hands back."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: np.ndarray, translation: np.ndarray):
        r = np.array(rotation, dtype=float).reshape(3, 3)
        t = np.array(translation, dtype=float).reshape(3)
        r.flags.writeable = t.flags.writeable = False
        self.rotation = r
        self.translation = t

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_rt(cls, rotvec: np.ndarray, translation: np.ndarray) -> "Pose":
        """Axis-angle vector (rad) through the exponential map, and translation."""
        return cls(exp_rt(np.append(np.asarray(rotvec, dtype=float), np.zeros(3)))[0], translation)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=float)
        return cls(project_rotation(m[:3, :3]), m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "Pose") -> "Pose":
        """self * other: apply(compose(a, b), p) == apply(a, apply(b, p))."""
        return Pose(
            self.rotation @ other.rotation,
            other.translation @ self.rotation.T + self.translation,
        )

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -(self.translation @ self.rotation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one 3-vector or an (N, 3) array: R p + t."""
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    def angle(self) -> float:
        """Angle of the rotation, in [0, pi]."""
        return float(_axis_angle(self.rotation)[2])

    def __repr__(self) -> str:
        t = self.translation
        return (f"Pose(t=[{t[0]:.4f}, {t[1]:.4f}, {t[2]:.4f}], "
                f"R={np.round(self.rotation, 6).tolist()})")


# ---------------------------------------------------------------------------
# Tangent-space maps.  Twist layout: [wx, wy, wz, vx, vy, vz].  Each map
# takes a stack of twists or transforms (exp_rt also a single twist), so one
# call serves every edge or node of a pose graph.
# ---------------------------------------------------------------------------


def exp_rt(twist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SE(3) exponential of a twist [w, v], or of an (N, 6) stack, as
    rotation matrices (Rodrigues) and translations V(w) v."""
    twist = np.asarray(twist, dtype=float)
    w = twist[..., :3]
    theta = np.sqrt(w[..., None, :] @ w[..., :, None])
    k = skew(w)
    kk = k @ k
    small = theta < 1e-6
    t = np.where(small, 1.0, theta)
    # sin/t, (1 - cos)/t^2 and (t - sin)/t^3, by their limits at t = 0;
    # 1 - cos is formed as 2 sin^2(t/2), which does not cancel for small t
    sin = np.sin(t)
    a = sin / t
    b = 2.0 * np.sin(0.5 * t) ** 2 / (t * t)
    c = (t - sin) / (t * t * t)
    a[small], b[small], c[small] = 1.0, 0.5, 1.0 / 6.0
    eye = np.eye(3)
    rotation = eye + a * k + b * kk
    v_matrix = eye + b * k + c * kk  # the SO(3) left Jacobian
    return rotation, (v_matrix @ twist[..., 3:, None])[..., 0]


def _so3_v_inverse(w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # inverses of the V(w) of exp_rt (SO(3) left Jacobians); theta = |w|
    k = skew(w)
    theta = theta[:, None, None]
    small = theta < 1e-4
    t = np.where(small, 1.0, theta)
    # 1/theta^2 - (1+cos)/(2 theta sin) = 1/12 + theta^2/720 + O(theta^4)
    c = np.where(
        small,
        1.0 / 12.0 + theta * theta / 720.0,
        1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)),
    )
    return np.eye(3) - 0.5 * k + c * (k @ k)


def _axis_angle(r: np.ndarray):
    """sin(theta) times the unit axis, sin(theta), and the angle theta in
    [0, pi] of a (..., 3, 3) stack of rotations."""
    axis = 0.5 * (r[..., [2, 0, 1], [1, 2, 0]] - r[..., [1, 2, 0], [2, 0, 1]])
    s = np.linalg.norm(axis, axis=-1)
    return axis, s, np.arctan2(s, 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0))


def log_rt(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """SE(3) logarithm of (N, 3, 3) rotations and (N, 3) translations as
    (N, 6) twists; inverse of exp_rt for rotation angles below pi - 1e-6.

    Raises DegenerateRotationError when any angle is within 1e-6 of pi."""
    axis, s, theta = _axis_angle(rotation)
    if np.any(theta > np.pi - 1e-6):
        raise DegenerateRotationError(f"rotation angle {theta.max()} too close to pi")
    w = axis * np.where(s > 0.0, theta / np.where(s > 0.0, s, 1.0), 1.0)[:, None]
    v = _so3_v_inverse(w, theta) @ translation[:, :, None]
    return np.concatenate([w, v[:, :, 0]], axis=1)


def _se3_coupling(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    # Coupling block Q of the SE(3) left Jacobian (Barfoot's Q matrix,
    # permuted into the rotation-first twist layout).
    theta = np.linalg.norm(w, axis=-1)[:, None, None]
    wx = skew(w)
    px = skew(rho)
    wpx = wx @ px
    pwx = px @ wx
    wpwx = wpx @ wx
    small = theta < 1e-3
    t = np.where(small, 1.0, theta)
    t2, t3 = t * t, t * t * t
    st, ct = np.sin(t), np.cos(t)
    m = 1.0 - 0.5 * t2 - ct
    s2 = theta * theta
    # (t - sin)/t^3, (1 - t^2/2 - cos)/t^4 and c2 - 3 (t - sin - t^3/6)/t^5,
    # by their series below 1e-3 rad
    c1 = np.where(small, 1.0 / 6.0 - s2 / 120.0, (t - st) / t3)
    c2 = np.where(small, 1.0 / 24.0 - s2 / 720.0, m / (t2 * t2))
    c3 = np.where(
        small,
        1.0 / 120.0 - s2 / 2520.0,
        m / (t2 * t2) - 3.0 * (t - st - t3 / 6.0) / (t3 * t2),
    )
    return (
        0.5 * px
        + c1 * (wpx + pwx + wpwx)
        - c2 * (wx @ wpx + pwx @ wx - 3.0 * wpwx)
        - 0.5 * c3 * (wpwx @ wx + wx @ wpwx)
    )


def left_jacobian_inverse(twist: np.ndarray) -> np.ndarray:
    """(N, 6, 6) inverses of the SE(3) left Jacobians of (N, 6) twists,
    where exp(xi + d) ~= exp(J_l(xi) d) exp(xi)."""
    w, rho = twist[:, :3], twist[:, 3:]
    jli = _so3_v_inverse(w, np.linalg.norm(w, axis=-1))
    out = np.zeros((len(twist), 6, 6))
    out[:, :3, :3] = jli
    out[:, 3:, 3:] = jli
    out[:, 3:, :3] = -jli @ _se3_coupling(w, rho) @ jli
    return out


def adjoint_rt(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """(N, 6, 6) adjoints for the [w, v] twist layout:
    Adj(T) [w, v] = [R w, t x (R w) + R v]."""
    out = np.zeros((len(rotation), 6, 6))
    out[:, :3, :3] = rotation
    out[:, 3:, :3] = skew(translation) @ rotation
    out[:, 3:, 3:] = rotation
    return out
