"""SE(3)/SO(3) value types shared by every stage of the pipeline.

Conventions used throughout the package:

* Rotations are stored as unit quaternions ``(w, x, y, z)`` with ``w >= 0``
  (double-cover canonicalization) and are renormalized after every compose.
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
    "Rotation",
    "Pose",
    "adjoint_rt",
    "exp_rt",
    "left_jacobian_inverse",
    "log_rt",
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


class Rotation:
    """Unit quaternion rotation, canonicalized to w >= 0."""

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
    def identity(cls) -> "Rotation":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def _from_quat_array(cls, q: np.ndarray) -> "Rotation":
        return cls(q[0], q[1], q[2], q[3])

    @classmethod
    def from_rotvec(cls, rotvec: np.ndarray) -> "Rotation":
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
    def from_matrix(cls, m: np.ndarray) -> "Rotation":
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

    def compose(self, other: "Rotation") -> "Rotation":
        """Hamilton product self * other, renormalized."""
        w1, x1, y1, z1 = self.q
        w2, x2, y2, z2 = other.q
        return Rotation(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "Rotation":
        w, x, y, z = self.q
        return Rotation(w, -x, -y, -z)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Rotate one 3-vector or an (N, 3) array of points."""
        points = np.asarray(points, dtype=float)
        return points @ self.matrix().T

    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        return 2.0 * np.arctan2(np.linalg.norm(self.q[1:]), self.q[0])

    def angle_to(self, other: "Rotation") -> float:
        return self.inverse().compose(other).angle()

    def __repr__(self) -> str:
        w, x, y, z = self.q
        return f"Rotation(w={w:.6f}, x={x:.6f}, y={y:.6f}, z={z:.6f})"


class Pose:
    """Rigid transform in SE(3): rotation plus translation (m)."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation, translation: np.ndarray):
        self.rotation = rotation
        self.translation = np.asarray(translation, dtype=float).reshape(3).copy()

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Rotation.identity(), np.zeros(3))

    @classmethod
    def from_rt(cls, rotvec: np.ndarray, translation: np.ndarray) -> "Pose":
        return cls(Rotation.from_rotvec(rotvec), translation)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=float)
        return cls(Rotation.from_matrix(m[:3, :3]), m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.matrix()
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "Pose") -> "Pose":
        """self * other: apply(compose(a, b), p) == apply(a, apply(b, p))."""
        return Pose(
            self.rotation.compose(other.rotation),
            self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.apply(self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one 3-vector or an (N, 3) array: R p + t."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.matrix().T + self.translation

    def copy(self) -> "Pose":
        return Pose(Rotation._from_quat_array(self.rotation.q), self.translation)

    def __repr__(self) -> str:
        t = self.translation
        return f"Pose(t=[{t[0]:.4f}, {t[1]:.4f}, {t[2]:.4f}], {self.rotation!r})"


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
    # rounded as a 1-D np.linalg.norm, so each twist takes the same branch
    # below as in Rotation.from_rotvec
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


def log_rt(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """SE(3) logarithm of (N, 3, 3) rotations and (N, 3) translations as
    (N, 6) twists; inverse of exp_rt for rotation angles below pi - 1e-6.

    Raises DegenerateRotationError when any angle is within 1e-6 of pi."""
    r = rotation
    axis = 0.5 * np.stack(
        [r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]],
        axis=-1,
    )  # sin(theta) times the unit axis
    s = np.linalg.norm(axis, axis=-1)
    theta = np.arctan2(s, 0.5 * (np.trace(r, axis1=1, axis2=2) - 1.0))
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
