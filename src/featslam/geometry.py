"""SE(3)/SO(3) value types shared by every stage of the pipeline.

Conventions used throughout the package:

* Rotations are stored as unit quaternions ``(w, x, y, z)`` with ``w >= 0``
  (double-cover canonicalization) and are renormalized after every compose.
* Twists are plain 6-vectors ``[wx, wy, wz, vx, vy, vz]`` -- rotational part
  first (rad), translational part second (m).
* Optimizer updates are LEFT-multiplicative everywhere:
  ``pose <- exp(delta) @ pose``.  Jacobians in :mod:`featslam.odometry` and
  :mod:`featslam.pose_graph` are derived for this convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateRotationError",
    "Rotation",
    "Pose",
    "exp",
    "exp_rt",
    "log",
    "skew",
    "so3_left_jacobian",
    "so3_left_jacobian_inverse",
    "se3_adjoint",
    "se3_left_jacobian",
    "se3_left_jacobian_inverse",
    "se3_right_jacobian_inverse",
]


class DegenerateRotationError(ValueError):
    """Raised when log() is evaluated too close to the pi-rotation cut."""


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 cross-product matrix of v."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


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

    def as_rotvec(self) -> np.ndarray:
        """Logarithm map: quaternion to axis-angle vector (rad).

        Raises DegenerateRotationError for angles within 1e-6 of pi, where
        the axis is not recoverable to the accuracy promised elsewhere.
        """
        w = self.q[0]
        v = self.q[1:]
        s = np.linalg.norm(v)
        theta = 2.0 * np.arctan2(s, w)
        if theta > np.pi - 1e-6:
            raise DegenerateRotationError(f"rotation angle {theta} too close to pi")
        if s < 1e-12:
            scale = 2.0 / w if w > 0 else 2.0
        else:
            scale = theta / s
        return v * scale

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
# Tangent-space maps.  Twist layout: [wx, wy, wz, vx, vy, vz].
# ---------------------------------------------------------------------------


def _so3_v_matrix(rotvec: np.ndarray) -> np.ndarray:
    # V(w) such that exp([w, v]) has translation V(w) v; equals the SO(3)
    # left Jacobian.
    theta = np.linalg.norm(rotvec)
    k = skew(rotvec)
    if theta < 1e-6:
        return np.eye(3) + 0.5 * k + k @ k / 6.0
    a = (1.0 - np.cos(theta)) / (theta * theta)
    b = (theta - np.sin(theta)) / (theta * theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def _so3_v_inverse(rotvec: np.ndarray) -> np.ndarray:
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
    return Pose(Rotation.from_rotvec(w), _so3_v_matrix(w) @ v)


def exp_rt(twist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SE(3) exponential of a twist [w, v] as a rotation matrix (Rodrigues)
    and a translation; the matrix form of exp, for loops that compose
    many steps without building a Pose for each."""
    w, v = twist[:3], twist[3:]
    theta = np.linalg.norm(w)
    k = skew(w)
    if theta < 1e-6:
        r = np.eye(3) + k + 0.5 * (k @ k)
    else:
        r = (
            np.eye(3)
            + (np.sin(theta) / theta) * k
            + ((1.0 - np.cos(theta)) / (theta * theta)) * (k @ k)
        )
    return r, _so3_v_matrix(w) @ v


def log(pose: Pose) -> np.ndarray:
    """SE(3) logarithm; inverse of exp for rotation angle < pi - 1e-6."""
    w = pose.rotation.as_rotvec()
    v = _so3_v_inverse(w) @ pose.translation
    return np.concatenate([w, v])


# ---------------------------------------------------------------------------
# Jacobian blocks used by the pose-graph optimizer.
# ---------------------------------------------------------------------------


def so3_left_jacobian(rotvec: np.ndarray) -> np.ndarray:
    return _so3_v_matrix(rotvec)


def so3_left_jacobian_inverse(rotvec: np.ndarray) -> np.ndarray:
    return _so3_v_inverse(rotvec)


def se3_adjoint(pose: Pose) -> np.ndarray:
    """Adjoint of a pose for the [w, v] twist layout:
    Adj(T) [w, v] = [R w, t x (R w) + R v]."""
    r = pose.rotation.matrix()
    adj = np.zeros((6, 6))
    adj[:3, :3] = r
    adj[3:, :3] = skew(pose.translation) @ r
    adj[3:, 3:] = r
    return adj


def _se3_q_block(rotvec: np.ndarray, rho: np.ndarray) -> np.ndarray:
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
    q = (
        0.5 * px
        + c1 * (wpx + pwx + wpwx)
        - c2 * (wx @ wpx + pwx @ wx - 3.0 * wpwx)
        - 0.5 * c3 * (wpwx @ wx + wx @ wpwx)
    )
    return q


def se3_left_jacobian(twist: np.ndarray) -> np.ndarray:
    """Left Jacobian of SE(3): exp(xi + d) ~= exp(J_l(xi) d) exp(xi)."""
    twist = np.asarray(twist, dtype=float).reshape(6)
    w, v = twist[:3], twist[3:]
    jl = so3_left_jacobian(w)
    out = np.zeros((6, 6))
    out[:3, :3] = jl
    out[3:, 3:] = jl
    out[3:, :3] = _se3_q_block(w, v)
    return out


def se3_left_jacobian_inverse(twist: np.ndarray) -> np.ndarray:
    twist = np.asarray(twist, dtype=float).reshape(6)
    w, v = twist[:3], twist[3:]
    jli = so3_left_jacobian_inverse(w)
    q = _se3_q_block(w, v)
    out = np.zeros((6, 6))
    out[:3, :3] = jli
    out[3:, 3:] = jli
    out[3:, :3] = -jli @ q @ jli
    return out


def se3_right_jacobian_inverse(twist: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian: log(exp(xi) exp(d)) ~= xi + J_r^-1(xi) d."""
    return se3_left_jacobian_inverse(-np.asarray(twist, dtype=float))
