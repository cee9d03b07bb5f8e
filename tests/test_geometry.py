import numpy as np
import pytest

from featslam import geometry
from featslam.geometry import DegenerateRotationError, Pose, Rotation


def rotz(deg):
    return Pose(Rotation.from_rotvec([0, 0, np.deg2rad(deg)]), np.zeros(3))


def translate(x, y, z):
    return Pose(Rotation.identity(), np.array([x, y, z], dtype=float))


def pose_close(a, b, tol=1e-9):
    return (
        np.linalg.norm(a.translation - b.translation) < tol
        and a.rotation.angle_to(b.rotation) < tol
    )


def random_pose(rng, max_angle=3.0, max_trans=10.0):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, max_angle)
    t = rng.uniform(-max_trans, max_trans, 3)
    return Pose(Rotation.from_rotvec(axis * angle), t)


class TestCompose:
    def test_identity_left(self):
        p = Pose(Rotation.from_rotvec([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        assert pose_close(Pose.identity().compose(p), p)

    def test_inverse_gives_identity(self):
        p = Pose(Rotation.from_rotvec([0.4, -0.2, 0.9]), np.array([3.0, -1.0, 2.0]))
        assert pose_close(p.compose(p.inverse()), Pose.identity())

    def test_pure_translations_sum(self):
        c = translate(1, 0, 0).compose(translate(0, 2, 0))
        assert pose_close(c, translate(1, 2, 0))

    def test_action_convention(self):
        # apply(compose(a, b), p) == apply(a, apply(b, p))
        rng = np.random.default_rng(0)
        a, b = random_pose(rng), random_pose(rng)
        p = rng.standard_normal(3)
        np.testing.assert_allclose(
            a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12
        )


class TestInverse:
    def test_identity(self):
        assert pose_close(Pose.identity().inverse(), Pose.identity())

    def test_translation(self):
        assert pose_close(translate(3, 4, 0).inverse(), translate(-3, -4, 0))

    def test_rotz(self):
        assert pose_close(rotz(90).inverse(), rotz(-90))

    def test_compose_inverse_swaps(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = random_pose(rng), random_pose(rng)
            lhs = p.compose(q).inverse()
            rhs = q.inverse().compose(p.inverse())
            assert pose_close(lhs, rhs, tol=1e-9)


class TestApply:
    def test_identity(self):
        np.testing.assert_allclose(
            Pose.identity().apply([1.0, 2.0, 3.0]), [1, 2, 3], atol=1e-12
        )

    def test_rotz90(self):
        np.testing.assert_allclose(rotz(90).apply([1.0, 0, 0]), [0, 1, 0], atol=1e-9)

    def test_translation(self):
        np.testing.assert_allclose(
            translate(0, 0, 5).apply([1.0, 1, 1]), [1, 1, 6], atol=1e-12
        )

    def test_preserves_distances(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_pose(rng)
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert abs(
                np.linalg.norm(p.apply(a) - p.apply(b)) - np.linalg.norm(a - b)
            ) < 1e-9

    def test_batched_points(self):
        rng = np.random.default_rng(3)
        p = random_pose(rng)
        pts = rng.standard_normal((17, 3))
        batched = p.apply(pts)
        for i in range(17):
            np.testing.assert_allclose(batched[i], p.apply(pts[i]), atol=1e-12)


class TestExpLog:
    def test_exp_zero(self):
        assert pose_close(geometry.exp(np.zeros(6)), Pose.identity())

    def test_log_identity(self):
        np.testing.assert_allclose(geometry.log(Pose.identity()), np.zeros(6))

    def test_exp_matches_rodrigues(self):
        # Independent oracle: Rodrigues formula evaluated directly.
        theta = 0.1
        k = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        r_oracle = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
        p = geometry.exp([0, 0, theta, 0, 0, 0])
        np.testing.assert_allclose(p.rotation.matrix(), r_oracle, atol=1e-12)
        np.testing.assert_allclose(p.translation, np.zeros(3), atol=1e-15)

    def test_exp_rt_matches_exp(self):
        # The matrix form of exp: angles on both sides of its small-angle
        # branch (1e-6), down to 1e-12 and zero, typical steps, and angles
        # near pi/2.  Each entry of either form is a sum of at most three
        # terms of magnitude <= 1 (rotation) or <= |v|_1 (translation) after
        # at most five roundings: within 8 eps of exact, 16 eps of the other.
        rng = np.random.default_rng(6)
        eps = np.finfo(float).eps
        angles = [0.0, 1e-12, 1e-9, 5e-7, 1e-6 * (1 - 1e-9), 1e-6, 2e-6, 1e-3, 0.05, 1.0]
        angles += list(np.pi / 2 + np.array([-1e-6, 0.0, 1e-6, 1e-3]))
        for angle in angles:
            for _ in range(25):
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                twist = np.concatenate([angle * axis, rng.uniform(-3, 3, 3)])
                r, t = geometry.exp_rt(twist)
                m = geometry.exp(twist).matrix()
                assert np.abs(r - m[:3, :3]).max() <= 16 * eps, angle
                assert np.abs(t - m[:3, 3]).max() <= 16 * eps * np.abs(twist[3:]).sum()
                assert np.abs(r @ r.T - np.eye(3)).max() <= 16 * eps

    def test_round_trip_bulk(self):
        # 10,000 random twists with rotation angle < 3.0 rad.
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            w = axis * rng.uniform(0.0, 3.0)
            v = rng.uniform(-20, 20, 3)
            twist = np.concatenate([w, v])
            back = geometry.log(geometry.exp(twist))
            assert np.max(np.abs(back - twist)) < 1e-8

    def test_exp_log_pose_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_pose(rng)
            q = geometry.exp(geometry.log(p))
            assert pose_close(p, q, tol=1e-9)

    def test_log_near_pi_raises(self):
        p = Pose(Rotation.from_rotvec([0, 0, np.pi - 1e-9]), np.zeros(3))
        with pytest.raises(DegenerateRotationError):
            geometry.log(p)


class TestQuaternionInvariants:
    def test_norm_after_compose_chain(self):
        rng = np.random.default_rng(6)
        p = Pose.identity()
        for _ in range(2000):
            p = p.compose(random_pose(rng, max_angle=0.5, max_trans=0.1))
            assert abs(np.linalg.norm(p.rotation.q) - 1.0) < 1e-9

    def test_double_cover_canonicalized(self):
        r = Rotation(-0.5, 0.5, 0.5, 0.5)
        assert r.q[0] >= 0

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = random_pose(rng).rotation
            r2 = Rotation.from_matrix(r.matrix())
            assert r.angle_to(r2) < 1e-9


class TestJacobianBlocks:
    """Numerical checks of the SE(3) Jacobian helpers used by the optimizer."""

    def test_left_jacobian_definition(self):
        # exp(xi + d) ~= exp(J_l(xi) d) exp(xi)
        rng = np.random.default_rng(8)
        for _ in range(20):
            xi = rng.uniform(-1.0, 1.0, 6)
            jl = geometry.se3_left_jacobian(xi)
            h = 1e-6
            num = np.zeros((6, 6))
            for k in range(6):
                d = np.zeros(6)
                d[k] = h
                plus = geometry.exp(xi + d).compose(geometry.exp(xi).inverse())
                minus = geometry.exp(xi - d).compose(geometry.exp(xi).inverse())
                num[:, k] = (geometry.log(plus) - geometry.log(minus)) / (2 * h)
            np.testing.assert_allclose(jl, num, atol=1e-5)

    def test_left_jacobian_inverse(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            xi = rng.uniform(-1.5, 1.5, 6)
            prod = geometry.se3_left_jacobian(xi) @ geometry.se3_left_jacobian_inverse(xi)
            np.testing.assert_allclose(prod, np.eye(6), atol=1e-9)

    def test_right_jacobian_inverse_definition(self):
        # log(exp(xi) exp(d)) ~= xi + J_r^-1(xi) d
        rng = np.random.default_rng(10)
        for _ in range(20):
            xi = rng.uniform(-1.0, 1.0, 6)
            jri = geometry.se3_right_jacobian_inverse(xi)
            h = 1e-6
            num = np.zeros((6, 6))
            for k in range(6):
                d = np.zeros(6)
                d[k] = h
                plus = geometry.log(geometry.exp(xi).compose(geometry.exp(d)))
                minus = geometry.log(geometry.exp(xi).compose(geometry.exp(-d)))
                num[:, k] = (plus - minus) / (2 * h)
            np.testing.assert_allclose(jri, num, atol=1e-5)

    def test_adjoint_sandwich(self):
        # T exp(xi) T^-1 == exp(Adj(T) xi)
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_pose(rng, max_angle=2.0, max_trans=5.0)
            xi = rng.uniform(-0.5, 0.5, 6)
            lhs = t.compose(geometry.exp(xi)).compose(t.inverse())
            rhs = geometry.exp(geometry.se3_adjoint(t) @ xi)
            assert pose_close(lhs, rhs, tol=1e-8)
