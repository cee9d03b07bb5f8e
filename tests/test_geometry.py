import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import loop_reference as ref
from featslam import geometry
from featslam.dataset_io import export_trajectory
from featslam.geometry import DegenerateRotationError, Pose, project_rotation
from shapes import rotz, translate


def pose_close(a, b, tol=1e-9):
    return (
        np.linalg.norm(a.translation - b.translation) < tol
        and a.inverse().compose(b).angle() < tol
    )


def random_pose(rng, max_angle=3.0, max_trans=10.0):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, max_angle)
    t = rng.uniform(-max_trans, max_trans, 3)
    return Pose.from_rt(axis * angle, t)


class TestCompose:
    def test_identity_left(self):
        p = Pose.from_rt([0.1, 0.2, 0.3], np.array([1.0, 2.0, 3.0]))
        assert pose_close(Pose.identity().compose(p), p)

    def test_inverse_gives_identity(self):
        p = Pose.from_rt([0.4, -0.2, 0.9], np.array([3.0, -1.0, 2.0]))
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


class TestRepr:
    def test_format(self):
        assert repr(Pose.identity()) == (
            "Pose(t=[0.0000, 0.0000, 0.0000], "
            "R=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])"
        )
        assert repr(Pose(np.eye(3), [1.0, -2.5, 0.123456])).startswith(
            "Pose(t=[1.0000, -2.5000, 0.1235], R=")


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


def matrices(poses):
    """(N, 3, 3) rotations and (N, 3) translations of a Pose list."""
    return (np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]))


def random_twists(rng, n, max_angle, max_trans):
    axis = rng.standard_normal((n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    w = axis * rng.uniform(0.0, max_angle, (n, 1))
    return np.concatenate([w, rng.uniform(-max_trans, max_trans, (n, 3))], axis=1)


class TestExpLog:
    def test_exp_zero(self):
        r, t = geometry.exp_rt(np.zeros(6))
        np.testing.assert_array_equal(r, np.eye(3))
        np.testing.assert_array_equal(t, np.zeros(3))

    def test_log_identity(self):
        np.testing.assert_array_equal(
            geometry.log_rt(np.eye(3)[None], np.zeros((1, 3))), np.zeros((1, 6))
        )

    def test_exp_matches_rodrigues(self):
        # Independent oracle: Rodrigues formula evaluated directly.
        theta = 0.1
        k = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        r_oracle = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
        r, t = geometry.exp_rt([0, 0, theta, 0, 0, 0])
        np.testing.assert_allclose(r, r_oracle, atol=1e-12)
        np.testing.assert_allclose(t, np.zeros(3), atol=1e-15)

    def test_exp_rt_matches_exp(self):
        # exp_rt against the quaternion exp (tests/loop_reference.py):
        # angles on both sides of its small-angle branch (1e-6), down to
        # 1e-12 and zero, typical steps, and angles near pi/2.  Each entry of
        # either form is a sum of at most three terms of magnitude <= 1
        # (rotation) or <= |v|_1 (translation) after at most five roundings:
        # within 8 eps of exact, 16 eps of the other.  A stack gives the
        # same bits as its rows one at a time.
        rng = np.random.default_rng(6)
        eps = np.finfo(float).eps
        angles = [0.0, 1e-12, 1e-9, 5e-7, 1e-6 * (1 - 1e-9), 1e-6, 2e-6, 1e-3, 0.05, 1.0]
        angles += list(np.pi / 2 + np.array([-1e-6, 0.0, 1e-6, 1e-3]))
        for angle in angles:
            axis = rng.standard_normal((25, 3))
            axis /= np.linalg.norm(axis, axis=1, keepdims=True)
            twists = np.concatenate([angle * axis, rng.uniform(-3, 3, (25, 3))], axis=1)
            rs, ts = geometry.exp_rt(twists)
            for twist, r, t in zip(twists, rs, ts):
                m = ref.exp(twist).matrix()
                assert np.abs(r - m[:3, :3]).max() <= 16 * eps, angle
                assert np.abs(t - m[:3, 3]).max() <= 16 * eps * np.abs(twist[3:]).sum()
                assert np.abs(r @ r.T - np.eye(3)).max() <= 16 * eps
                one_r, one_t = geometry.exp_rt(twist)
                np.testing.assert_array_equal(one_r, r)
                np.testing.assert_array_equal(one_t, t)

    def test_small_angle_coefficient_matches_series(self):
        # Just above exp's 1e-6 branch, (1 - cos t) / t^2 computed as written
        # cancels: relative error ~eps / t^2.  Against its series 1/2 - t^2/24
        # + t^4/720 (the next term is below 1e-22 relative for t <= 1e-3),
        # the coefficient of V(w) = I + b K + c K^2 read as V[1, 0] / t for w
        # along z passes through about six roundings: within 8 eps, for
        # exp_rt and the quaternion oracle exp alike.
        eps = np.finfo(float).eps
        angles = np.append(np.nextafter(1e-6, 1.0), np.geomspace(1e-6, 1e-3, 30)[1:])
        for t in angles:
            series = 0.5 - t * t / 24.0 + t**4 / 720.0
            twist = np.array([0.0, 0.0, t, 1.0, 0.0, 0.0])
            for translation in (geometry.exp_rt(twist)[1], ref.exp(twist).translation):
                assert abs(translation[1] / t / series - 1.0) <= 8 * eps, t

    def test_round_trip_bulk(self):
        # 10,000 random twists with rotation angle < 3.0 rad, in one stack.
        rng = np.random.default_rng(4)
        twists = random_twists(rng, 10_000, 3.0, 20.0)
        back = geometry.log_rt(*geometry.exp_rt(twists))
        assert np.max(np.abs(back - twists)) < 1e-8

    def test_exp_log_pose_round_trip(self):
        rng = np.random.default_rng(5)
        r, t = matrices([random_pose(rng) for _ in range(200)])
        r2, t2 = geometry.exp_rt(geometry.log_rt(r, t))
        assert np.abs(r2 - r).max() < 1e-9
        assert np.abs(t2 - t).max() < 1e-9

    def test_log_near_pi_raises(self):
        r, t = matrices([
            Pose.from_rt([0, 0, 0.5], np.zeros(3)),
            Pose.from_rt([0, 0, np.pi - 1e-9], np.zeros(3)),
        ])
        geometry.log_rt(r[:1], t[:1])
        with pytest.raises(DegenerateRotationError):
            geometry.log_rt(r, t)


class TestMatrixRotation:
    """A Pose's read-only rotation matrix against the quaternion rotation
    it replaced (tests/loop_reference.py), project_rotation, the one
    projection onto SO(3), and the TUM writer, the one place a quaternion
    is made."""

    def test_matches_quaternion_oracle(self):
        # Seeded random poses, with angles at and near 0 and near pi.  Both
        # forms give each rotation entry within 8 eps of exact (a few
        # roundings of terms <= 1, or of products of two such matrices), so
        # they agree within 16 eps; a rotated or translated coordinate
        # within 16 eps times the 1-norm of what is rotated or added, and
        # the angles (an arctan2 of quantities within a few eps) within
        # 8 eps.  Measured maxima: 7.0 eps (from_rt), 6.5 eps
        # (compose), 3.0 eps (inverse), 0 and 2.4 eps (compose and inverse
        # translations), 1.7 eps (apply) and 4.0 eps (angle).
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        angles = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.0, 3.0]
        angles += [np.pi - 1e-3, np.pi - 1e-6, np.pi - 1e-9, np.pi]

        def rotvec(angle):
            axis = rng.standard_normal(3)
            return axis / np.linalg.norm(axis) * angle

        quat = ref.QuaternionRotation
        for angle in angles:
            for _ in range(40):
                w1, w2 = rotvec(angle), rotvec(rng.choice(angles))
                t1, t2 = rng.uniform(-10, 10, (2, 3))
                q1, q2 = quat.from_rotvec(w1), quat.from_rotvec(w2)
                assert np.abs(Pose.from_rt(w1, t1).rotation - q1.matrix()).max() <= 16 * eps
                a = Pose(q1.matrix(), t1)
                b = Pose(q2.matrix(), t2)

                ab = a.compose(b)
                q12 = q1.compose(q2)
                assert np.abs(ab.rotation - q12.matrix()).max() <= 16 * eps
                bound = 16 * eps * (np.abs(t2).sum() + np.abs(t1))
                assert (np.abs(ab.translation - (q1.apply(t2) + t1)) <= bound).all()

                inv = a.inverse()
                q1_inv = q1.inverse()
                assert np.abs(inv.rotation - q1_inv.matrix()).max() <= 16 * eps
                assert (np.abs(inv.translation + q1_inv.apply(t1)) <= bound).all()

                points = rng.uniform(-10, 10, (5, 3))
                moved = ab.apply(points)
                expected = q12.apply(points) + ab.translation
                bound = 16 * eps * (np.abs(points).sum(axis=1) + np.abs(ab.translation).sum())
                assert (np.abs(moved - expected).max(axis=1) <= bound).all()

                assert abs(a.angle() - q1.angle()) <= 8 * eps, angle
                assert abs(ab.angle() - q12.angle()) <= 8 * eps

    def test_projected_constant_velocity_chain_stays_orthonormal(self):
        # Odometry's prediction cur (prev^-1 cur) multiplies a rotation's
        # distance from SO(3) by about 2.4 per frame; registration projects
        # every result through from_matrix, which keeps 3000 frames within
        # 1e-13 (measured 8.9e-16).  Without the projection the same chain
        # passes 1e-13 at frame 9.
        prev = Pose.identity()
        cur = Pose.from_rt([0.01, 0.02, 0.03], [0.5, 0.0, 0.0])
        worst = 0.0
        for _ in range(3000):
            predicted = cur.compose(prev.inverse().compose(cur))
            prev, cur = cur, Pose.from_matrix(predicted.matrix())
            r = cur.rotation
            worst = max(worst, np.abs(r.T @ r - np.eye(3)).max())
        assert worst <= 1e-13

    def test_from_matrix_projects_near_rotations(self):
        # A matrix within 1e-4 of orthonormal comes back within 4 eps of
        # it, moved by about its distance; a rotation comes back unchanged.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(13)
        for scale in (1e-15, 1e-10, 1e-6, 3e-5):
            r = random_pose(rng).rotation
            m = r + rng.uniform(-scale, scale, (3, 3))
            p = project_rotation(m)
            assert np.abs(p.T @ p - np.eye(3)).max() <= 4 * eps
            assert np.abs(p - m).max() <= 4 * scale + 4 * eps
        r = Pose.from_rt([0.3, -0.2, 0.1], np.zeros(3)).rotation
        np.testing.assert_array_equal(project_rotation(r), r)

    @pytest.mark.parametrize("m", [
        np.zeros((3, 3)),
        2.0 * np.eye(3),
        np.diag([1.0, 1.0, -1.0]),
        np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.eye(3) + 2e-4 * np.eye(3)[::-1],
        np.full((3, 3), np.nan),
        np.diag([1.0, np.inf, 1.0]),
    ], ids=["zeros", "twice_identity", "reflection", "shear", "off_by_2e-4",
            "nan", "inf"])
    def test_from_matrix_rejects_non_rotations(self, m):
        with pytest.raises(ValueError, match="rotation matrix"):
            project_rotation(m)

    @staticmethod
    def polar_steps(m):
        """How many polar steps project_rotation takes for one matrix."""
        steps = 0
        while np.abs(m.T @ m - np.eye(3)).max() > 4 * np.finfo(float).eps and steps < 4:
            m = 1.5 * m - 0.5 * (m @ (m.T @ m))
            steps += 1
        return steps

    def test_stack_matches_each_matrix(self):
        # a seeded stack of rotations, as given and perturbed so that they
        # need 0, 1 and 2 or more polar steps, projected in one call
        rng = np.random.default_rng(17)
        stack = []
        for scale in (0.0, 1e-15, 1e-10, 1e-6, 1e-5, 3e-5):
            for _ in range(40):
                r = random_pose(rng).rotation
                stack.append(r + rng.uniform(-scale, scale, (3, 3)))
        stack = np.array(stack)
        steps = {min(self.polar_steps(m), 2) for m in stack}
        assert steps == {0, 1, 2}
        got = project_rotation(stack)
        assert got.shape == stack.shape
        for m, p in zip(stack, got):
            assert np.array_equal(p, project_rotation(m))
        assert project_rotation(stack[:0]).shape == (0, 3, 3)

    def test_stack_with_one_bad_matrix_raises(self):
        stack = np.repeat(np.eye(3)[None], 5, axis=0)
        stack[3] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="not a rotation matrix at index 3"):
            project_rotation(stack)
        stack[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="rotation matrix is not finite"):
            project_rotation(stack)

    def test_read_only(self):
        # a Pose keeps its own read-only copy of each array it is given,
        # so neither a write through the pose nor one into the caller's
        # arrays changes it
        r = Pose.from_rt([0.0, 0.0, 0.5], np.zeros(3)).rotation.copy()
        t = np.array([1.0, 2.0, 3.0])
        pose = Pose(r, t)
        before = pose.matrix()
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0
        with pytest.raises(ValueError):
            pose.translation[0] = 2.0
        r[0, 0], t[0] = 2.0, 99.0
        np.testing.assert_array_equal(pose.matrix(), before)
        for derived in (pose.inverse(), pose.compose(pose), Pose.from_matrix(before)):
            assert not derived.rotation.flags.writeable
            assert not derived.translation.flags.writeable

    def test_tum_quaternion_round_trip(self, tmp_path):
        # Random rotations, 141 of them with trace <= 0 (the quaternion is
        # taken from a diagonal entry, not the trace), and the half turns
        # about each axis (w = 0): SciPy's quaternion, flipped to w >= 0,
        # rebuilds the matrix within 8 eps (measured 4 eps); the file holds
        # it to 12 significant digits.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(14)
        rotations = []
        for _ in range(400):
            axis = rng.standard_normal(3)
            rotvec = axis / np.linalg.norm(axis) * rng.uniform(0.0, np.pi)
            rotations.append(Pose.from_rt(rotvec, np.zeros(3)).rotation)
        rotations += [np.diag(d) for d in
                      ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])]
        assert sum(np.trace(r) <= 0.0 for r in rotations) > 100
        path = tmp_path / "tum.txt"
        export_trajectory([Pose(r, np.zeros(3)) for r in rotations], path, format="tum")
        written = np.loadtxt(path)[:, [7, 4, 5, 6]]  # w, x, y, z
        for r, line in zip(rotations, written):
            q = Rotation.from_matrix(r).as_quat()[[3, 0, 1, 2]]  # w, x, y, z
            q = -q if q[0] < 0.0 else q
            assert q[0] >= 0.0 and line[0] >= 0.0
            np.testing.assert_allclose(line, q, rtol=1e-11, atol=1e-12)
            rebuilt = ref.QuaternionRotation(*q).matrix()
            assert np.abs(rebuilt - r).max() <= 8 * eps


class TestJacobianBlocks:
    """Numerical checks of the stacked SE(3) Jacobian maps the optimizer
    calls, with the quaternion left Jacobian of tests/loop_reference.py."""

    @staticmethod
    def numeric(f, xi, h=1e-6):
        """Central differences of the (N, 6) map f along each twist axis."""
        num = np.zeros((len(xi), 6, 6))
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            num[:, :, k] = (f(d) - f(-d)) / (2 * h)
        return num

    def test_left_jacobian_definition(self):
        # exp(xi + d) ~= exp(J_l(xi) d) exp(xi), so
        # log(exp(e) exp(xi)) ~= xi + J_l^-1(xi) e
        rng = np.random.default_rng(8)
        xi = rng.uniform(-1.0, 1.0, (20, 6))
        r, t = geometry.exp_rt(xi)

        def left(e):
            er, et = geometry.exp_rt(e)
            return geometry.log_rt(er @ r, t @ er.T + et)

        num = self.numeric(left, xi)
        np.testing.assert_allclose(geometry.left_jacobian_inverse(xi), num, atol=1e-5)

    def test_left_jacobian_inverse(self):
        rng = np.random.default_rng(9)
        xi = rng.uniform(-1.5, 1.5, (20, 6))
        jli = geometry.left_jacobian_inverse(xi)
        for x, inv in zip(xi, jli):
            np.testing.assert_allclose(ref.se3_left_jacobian(x) @ inv, np.eye(6), atol=1e-9)

    def test_right_jacobian_inverse_definition(self):
        # log(exp(xi) exp(d)) ~= xi + J_r^-1(xi) d, with J_r^-1(xi) = J_l^-1(-xi)
        rng = np.random.default_rng(10)
        xi = rng.uniform(-1.0, 1.0, (20, 6))
        r, t = geometry.exp_rt(xi)

        def right(d):
            dr, dt = geometry.exp_rt(d)
            return geometry.log_rt(r @ dr, r @ dt + t)

        num = self.numeric(right, xi)
        np.testing.assert_allclose(geometry.left_jacobian_inverse(-xi), num, atol=1e-5)

    def test_adjoint_sandwich(self):
        # T exp(xi) T^-1 == exp(Adj(T) xi)
        rng = np.random.default_rng(11)
        r, t = matrices([random_pose(rng, max_angle=2.0, max_trans=5.0) for _ in range(20)])
        xi = rng.uniform(-0.5, 0.5, (20, 6))
        er, et = geometry.exp_rt(xi)
        lhs_r = r @ er @ r.transpose(0, 2, 1)
        lhs_t = (r @ et[:, :, None])[:, :, 0] + t - (lhs_r @ t[:, :, None])[:, :, 0]
        adj = geometry.adjoint_rt(r, t)
        rhs_r, rhs_t = geometry.exp_rt((adj @ xi[:, :, None])[:, :, 0])
        assert np.abs(lhs_r - rhs_r).max() < 1e-8
        assert np.abs(lhs_t - rhs_t).max() < 1e-8
