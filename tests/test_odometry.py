import numpy as np
import pytest

from featslam.features import FeatureCloud
from featslam.geometry import Pose, Rotation, exp
from featslam.odometry import (
    Correspondences,
    IllConditionedError,
    OdometryConfig,
    OdometryState,
    Submap,
    build_system,
    objective,
    predict_pose,
    process_frame,
    register,
)


def translate(x, y, z):
    return Pose(Rotation.identity(), [x, y, z])


def rotz(deg):
    return Pose(Rotation.from_rotvec([0, 0, np.radians(deg)]), np.zeros(3))


def grid(xs, ys, zs):
    g = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


def corner_cloud():
    """Two perpendicular walls, a floor, and three vertical edge lines.

    Surfaces avoid passing through the origin so the n.p = -1 plane
    parametrization is well posed everywhere, and are separated by more
    than the 5-NN radius so neighborhoods never straddle two planes.
    """
    step = 0.35
    wall_a = grid(np.arange(-1.0, 7, step), [-3.0], np.arange(-1.8, 1.2, step))
    wall_b = grid([-3.0], np.arange(-1.0, 7, step), np.arange(-1.8, 1.2, step))
    floor = grid(np.arange(-1.0, 7, 0.5), np.arange(-1.0, 7, 0.5), [-1.8])
    planars = np.vstack([wall_a, wall_b, floor])
    zline = np.arange(-1.8, 1.2, 0.12)
    edges = np.vstack(
        [
            np.stack([np.full_like(zline, -3.0), np.full_like(zline, -3.0), zline], 1),
            np.stack([np.full_like(zline, 6.65), np.full_like(zline, -3.0), zline], 1),
            np.stack([np.full_like(zline, -3.0), np.full_like(zline, 6.65), zline], 1),
        ]
    )
    return FeatureCloud(edges=edges, planars=planars)


def corner_submap(cfg=None):
    submap = Submap(cfg or OdometryConfig())
    submap.insert(corner_cloud(), Pose.identity())
    return submap


class TestPredictPose:
    def test_first_frame_identity(self):
        state = OdometryState()
        assert np.allclose(predict_pose(state).matrix(), np.eye(4))

    def test_constant_velocity(self):
        state = OdometryState(
            current_pose=translate(1, 0, 0), previous_pose=Pose.identity()
        )
        np.testing.assert_allclose(
            predict_pose(state).translation, [2, 0, 0], atol=1e-12
        )

    def test_zero_velocity(self):
        p = translate(3, 1, 2)
        state = OdometryState(current_pose=p.copy(), previous_pose=p.copy())
        np.testing.assert_allclose(predict_pose(state).matrix(), p.matrix(), atol=1e-12)


class TestSubmap:
    def test_voxel_merge_bounds_count(self):
        cloud = FeatureCloud(
            edges=np.zeros((0, 3)),
            planars=np.random.default_rng(0).uniform(0, 2, size=(500, 3)),
        )
        submap = Submap()
        submap.insert(cloud, Pose.identity())
        assert 0 < submap.num_planars <= 500

    def test_insert_twice_idempotent(self):
        cloud = corner_cloud()
        submap = Submap()
        submap.insert(cloud, Pose.identity())
        n_e, n_p = submap.num_edges, submap.num_planars
        submap.insert(cloud, Pose.identity())
        assert (submap.num_edges, submap.num_planars) == (n_e, n_p)

    def test_crop_removes_far_points(self):
        cloud = FeatureCloud(
            edges=np.zeros((0, 3)), planars=np.array([[200.0, 0.0, 0.0], [1.0, 0, 0]])
        )
        submap = Submap()
        submap.insert(cloud, Pose.identity())
        assert submap.num_planars == 1
        np.testing.assert_allclose(submap.planar_points[0], [1, 0, 0])

    def test_count_bounded_by_crop_and_voxel_volume(self):
        cfg = OdometryConfig()
        rng = np.random.default_rng(1)
        submap = Submap(cfg)
        for _ in range(5):
            cloud = FeatureCloud(
                edges=rng.uniform(-50, 50, size=(300, 3)),
                planars=rng.uniform(-50, 50, size=(800, 3)),
            )
            submap.insert(cloud, Pose.identity())
        bound_e = (2 * cfg.crop_radius / cfg.edge_voxel_size) ** 3
        bound_p = (2 * cfg.crop_radius / cfg.planar_voxel_size) ** 3
        assert submap.num_edges <= bound_e
        assert submap.num_planars <= bound_p


class TestRegister:
    def test_self_registration(self):
        submap = corner_submap()
        cloud = corner_cloud()
        feats = FeatureCloud(edges=cloud.edges[::2], planars=cloud.planars[::3])
        res = register(feats, submap, Pose.identity())
        assert res.converged
        assert not res.degenerate
        assert np.linalg.norm(res.pose.translation) < 1e-6
        assert res.pose.rotation.angle() < 1e-6
        assert res.final_cost < 1e-8

    def test_recovers_synthetic_displacement(self):
        submap = corner_submap()
        cloud = corner_cloud()
        move = translate(0.1, 0.05, 0.0).compose(rotz(1.0))
        feats = FeatureCloud(
            edges=move.apply(cloud.edges), planars=move.apply(cloud.planars)
        )
        res = register(feats, submap, Pose.identity())
        expected = move.inverse()
        t_err = np.linalg.norm(res.pose.translation - expected.translation)
        r_err = np.degrees(res.pose.rotation.angle_to(expected.rotation))
        assert t_err < 5e-3
        assert r_err < 0.05

    def test_single_plane_reports_degenerate_directions(self):
        # Ground plane with painted x-aligned line markings: every residual
        # direction is z, so in-plane translation and yaw are unobservable.
        xs = np.arange(-6.0, 6.0, 0.3)
        lines = np.vstack(
            [np.stack([xs, np.full_like(xs, y), np.full_like(xs, -1.8)], 1)
             for y in (-4.0, 0.0, 4.0)]
        )
        planars = grid(np.arange(-6, 6, 0.5), np.arange(-6, 6, 0.5), [-1.8])
        cloud = FeatureCloud(edges=lines, planars=planars)
        submap = Submap()
        submap.insert(cloud, Pose.identity())
        lift = translate(0.0, 0.0, 0.15)
        feats = FeatureCloud(
            edges=lift.apply(cloud.edges), planars=lift.apply(cloud.planars)
        )
        res = register(feats, submap, Pose.identity())
        assert np.isfinite(res.pose.matrix()).all()
        assert res.degenerate
        assert res.degenerate_directions >= 1
        # observable direction recovered, unobservable ones untouched
        assert abs(res.pose.translation[2] + 0.15) < 5e-3
        assert np.abs(res.pose.translation[:2]).max() < 1e-9

    def test_small_submap_returns_initial(self):
        submap = Submap()
        submap.insert(
            FeatureCloud(edges=np.zeros((2, 3)), planars=np.zeros((5, 3))),
            Pose.identity(),
        )
        init = translate(1, 2, 3)
        res = register(corner_cloud(), submap, init)
        assert res.degenerate
        assert res.iterations == 0
        np.testing.assert_allclose(res.pose.matrix(), init.matrix())

    def test_cost_trace_non_increasing(self):
        submap = corner_submap()
        cloud = corner_cloud()
        move = translate(0.2, -0.1, 0.05).compose(rotz(2.0))
        feats = FeatureCloud(
            edges=move.apply(cloud.edges), planars=move.apply(cloud.planars)
        )
        res = register(feats, submap, Pose.identity())
        trace = np.array(res.cost_trace)
        assert (np.diff(trace) <= 1e-12).all()

    def test_deterministic(self):
        submap = corner_submap()
        cloud = corner_cloud()
        move = translate(0.1, 0.05, 0.0).compose(rotz(1.0))
        feats = FeatureCloud(
            edges=move.apply(cloud.edges), planars=move.apply(cloud.planars)
        )
        a = register(feats, submap, Pose.identity())
        b = register(feats, submap, Pose.identity())
        assert (a.pose.matrix() == b.pose.matrix()).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ill_conditioned_raises(self, monkeypatch):
        import featslam.odometry as odo

        bad = Correspondences(
            edge_points=np.zeros((0, 3)),
            line_centroids=np.zeros((0, 3)),
            line_directions=np.zeros((0, 3)),
            plane_points=np.full((12, 3), 1.0),
            plane_normals=np.full((12, 3), np.inf),
            plane_offsets=np.zeros(12),
        )
        monkeypatch.setattr(odo, "associate", lambda *a, **k: bad)
        with pytest.raises(IllConditionedError):
            register(corner_cloud(), corner_submap(), Pose.identity())


class TestJacobian:
    @staticmethod
    def random_correspondences(rng, n_edges=8, n_planes=12):
        edge_points = rng.uniform(-5, 5, size=(n_edges, 3))
        cents = rng.uniform(-5, 5, size=(n_edges, 3))
        dirs = rng.normal(size=(n_edges, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        plane_points = rng.uniform(-5, 5, size=(n_planes, 3))
        normals = rng.normal(size=(n_planes, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = rng.uniform(0.5, 3.0, size=n_planes)
        return Correspondences(edge_points, cents, dirs, plane_points, normals, offsets)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        huber = 0.3
        for trial in range(20):
            corr = self.random_correspondences(rng)
            pose = Pose(
                Rotation.from_rotvec(rng.uniform(-0.3, 0.3, 3)),
                rng.uniform(-1, 1, 3),
            )
            _, grad, _, _ = build_system(corr, pose, huber)
            h = 1e-6
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                up = objective(corr, exp(e).compose(pose), huber)
                dn = objective(corr, exp(-e).compose(pose), huber)
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(grad[k]), 1e-6)
                assert abs(fd - grad[k]) / denom < 1e-4, (trial, k)


class TestProcessFrame:
    @staticmethod
    def corridor_scans(frames, step, noise=0.01, seed=0):
        from featslam.simulate import (
            LidarModel,
            corridor_world,
            simulate_scan,
            straight_path,
        )

        world = corridor_world(length=max(frames * step + 10.0, 30.0))
        model = LidarModel(noise_std=noise)
        rng = np.random.default_rng(seed)
        path = straight_path(frames, step)
        return [simulate_scan(world, p, model, rng, k) for k, p in enumerate(path)], path

    def test_single_frame_identity(self):
        scans, _ = self.corridor_scans(1, 0.5)
        state, submap = OdometryState(), Submap()
        _, pose, res = process_frame(state, scans[0], submap)
        assert res is None
        assert np.allclose(pose.matrix(), np.eye(4))

    def test_static_scene_stays_at_identity(self):
        from featslam.simulate import LidarModel, Wall, World, simulate_scan

        # Surfaces hover above the ground by more than the plane-fit
        # tolerance so no 5-NN set straddles two surfaces, and pillar
        # corners are the only edges: for a fixed viewpoint the last-hit
        # ray column of a convex corner is an exact vertical line.
        def pillar(cx, cy, half, z0, z1):
            c = [(cx - half, cy - half), (cx + half, cy - half),
                 (cx + half, cy + half), (cx - half, cy + half)]
            return [Wall(c[k], c[(k + 1) % 4], z0=z0, z1=z1) for k in range(4)]

        R = 25.0 / np.cos(np.pi / 6)
        hexc = [(R * np.cos(np.radians(30 + 60 * k)),
                 R * np.sin(np.radians(30 + 60 * k))) for k in range(6)]
        walls = [Wall(hexc[k], hexc[(k + 1) % 6], z0=-0.45, z1=3.0)
                 for k in range(6)]
        for az, d in [(0, 19.2), (70, 19.6), (140, 19.3), (205, 19.8), (280, 19.4)]:
            cx, cy = d * np.cos(np.radians(az)), d * np.sin(np.radians(az))
            walls += pillar(cx, cy, 2.0, -0.45, 2.2)
        world = World(walls=walls, poles=[], ground_z=-1.5)
        scan = simulate_scan(
            world, Pose.identity(), LidarModel(noise_std=0.0),
            np.random.default_rng(0), 0,
        )
        state, submap = OdometryState(), Submap()
        cfg = OdometryConfig()
        for _ in range(5):
            _, pose, _ = process_frame(state, scan, submap, cfg)
        assert np.linalg.norm(pose.translation) < 1e-3

    def test_corridor_tracks_constant_motion(self):
        scans, path = self.corridor_scans(50, 0.5)
        state, submap = OdometryState(), Submap()
        cfg = OdometryConfig()
        for scan in scans:
            _, pose, _ = process_frame(state, scan, submap, cfg)
        travelled = np.linalg.norm(pose.translation)
        assert abs(travelled - 24.5) <= 0.02 * 24.5
        err = np.linalg.norm(pose.translation - path[-1].translation)
        assert err <= 0.02 * 24.5
