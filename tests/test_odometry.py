import numpy as np
import pytest
from scipy.spatial import cKDTree

import featslam.odometry as odo
import loop_reference as ref
from featslam.features import FeatureCloud, FeatureConfig, extract_features
from featslam.geometry import Pose, exp_rt, skew
from featslam.loop_closure import LoopClosureConfig, registration_config
from featslam.odometry import (
    Correspondences,
    OdometryConfig,
    Submap,
    predict_pose,
    process_frame,
    register,
)
from featslam.simulate import generate_world
from shapes import corner_cloud, grid, rotz, translate

CFG = OdometryConfig()
FEATURES = FeatureConfig()


def corner_submap(cfg=CFG):
    submap = Submap(cfg)
    submap.insert(corner_cloud(), Pose.identity())
    return submap


@pytest.fixture
def counts(monkeypatch):
    """Counts of register's associate rounds and tried steps (exp_rt calls)."""
    counts = {"associate": 0, "steps": 0}
    associate = odo.associate

    def counting_associate(*args, **kwargs):
        counts["associate"] += 1
        return associate(*args, **kwargs)

    def counting_step(twist):
        counts["steps"] += 1
        return exp_rt(twist)

    monkeypatch.setattr(odo, "associate", counting_associate)
    monkeypatch.setattr(odo, "exp_rt", counting_step)
    return counts


@pytest.fixture
def crops(monkeypatch):
    """Each _VoxelSet.crop call: (voxel set, center, radius, points removed)."""
    calls = []
    crop = odo._VoxelSet.crop

    def recording_crop(voxels, center, radius):
        before = len(voxels.points)
        crop(voxels, center, radius)
        calls.append((voxels, center.copy(), radius, before - len(voxels.points)))

    monkeypatch.setattr(odo._VoxelSet, "crop", recording_crop)
    return calls


def track(scans, submap, cfg=CFG):
    """Run process_frame over scans, keeping the frame poses as run_slam
    does; returns the poses and the registrations."""
    poses, results = [], []
    for scan in scans:
        _, pose, res = process_frame(poses, scan, submap, cfg, FEATURES)
        poses.append(pose)
        results.append(res)
    return poses, results


class TestPredictPose:
    def test_constant_velocity(self):
        np.testing.assert_allclose(
            predict_pose([Pose.identity(), translate(1, 0, 0)]).translation,
            [2, 0, 0], atol=1e-12,
        )
        a, b = translate(1, 2, 0).compose(rotz(10)), translate(1.5, 2.2, 0).compose(rotz(13))
        want = b.compose(a.inverse().compose(b))
        np.testing.assert_allclose(predict_pose([a, b]).matrix(), want.matrix(), atol=1e-12)

    def test_zero_velocity(self):
        p = translate(3, 1, 2).compose(rotz(30))
        np.testing.assert_allclose(predict_pose([p]).matrix(), p.matrix(), atol=1e-12)
        np.testing.assert_allclose(predict_pose([p, p]).matrix(), p.matrix(), atol=1e-12)

    def test_uses_only_the_last_two_poses(self):
        a, b = translate(1, 0, 0), translate(1, 1, 0).compose(rotz(5))
        head = [translate(-9, 4, 1), rotz(80), Pose.identity()]
        got = predict_pose(head + [a, b]).matrix()
        assert np.array_equal(got, predict_pose([a, b]).matrix())


class TestSubmap:
    def test_voxel_merge_bounds_count(self):
        cloud = FeatureCloud(
            edges=np.zeros((0, 3)),
            planars=np.random.default_rng(0).uniform(0, 2, size=(500, 3)),
        )
        submap = Submap(CFG)
        submap.insert(cloud, Pose.identity())
        assert 0 < len(submap.planars.points) <= 500

    def test_insert_twice_idempotent(self):
        cloud = corner_cloud()
        submap = Submap(CFG)
        submap.insert(cloud, Pose.identity())
        n_e, n_p = len(submap.edges.points), len(submap.planars.points)
        submap.insert(cloud, Pose.identity())
        assert (len(submap.edges.points), len(submap.planars.points)) == (n_e, n_p)

    def test_crop_removes_far_points(self):
        cloud = FeatureCloud(
            edges=np.zeros((0, 3)), planars=np.array([[200.0, 0.0, 0.0], [1.0, 0, 0]])
        )
        submap = Submap(CFG)
        submap.insert(cloud, Pose.identity())
        assert len(submap.planars.points) == 2  # the submap itself crops nothing
        submap.planars.crop(np.zeros(3), odo.CROP_RADIUS)
        assert len(submap.planars.points) == 1
        np.testing.assert_allclose(submap.planars.points[0], [1, 0, 0])

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
            for voxels in (submap.edges, submap.planars):
                voxels.crop(np.zeros(3), odo.CROP_RADIUS)
        bound_e = (2 * odo.CROP_RADIUS / cfg.edge_voxel_size) ** 3
        bound_p = (2 * odo.CROP_RADIUS / cfg.planar_voxel_size) ** 3
        assert len(submap.edges.points) <= bound_e
        assert len(submap.planars.points) <= bound_p

    def test_same_voxels_keep_the_trees(self):
        cloud = corner_cloud()
        submap = Submap(CFG)
        submap.insert(cloud, Pose.identity())
        trees = submap.edges.tree, submap.planars.tree
        submap.insert(cloud, Pose.identity())
        assert submap.edges.tree is trees[0] and submap.planars.tree is trees[1]

    def test_new_voxel_rebuilds_only_its_own_tree(self):
        submap = corner_submap()
        edge_tree, planar_tree = submap.edges.tree, submap.planars.tree
        submap.insert(FeatureCloud(edges=np.array([[5.0, 5.0, 0.5]])), Pose.identity())
        assert submap.edges.tree is not edge_tree and submap.planars.tree is planar_tree
        edge_tree = submap.edges.tree
        submap.insert(FeatureCloud(planars=np.array([[2.0, 2.0, 2.0]])), Pose.identity())
        assert submap.edges.tree is edge_tree and submap.planars.tree is not planar_tree
        for voxels in (submap.edges, submap.planars):
            assert np.array_equal(voxels.tree.data, voxels.points)

    def test_crop_rebuilds_the_trees(self):
        submap = corner_submap()
        trees = submap.edges.tree, submap.planars.tree
        for voxels in (submap.edges, submap.planars):
            voxels.crop(np.array([150.0, 0.0, 0.0]), odo.CROP_RADIUS)
        assert (len(submap.edges.points), len(submap.planars.points)) == (0, 0)
        for voxels, tree in zip((submap.edges, submap.planars), trees):
            assert voxels.tree is not tree and voxels.tree.n == 0

    def test_trees_index_the_current_points(self, monkeypatch, crops):
        monkeypatch.setattr(odo, "CROP_RADIUS", 12.0)
        scans, _ = TestProcessFrame.corridor_scans(8, 0.5)
        poses, submap = [], Submap(CFG)
        for scan in scans:
            poses.append(process_frame(poses, scan, submap, CFG, FEATURES)[1])
            for voxels in (submap.edges, submap.planars):
                assert np.array_equal(voxels.tree.data, voxels.points)
        assert sum(removed for *_, removed in crops) > 0

    def test_inserts_build_no_tree_until_queried(self, monkeypatch):
        built = []

        def counting_tree(points, **kwargs):
            built.append(len(points))
            return cKDTree(points, **kwargs)

        monkeypatch.setattr(odo, "cKDTree", counting_tree)
        cloud = corner_cloud()
        submap = Submap(CFG)
        for i in range(21):
            submap.insert(cloud, translate(0.5 * i, 0.0, 0.0))
        assert len(submap.edges.points) and len(submap.planars.points)
        assert built == []
        pose = Pose.identity()
        odo.associate(cloud, submap, pose.rotation, pose.translation, CFG)
        assert built == [len(submap.edges.points), len(submap.planars.points)]
        odo.associate(cloud, submap, pose.rotation, pose.translation, CFG)
        assert len(built) == 2


class TestVoxelSetMatchesReference:
    """Array-backed voxel grid against the dict-backed keep-first loop it
    replaces (tests/loop_reference.py): same points, same order."""

    @staticmethod
    def assert_same(grid, ref_grid):
        assert np.array_equal(grid.points, ref_grid.points())
        assert np.array_equal(grid.keys, np.sort(odo._voxel_keys(grid.points, grid.voxel)))

    def test_seeded_insert_crop_sequences(self):
        rng = np.random.default_rng(3)
        for voxel in (0.4, 0.8, 1.3):
            for _ in range(10):
                grid, ref_grid = odo._VoxelSet(voxel), ref.VoxelSet(voxel)
                for _ in range(15):
                    if rng.random() < 0.25:
                        center = rng.uniform(-10, 10, 3)
                        radius = rng.uniform(0.0, 25.0)
                        grid.crop(center, radius)
                        ref_grid.crop(center, radius)
                    else:
                        # fresh points around the origin (negative coordinates
                        # included), repeats within the batch, and points in
                        # voxels already present
                        fresh = rng.uniform(-8, 8, size=(rng.integers(0, 60), 3))
                        parts = [fresh]
                        if len(fresh):
                            parts.append(fresh[rng.integers(0, len(fresh), 20)])
                        if len(grid.points):
                            old = grid.points[rng.integers(0, len(grid.points), 15)]
                            parts.append(old + rng.uniform(-0.5, 0.5, old.shape) * voxel)
                        batch = np.concatenate(parts)[rng.permutation(sum(map(len, parts)))]
                        grid.insert(batch)
                        ref_grid.insert(batch)
                    self.assert_same(grid, ref_grid)

    def test_duplicates_and_present_voxels_keep_first(self):
        grid, ref_grid = odo._VoxelSet(1.0), ref.VoxelSet(1.0)
        a = np.array([[-0.5, -0.5, -0.5], [2.2, 0.1, 0.0], [-0.1, -0.9, -0.2]])
        b = np.array([[2.9, 0.9, 0.9], [-3.5, 0.0, 0.0], [-3.1, 0.5, 0.5]])
        for batch in (a, b, np.zeros((0, 3)), a[::-1]):
            grid.insert(batch)
            ref_grid.insert(batch)
            self.assert_same(grid, ref_grid)
        np.testing.assert_array_equal(grid.points, [a[0], a[1], b[1]])

    def test_crop_removes_nothing_or_everything(self):
        rng = np.random.default_rng(4)
        grid, ref_grid = odo._VoxelSet(0.4), ref.VoxelSet(0.4)
        pts = rng.uniform(-20, 20, size=(400, 3))
        steps = [
            ("insert", pts),
            ("crop", (np.zeros(3), 1e9)),  # removes nothing
            ("crop", (np.full(3, 500.0), 1.0)),  # removes everything
            ("crop", (np.zeros(3), 10.0)),  # on the empty grid
            ("insert", np.zeros((0, 3))),
            ("insert", pts),
        ]
        for op, arg in steps:
            for g in (grid, ref_grid):
                if op == "insert":
                    g.insert(arg)
                else:
                    g.crop(*arg)
            self.assert_same(grid, ref_grid)
        assert grid.keys.dtype == np.int64 and grid.points.shape[1] == 3


class TestAssociateMatchesReference:
    """The adjugate plane fit against the einsum/det/solve fit it replaces
    (tests/loop_reference.py), on seeded frames of the built-in worlds, at
    the predicted pose and at perturbed poses around it."""

    @staticmethod
    def cases(shape, seed):
        scans, _ = generate_world({"shape": shape, "frames": 6, "seed": seed})
        cfg = OdometryConfig()
        submap = Submap(cfg)
        frame_poses, _ = track(scans[:5], submap, cfg)
        features = extract_features(scans[5], FEATURES)
        rng = np.random.default_rng(seed)
        start = predict_pose(frame_poses)
        poses = [start] + [random_pose(rng).compose(start) for _ in range(4)]
        return features, submap, poses, cfg

    @pytest.mark.parametrize("shape", ["square", "corridor", "two_rooms"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_frames(self, shape, seed):
        features, submap, poses, cfg = self.cases(shape, seed)
        planars = features.planars
        # distinct rows, so equal kept points mean equal keep masks
        assert len(np.unique(planars, axis=0)) == len(planars)
        eps = np.finfo(float).eps
        for pose in poses:
            got = odo.associate(
                features, submap, pose.rotation, pose.translation, cfg
            )
            want = ref.associate(features, submap, pose, cfg)
            assert np.array_equal(got.edge_points, want.edge_points)
            assert np.array_equal(got.line_centroids, want.line_centroids)
            assert np.array_equal(got.line_directions, want.line_directions)
            assert np.array_equal(got.plane_points, want.plane_points)
            assert len(got.plane_points) > 0

            keep = (planars[:, None] == got.plane_points[None]).all(axis=2).any(axis=1)
            _, idx = submap.planars.tree.query(pose.apply(planars[keep]), k=odo.KNN)
            a = submap.planars.points[idx]
            s = np.linalg.svd(np.einsum("nki,nkj->nij", a, a), compute_uv=False)
            # chi = |m|^3 / |det m| = s1^2 / (s2 s3) >= the condition number
            # s1 / s3.  Forming m from five-term sums perturbs it by <= 15 eps
            # |m| (both methods).  LU is backward stable (3n = 9 eps), so
            # np.linalg.solve is within (15 + 9) eps s1 / s3 <= (15 + 9) eps
            # chi of the exact n.  The
            # adjugate is not: each cofactor is two rounded products of
            # entries <= s1, so the numerator and the determinant are each
            # within 21 eps s1^2 |b| and 21 eps s1^3, a relative error of at
            # most 21 eps chi each, within (15 + 42) eps chi of the exact n.
            rel = (15 + 9 + 15 + 42) * eps * s[:, 0] ** 2 / (s[:, 1] * s[:, 2])
            assert (rel < 0.5).all()
            # n = unit / offset; the unit normal moves by at most 2 rel |n| / |n|
            # and the offset 1 / |n| by at most rel / (1 - rel) of itself
            du = np.abs(got.plane_normals - want.plane_normals).max(axis=1)
            assert (du <= 2 * rel).all()
            dd = np.abs(got.plane_offsets - want.plane_offsets)
            assert (dd <= rel / (1 - rel) * want.plane_offsets).all()


class TestRegister:
    def test_self_registration(self):
        submap = corner_submap()
        cloud = corner_cloud()
        feats = FeatureCloud(edges=cloud.edges[::2], planars=cloud.planars[::3])
        res = register(feats, submap, Pose.identity(), CFG)
        assert res.converged
        assert not res.degenerate
        assert np.linalg.norm(res.pose.translation) < 1e-6
        assert res.pose.angle() < 1e-6
        assert res.final_cost < 1e-8

    def test_recovers_synthetic_displacement(self):
        submap = corner_submap()
        cloud = corner_cloud()
        move = translate(0.1, 0.05, 0.0).compose(rotz(1.0))
        feats = FeatureCloud(
            edges=move.apply(cloud.edges), planars=move.apply(cloud.planars)
        )
        res = register(feats, submap, Pose.identity(), CFG)
        expected = move.inverse()
        t_err = np.linalg.norm(res.pose.translation - expected.translation)
        r_err = np.degrees(res.pose.inverse().compose(expected).angle())
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
        submap = Submap(CFG)
        submap.insert(cloud, Pose.identity())
        lift = translate(0.0, 0.0, 0.15)
        feats = FeatureCloud(
            edges=lift.apply(cloud.edges), planars=lift.apply(cloud.planars)
        )
        res = register(feats, submap, Pose.identity(), CFG)
        assert np.isfinite(res.pose.matrix()).all()
        assert res.degenerate
        assert res.degenerate_directions >= 1
        # observable direction recovered, unobservable ones untouched
        assert abs(res.pose.translation[2] + 0.15) < 5e-3
        assert np.abs(res.pose.translation[:2]).max() < 1e-9

    def test_small_submap_returns_initial(self):
        submap = Submap(CFG)
        submap.insert(
            FeatureCloud(edges=np.zeros((2, 3)), planars=np.zeros((5, 3))),
            Pose.identity(),
        )
        init = translate(1, 2, 3)
        res = register(corner_cloud(), submap, init, CFG)
        assert res.degenerate
        assert res.iterations == 0
        np.testing.assert_allclose(res.pose.matrix(), init.matrix())

    def test_cost_trace_non_increasing(self, monkeypatch):
        # each iteration's normal equations are built at the accepted state
        trace = []

        def tracing_normal_equations(corr, g, rej, r):
            trace.append(float(odo._huber_rho(r).sum()))
            return normal_equations(corr, g, rej, r)

        normal_equations = odo._normal_equations
        monkeypatch.setattr(odo, "_normal_equations", tracing_normal_equations)
        submap = corner_submap()
        cloud = corner_cloud()
        move = translate(0.2, -0.1, 0.05).compose(rotz(2.0))
        feats = FeatureCloud(
            edges=move.apply(cloud.edges), planars=move.apply(cloud.planars)
        )
        res = register(feats, submap, Pose.identity(), CFG)
        assert len(trace) == res.iterations > 1
        assert (np.diff(trace) <= 1e-12).all()

    def test_deterministic(self):
        submap = corner_submap()
        cloud = corner_cloud()
        move = translate(0.1, 0.05, 0.0).compose(rotz(1.0))
        feats = FeatureCloud(
            edges=move.apply(cloud.edges), planars=move.apply(cloud.planars)
        )
        a = register(feats, submap, Pose.identity(), CFG)
        b = register(feats, submap, Pose.identity(), CFG)
        assert (a.pose.matrix() == b.pose.matrix()).all()

    def test_empty_iteration_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            OdometryConfig(max_iterations=0, refine_iterations=0)
        with pytest.raises(ValueError, match="refine_iterations must be >= 0"):
            OdometryConfig(refine_iterations=-1)

    def test_one_round_budget(self):
        # the smallest budget associates once and refines on that round
        cfg = OdometryConfig(max_iterations=1)
        submap = corner_submap(cfg)
        move = translate(0.1, 0.05, 0.0).compose(rotz(1.0))
        cloud = corner_cloud()
        feats = FeatureCloud(edges=move.apply(cloud.edges), planars=move.apply(cloud.planars))
        res = register(feats, submap, Pose.identity(), cfg)
        assert res.associations == 1
        assert 1 <= res.iterations <= 1 + cfg.refine_iterations
        assert np.linalg.norm(res.pose.translation - move.inverse().translation) < 5e-3
        with pytest.raises(ValueError, match="max_iterations must be >= 1, got 0"):
            OdometryConfig(max_iterations=0)

    def test_failed_step_ends_the_registration(self, monkeypatch, counts):
        # no step can lower a constant cost: the first whole step fails, and
        # the registration ends there without shortening it or re-associating
        monkeypatch.setattr(odo, "_cost", lambda r, num_edges: 1.0)
        move = translate(0.1, 0.05, 0.0).compose(rotz(1.0))
        cloud = corner_cloud()
        feats = FeatureCloud(edges=move.apply(cloud.edges), planars=move.apply(cloud.planars))
        res = register(feats, corner_submap(), Pose.identity(), CFG)
        assert res.converged
        assert res.iterations == 1
        assert counts == {"associate": 1, "steps": 1}
        assert res.pose.matrix().tolist() == Pose.identity().matrix().tolist()

    def test_displaced_start_associates_per_budget(self, counts):
        # the default re-associates twice and refines frozen; loop
        # refinement's larger budget re-associates until the freeze tests fire
        move = translate(0.5, -0.3, 0.1).compose(rotz(5.0))
        cloud = corner_cloud()
        feats = FeatureCloud(edges=move.apply(cloud.edges), planars=move.apply(cloud.planars))
        expected = move.inverse()
        for cfg, rounds in ((CFG, 2), (registration_config(LoopClosureConfig(), CFG), 3)):
            counts["associate"] = 0
            res = register(feats, corner_submap(), Pose.identity(), cfg)
            assert res.converged
            assert res.associations == counts["associate"] == rounds
            assert np.linalg.norm(res.pose.translation - expected.translation) < 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_system_returns_unregistered(self, monkeypatch):
        bad = Correspondences(
            edge_points=np.zeros((0, 3)),
            line_centroids=np.zeros((0, 3)),
            line_directions=np.zeros((0, 3)),
            plane_points=np.full((12, 3), 1.0),
            plane_normals=np.full((12, 3), np.inf),
            plane_offsets=np.zeros(12),
        )
        monkeypatch.setattr(odo, "associate", lambda *a, **k: bad)
        init = translate(0.5, -0.2, 0.1).compose(rotz(3.0))
        res = register(corner_cloud(), corner_submap(), init, CFG)
        assert res.degenerate_directions == 6
        assert res.final_cost == float("inf")
        assert not res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.pose.matrix(), init.matrix(), atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_returns_unregistered(self, monkeypatch):
        # a finite system whose inverse overflows gives a non-finite step
        monkeypatch.setattr(odo, "_normal_equations",
                            lambda *a: (1e-310 * np.eye(6), np.full(6, 1e10)))
        init = translate(0.5, -0.2, 0.1).compose(rotz(3.0))
        res = register(corner_cloud(), corner_submap(), init, CFG)
        assert (res.final_cost, res.degenerate_directions) == (float("inf"), 6)
        assert not res.converged
        assert (res.iterations, res.associations) == (1, 1)
        np.testing.assert_allclose(res.pose.matrix(), init.matrix(), atol=1e-12)

    def test_zero_system_returns_unregistered(self, monkeypatch):
        # a system with no curvature in any direction estimates nothing
        monkeypatch.setattr(odo, "_normal_equations", lambda *a: (np.zeros((6, 6)), np.zeros(6)))
        init = translate(0.5, -0.2, 0.1).compose(rotz(3.0))
        res = register(corner_cloud(), corner_submap(), init, CFG)
        assert res.final_cost == float("inf")
        assert res.degenerate_directions == 6
        assert (res.num_edge_matches, res.num_plane_matches) == (0, 0)
        assert not res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.pose.matrix(), init.matrix(), atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOneKindOfFeature:
    """Clouds with no edges or no planars reach ``associate``, which matches
    the kind present and gives no match of the other, without a warning."""

    MOVE = translate(0.1, 0.05, 0.0).compose(rotz(1.0))

    def register(self, *kinds):
        cloud = corner_cloud()
        feats = FeatureCloud(**{kind: self.MOVE.apply(getattr(cloud, kind)) for kind in kinds})
        return register(feats, corner_submap(), Pose.identity(), CFG)

    def test_planars_only(self):
        res = self.register("planars")
        assert res.converged
        assert (res.num_edge_matches, res.num_plane_matches) == (0, 670)
        assert res.associations == 2
        assert np.linalg.norm(res.pose.translation - self.MOVE.inverse().translation) < 1e-9

    def test_edges_only(self):
        # vertical lines leave the motion along them unestimated
        res = self.register("edges")
        assert res.converged
        assert (res.num_edge_matches, res.num_plane_matches) == (75, 0)
        assert res.degenerate_directions == 1

    def test_empty_cloud_is_unregistered(self):
        res = self.register()
        assert (res.final_cost, res.degenerate_directions) == (float("inf"), 6)
        assert (res.iterations, res.associations) == (1, 1)
        assert res.pose.matrix().tolist() == Pose.identity().matrix().tolist()


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


def random_pose(rng):
    return Pose.from_rt(rng.uniform(-0.3, 0.3, 3), rng.uniform(-1, 1, 3))


def residuals(corr, pose):
    return odo._residuals(corr, pose.rotation, pose.translation)


def evaluate(corr, pose):
    """Cost, H and gradient the way register reads them off one evaluation."""
    g, rej, r = residuals(corr, pose)
    h, grad = odo._normal_equations(corr, g, rej, r)
    return odo._cost(r, len(corr.edge_points)), h, grad


class TestJacobian:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            corr = random_correspondences(rng)
            pose = random_pose(rng)
            _, _, grad = evaluate(corr, pose)
            h = 1e-6
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                up, _, _ = evaluate(corr, ref.exp(e).compose(pose))
                dn, _, _ = evaluate(corr, ref.exp(-e).compose(pose))
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(grad[k]), 1e-6)
                assert abs(fd - grad[k]) / denom < 1e-4, (trial, k)


class TestLineHessian:
    def test_matches_finite_difference_jacobians(self):
        # H of a lines-only set is sum_i w_i J_i^T J_i, where J_i is the
        # 3x6 Jacobian of line i's rejection vector under the left
        # perturbation exp(xi) T.  Central differences with step 1e-5 are
        # within h^2 |g| / 6 ~ 2e-10 (truncation) plus ~20 eps (|g| + |c|)
        # / 2h ~ 1e-9 (rounding) of J here (|g|, |c| <= ~10 m); delta = 1e-7
        # bounds both, and H_kl then lies within
        # sum_rows w (|J_k| + |J_l| + delta) delta of the differenced sum.
        rng = np.random.default_rng(13)
        step, delta = 1e-5, 1e-7
        for _ in range(10):
            corr = random_correspondences(rng, n_edges=12, n_planes=0)
            pose = random_pose(rng)
            g, rej, r = residuals(corr, pose)
            h, _ = odo._normal_equations(corr, g, rej, r)
            jac = np.empty((len(rej), 3, 6))
            for k in range(6):
                twist = np.zeros(6)
                twist[k] = step
                moved = []
                for sign in (1.0, -1.0):
                    step_r, step_t = exp_rt(sign * twist)
                    moved.append(odo._residuals(corr, step_r @ pose.rotation,
                                                step_r @ pose.translation + step_t)[1])
                jac[:, :, k] = (moved[0] - moved[1]) / (2 * step)
            w = odo._huber_weight(r)
            want = np.einsum("n,nik,nil->kl", w, jac, jac)
            tol = delta * (np.einsum("n,nik->k", w, np.abs(jac))[:, None]
                           + np.einsum("n,nil->l", w, np.abs(jac))[None, :]
                           + 3 * w.sum() * delta)
            assert (np.abs(h - want) <= tol).all()


class TestEvaluationMatchesReference:
    """One evaluation per pose against the separate residual, objective and
    normal-equation passes it replaces (tests/loop_reference.py), which
    build each line's three rows one line at a time."""

    def check(self, corr, pose):
        cost, h, grad = evaluate(corr, pose)
        g, rej, r = residuals(corr, pose)
        # register transforms the edge and plane points as one stack; numpy
        # takes a matrix-vector path for a one-row product, so the stack and
        # the reference's separate transforms may round R p apart.  Two
        # orders of a 3-term dot product differ by at most 6 eps sum|terms|,
        # and adding t rounds each by at most eps/2 |g| more.
        eps = np.finfo(float).eps
        points = np.concatenate([corr.edge_points, corr.plane_points])
        want_g = np.concatenate([pose.apply(corr.edge_points), pose.apply(corr.plane_points)])
        terms = np.abs(points) @ np.abs(pose.rotation).T
        assert (np.abs(g - want_g) <= 6 * eps * terms + 2 * eps * np.abs(want_g)).all()
        # everything after the transform is compared bit for bit: the
        # reference runs on the transformed points through the identity,
        # which moves no bit
        ne = len(corr.edge_points)
        moved = Correspondences(g[:ne], corr.line_centroids, corr.line_directions,
                                g[ne:], corr.plane_normals, corr.plane_offsets)
        ident = Pose.identity()
        ref_h, ref_grad, ref_cost, _ = ref.build_system(moved, ident)
        assert cost == ref_cost == ref.objective(moved, ident)
        er, ref_rej, pr = ref.residuals(moved, ident)
        assert np.array_equal(r, np.concatenate([er, pr]))
        assert np.array_equal(rej, ref_rej)
        # register's final mean |r| equals the reference's concatenation
        if len(r):
            assert np.abs(r).mean() == np.concatenate([er, np.abs(pr)]).mean()
        return h, grad, ref_h, ref_grad

    def test_random_correspondences_bit_identical(self):
        rng = np.random.default_rng(11)
        for n_edges, n_planes in [(8, 12), (40, 300), (1, 1), (25, 0), (0, 60), (0, 0)]:
            for _ in range(5):
                corr = random_correspondences(rng, n_edges, n_planes)
                h, grad, ref_h, ref_grad = self.check(corr, random_pose(rng))
                assert np.array_equal(h, ref_h)
                assert np.array_equal(grad, ref_grad)

    def test_zero_residual_edge_within_rounding(self):
        # A point on its line has a zero rejection vector.  Its three rows
        # [g x m_k, m_k] still enter H at full weight: A^T (I - d d^T) A
        # with A = [-[g]x, I], rank two, the directions perpendicular to
        # the line.  Its residuals are zero, so it adds nothing to the
        # gradient.  Dropping its rows regroups the sums; two orders of an
        # n-term dot product differ by at most 2 n eps sum|terms|, and
        # every row entry is at most 1 + |g| in size.
        rng = np.random.default_rng(12)
        for n_edges, n_planes in [(8, 12), (30, 0), (1, 0)]:
            for _ in range(5):
                corr = random_correspondences(rng, n_edges, n_planes)
                pose = random_pose(rng)
                corr.line_centroids[0] = residuals(corr, pose)[0][0]
                h, grad, ref_h, ref_grad = self.check(corr, pose)
                assert np.array_equal(h, ref_h)
                assert np.array_equal(grad, ref_grad)
                g, rej, r = residuals(corr, pose)
                assert r[0] == 0.0 and not rej[0].any()

                rest = Correspondences(
                    corr.edge_points[1:], corr.line_centroids[1:],
                    corr.line_directions[1:], corr.plane_points,
                    corr.plane_normals, corr.plane_offsets,
                )
                h_rest, grad_rest = evaluate(rest, pose)[1:]
                d = corr.line_directions[0]
                a = np.concatenate([-skew(g[0]), np.eye(3)], axis=1)
                added = a.T @ (np.eye(3) - np.outer(d, d)) @ a
                assert np.linalg.matrix_rank(added) == 2

                ne = len(corr.edge_points)
                w = odo._huber_weight(r)
                rows = np.concatenate([np.repeat(w[:ne], 3), w[ne:]])
                pts = np.concatenate([np.repeat(g[:ne], 3, axis=0), g[ne:]])
                size = 1.0 + np.linalg.norm(pts, axis=1)
                res = np.concatenate([np.abs(rej).ravel(), np.abs(r[ne:])])
                tol = 2 * len(rows) * np.finfo(float).eps
                assert (np.abs(h - (h_rest + added)) <= tol * (rows * size**2).sum()).all()
                assert (np.abs(grad - grad_rest) <= tol * (rows * size * res).sum()).all()

    def test_each_pose_evaluated_once(self, monkeypatch, counts):
        evaluated = []
        keep_alive = []  # an id() is unique only while its object lives

        def counting_residuals(corr, rotation, translation):
            keep_alive.append(corr)
            evaluated.append((id(corr), rotation.tobytes() + translation.tobytes()))
            return unwrapped_residuals(corr, rotation, translation)

        unwrapped_residuals = odo._residuals
        monkeypatch.setattr(odo, "_residuals", counting_residuals)
        scans, _ = TestProcessFrame.corridor_scans(3, 0.5)
        _, results = track(scans, Submap(CFG))
        iterations = sum(res.iterations for res in results if res)
        assert counts["associate"] < iterations  # some iterations froze
        assert counts["steps"] == iterations  # one tried step per iteration
        assert len(evaluated) == counts["associate"] + counts["steps"]
        assert len(set(evaluated)) == len(evaluated)


class TestIterations:
    @pytest.mark.parametrize("shape", ["square", "two_rooms", "corridor"])
    def test_registrations_converge_in_few_iterations(self, shape):
        # a line's rejection vector gives Gauss-Newton both directions
        # across the line, so a frame takes a handful of iterations (3.5-9.6
        # on average here; one row per line, along e, took 12.4-15.7 and
        # ran frames into the 60-iteration budget)
        for seed in (0, 1):
            scans, _ = generate_world({"shape": shape, "frames": 60, "seed": seed})
            _, results = track(scans, Submap(CFG))
            registered = results[1:]
            assert all(res.converged for res in registered), (shape, seed)
            assert np.mean([res.iterations for res in registered]) <= 11, (shape, seed)


class TestAssociationRounds:
    def test_default_associates_at_most_twice(self, counts):
        scans, _ = generate_world({"shape": "square", "frames": 30, "seed": 0})
        _, results = track(scans, Submap(CFG))
        rounds = [res.associations for res in results[1:]]
        assert counts["associate"] == sum(rounds)
        assert max(rounds) == 2
        assert min(rounds) >= 1


class TestProcessFrame:
    @staticmethod
    def corridor_scans(frames, step, noise=0.01, seed=0):
        from featslam.simulate import (
            LidarModel,
            corridor_world,
            simulate_scan,
            straight_path,
        )

        world = corridor_world(length=max(frames * step + 10.0, 30.0), density=1.0)
        model = LidarModel(noise_std=noise)
        rng = np.random.default_rng(seed)
        path = straight_path(frames, step)
        return [simulate_scan(world, p, model, rng) for p in path], path

    def test_crops_around_the_pose_it_folds_in(self, monkeypatch, crops):
        monkeypatch.setattr(odo, "CROP_RADIUS", 6.0)
        scans, _ = self.corridor_scans(6, 0.5)
        poses, submap = [], Submap(CFG)
        for scan in scans:
            crops.clear()
            pose = process_frame(poses, scan, submap, CFG, FEATURES)[1]
            poses.append(pose)
            assert [voxels for voxels, *_ in crops] == [submap.edges, submap.planars]
            for voxels, center, radius, _ in crops:
                assert np.array_equal(center, pose.translation) and radius == 6.0
                assert np.linalg.norm(voxels.points - center, axis=1).max() <= 6.0

    def test_single_frame_identity(self):
        scans, _ = self.corridor_scans(1, 0.5)
        _, pose, res = process_frame([], scans[0], Submap(CFG), CFG, FEATURES)
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
            world, Pose.identity(), LidarModel(noise_std=0.0), np.random.default_rng(0)
        )
        poses, _ = track([scan] * 5, Submap(CFG), OdometryConfig())
        assert np.linalg.norm(poses[-1].translation) < 1e-3

    def test_corridor_tracks_constant_motion(self):
        scans, path = self.corridor_scans(50, 0.5)
        poses, _ = track(scans, Submap(CFG), OdometryConfig())
        pose = poses[-1]
        travelled = np.linalg.norm(pose.translation)
        assert abs(travelled - 24.5) <= 0.02 * 24.5
        err = np.linalg.norm(pose.translation - path[-1].translation)
        assert err <= 0.02 * 24.5
