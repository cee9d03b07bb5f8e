import csv

import numpy as np
import pytest

from featslam.features import FeatureCloud
from featslam.geometry import Pose
from featslam.loop_closure import (
    COST_THRESHOLD,
    Keyframe,
    LoopClosureConfig,
    LoopEvent,
    adaptive_threshold,
    estimate_loop_pose,
    gate_distance,
    is_new_keyframe,
)
from featslam import loop_closure
from featslam.odometry import OdometryConfig, Submap, register
from shapes import corner_cloud, grid, rotz, translate

CFG = LoopClosureConfig()
ODOMETRY = OdometryConfig()


def angle_between(a, b):
    return a.inverse().compose(b).angle()


class TestGateDistance:
    def test_equal_poses(self):
        p = translate(3, 1, 2).compose(rotz(40))
        assert gate_distance(p, p) == 0.0

    def test_three_four_five(self):
        assert gate_distance(translate(3, 4, 0), Pose.identity()) == pytest.approx(5.0)

    def test_rotation_does_not_change_norm(self):
        t_loop = rotz(90)
        t_k = rotz(90).compose(translate(1, 1, 0))
        assert gate_distance(t_k, t_loop) == pytest.approx(np.sqrt(2.0))

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = Pose.from_rt(rng.uniform(-2, 2, 3), rng.uniform(-30, 30, 3))
            b = Pose.from_rt(rng.uniform(-2, 2, 3), rng.uniform(-30, 30, 3))
            assert abs(gate_distance(a, b) - gate_distance(b, a)) < 1e-9


class TestAdaptiveThreshold:
    def test_zero_keyframes(self):
        assert adaptive_threshold(0) == pytest.approx(20.0)

    def test_five_hundred_over_fifty(self, monkeypatch):
        monkeypatch.setattr(loop_closure, "KEYFRAMES_PER_M", 50.0)
        assert adaptive_threshold(500) == pytest.approx(30.0)

    def test_hundred_over_hundred(self):
        assert adaptive_threshold(100) == pytest.approx(21.0)

    def test_monotone_in_k(self, monkeypatch):
        monkeypatch.setattr(loop_closure, "KEYFRAMES_PER_M", 37.0)
        values = [adaptive_threshold(k) for k in range(0, 1000, 13)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="submap_half_width"):
            LoopClosureConfig(submap_half_width=-1)
        with pytest.raises(ValueError, match="max_iterations"):
            LoopClosureConfig(max_iterations=0)


class TestVerifyCandidate:
    """The distance gate run_slam applies to a descriptor match: the
    candidate is kept when gate_distance <= adaptive_threshold."""

    def test_inside_gate(self):
        assert gate_distance(translate(5, 0, 0), Pose.identity()) <= adaptive_threshold(0)

    def test_outside_gate(self):
        assert gate_distance(translate(25, 0, 0), Pose.identity()) > adaptive_threshold(0)

    def test_boundary_inclusive(self):
        d = gate_distance(translate(20, 0, 0), Pose.identity())
        assert d == adaptive_threshold(0) == 20.0

    def test_gate_widens_with_keyframes(self):
        d = gate_distance(translate(25, 0, 0), Pose.identity())
        assert d > adaptive_threshold(0)
        assert d <= adaptive_threshold(600)


class TestKeyframePromotion:
    def test_translation_promotes(self):
        assert is_new_keyframe(Pose.identity(), translate(1.1, 0, 0))

    def test_rotation_promotes(self):
        assert is_new_keyframe(Pose.identity(), rotz(11.0))

    def test_small_motion_does_not(self):
        assert not is_new_keyframe(Pose.identity(), translate(0.5, 0, 0).compose(rotz(5)))


def make_keyframes(poses, clouds):
    return [Keyframe(frame_index=i * 3, features=c, odometry_pose=p)
            for i, (p, c) in enumerate(zip(poses, clouds))]


class TestEstimateLoopPose:
    def test_self_match_identity(self):
        cloud = corner_cloud()
        poses = [Pose.identity(), Pose.identity(), Pose.identity()]
        keyframes = make_keyframes(poses, [cloud, cloud, cloud])
        relative, cost = estimate_loop_pose(2, keyframes, 0, poses, CFG, ODOMETRY, 0.0)
        assert relative is not None
        assert cost < COST_THRESHOLD
        assert np.linalg.norm(relative.translation) < 1e-4
        assert relative.angle() < 1e-4

    def test_synthetic_revisit_recovers_relative_pose(self):
        world = corner_cloud()
        true_current = translate(2, 0, 0).compose(rotz(5.0))
        current_feats = FeatureCloud(
            edges=true_current.inverse().apply(world.edges),
            planars=true_current.inverse().apply(world.planars),
        )
        drift = translate(0.3, 0.4, 0.0)  # |drift| = 0.5 m
        odom_poses = [Pose.identity(), Pose.identity(), drift.compose(true_current)]
        keyframes = make_keyframes(odom_poses, [world, world, current_feats])
        relative, _ = estimate_loop_pose(2, keyframes, 0, odom_poses, CFG, ODOMETRY, 0.0)
        assert relative is not None
        expected = true_current  # loop frame is at identity
        t_err = np.linalg.norm(relative.translation - expected.translation)
        r_err = np.degrees(angle_between(relative, expected))
        assert t_err < 0.05
        assert r_err < 0.5

    def test_tiny_submap_rejected(self):
        tiny = FeatureCloud(edges=np.zeros((3, 3)), planars=np.zeros((8, 3)))
        poses = [Pose.identity(), Pose.identity()]
        keyframes = make_keyframes(poses, [tiny, tiny])
        relative, cost = estimate_loop_pose(1, keyframes, 0, poses, CFG, ODOMETRY, 0.0)
        assert relative is None
        assert not cost < COST_THRESHOLD

    def test_window_is_not_cropped(self, monkeypatch):
        # keyframes 0 and 1 lie over 100 m, odometry's crop radius, from
        # keyframe 4, the last of the window: loop refinement keeps them
        cloud = corner_cloud()
        poses = [translate(40.0 * i, 0, 0) for i in range(5)] + [Pose.identity()]
        keyframes = make_keyframes(poses, [cloud] * 6)
        received = []

        def spy(features, submap, initial, cfg):
            received.append(submap)
            return register(features, submap, initial, cfg)

        monkeypatch.setattr(loop_closure, "register", spy)
        estimate_loop_pose(5, keyframes, 2, poses, CFG, ODOMETRY, 0.0)
        (submap,) = received
        early = Submap(ODOMETRY)
        for i in (0, 1):
            early.insert(cloud, poses[i])
        for voxels, kept in ((submap.edges, early.edges), (submap.planars, early.planars)):
            far = np.linalg.norm(voxels.points - poses[4].translation, axis=1) > 100.0
            assert len(kept.points) and np.array_equal(voxels.points[far], kept.points)

    def test_window_matches_one_insert_per_keyframe(self, monkeypatch):
        # keyframes a few cm and degrees apart share most voxels, so which
        # point each voxel keeps depends on the order the window is inserted in
        cloud = corner_cloud()
        poses = [translate(0.07 * i, -0.05 * i, 0).compose(rotz(3.0 * i)) for i in range(8)]
        keyframes = make_keyframes(poses, [cloud] * 8)
        received = []

        def spy(features, submap, initial, cfg):
            received.append(submap)
            return register(features, submap, initial, cfg)

        monkeypatch.setattr(loop_closure, "register", spy)
        estimate_loop_pose(7, keyframes, 2, poses, CFG, ODOMETRY, 0.0)
        (submap,) = received
        expected = Submap(ODOMETRY)
        for i in range(7):  # the window: keyframes 0 to 6, before the current one
            expected.insert(cloud, poses[i])
        for voxels, kept, inserted in ((submap.edges, expected.edges, cloud.edges),
                                       (submap.planars, expected.planars, cloud.planars)):
            assert len(kept.points) < 7 * len(inserted)  # shared voxels kept once
            assert np.array_equal(voxels.points, kept.points)

    def test_store_not_mutated(self):
        cloud = corner_cloud()
        poses = [Pose.identity(), translate(0.2, 0, 0), translate(0.4, 0, 0)]
        keyframes = make_keyframes(poses, [cloud, cloud, cloud])
        edges_before = [kf.features.edges.copy() for kf in keyframes]
        pose_before = [kf.odometry_pose.matrix().copy() for kf in keyframes]
        estimate_loop_pose(2, keyframes, 0, poses, CFG, ODOMETRY, 0.0)
        for kf, e, m in zip(keyframes, edges_before, pose_before):
            assert np.array_equal(kf.features.edges, e)
            assert np.array_equal(kf.odometry_pose.matrix(), m)

    def test_optimized_loop_pose_rebases_initialization(self):
        # if the loop frame was corrected by optimization, the relative pose
        # is expressed against the corrected pose
        world = corner_cloud()
        correction = translate(5.0, -2.0, 0.0)
        odom = [Pose.identity(), Pose.identity(), translate(0.1, 0, 0)]
        latest = [correction, correction, None]
        current_feats = FeatureCloud(
            edges=world.edges.copy(), planars=world.planars.copy()
        )
        keyframes = make_keyframes(odom, [world, world, current_feats])
        latest[2] = correction.compose(odom[2])
        relative, _ = estimate_loop_pose(2, keyframes, 0, latest, CFG, ODOMETRY, 0.0)
        assert relative is not None
        # current truly sits at the loop frame: relative pose ~ identity
        assert np.linalg.norm(relative.translation) < 1e-3

    def test_far_drift_recovered_with_yaw_hint(self):
        # odometry is hopeless (60 m off) but the place was recognized: the
        # initializer starts at the matched frame turned by the descriptor
        # shift, so the estimate is independent of accumulated drift
        world = corner_cloud()
        true_current = translate(1.0, 0.5, 0.0).compose(rotz(90.0))
        current_feats = FeatureCloud(
            edges=true_current.inverse().apply(world.edges),
            planars=true_current.inverse().apply(world.planars),
        )
        odom = [Pose.identity(), Pose.identity(), translate(60, 0, 0)]
        keyframes = make_keyframes(odom, [world, world, current_feats])
        relative, _ = estimate_loop_pose(2, keyframes, 0, odom, CFG, ODOMETRY, np.pi / 2)
        assert relative is not None
        t_err = np.linalg.norm(relative.translation - true_current.translation)
        r_err = np.degrees(angle_between(relative, true_current))
        assert t_err < 0.05
        assert r_err < 0.5


class TestLoopLog:
    def test_csv_format(self, write_run):
        events = [
            LoopEvent(80, 3, 4.2, 20.8, 0.13, True, 0.05, 12.5),
            LoopEvent(95, 7, 30.0, 20.95, 0.19, False, float("inf"), 3.25),
        ]
        out = write_run(events=events)
        with open(out / "loops.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["from", "to", "d", "d_thre", "sc_distance",
                           "accepted", "cost", "millis"]
        assert rows[1] == ["80", "3", "4.200000", "20.800000", "0.130000", "1",
                           "0.050000", "12.500"]
        assert rows[2][5] == "0" and rows[2][6] == "inf"
        assert len(rows) == 3
