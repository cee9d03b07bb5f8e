"""The dense point-to-point ICP baseline of tests/dense_icp.py."""

import numpy as np
import pytest

from dense_icp import icp_point_to_point
from featslam.geometry import Pose


class TestIcpOracle:
    def test_recovers_known_displacement(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(-6.0, 6.0, size=(600, 3))
        true_pose = Pose.from_rt([0.0, 0.0, 0.06], np.array([0.4, -0.25, 0.1]))
        source = true_pose.inverse().apply(target)
        result = icp_point_to_point(source, target, Pose.identity())
        t_err = np.linalg.norm(result.pose.translation - true_pose.translation)
        assert t_err < 1e-4
        assert np.degrees(result.pose.inverse().compose(true_pose).angle()) < 0.01
        assert result.rms < 1e-4

    def test_far_clutter_ignored(self):
        rng = np.random.default_rng(8)
        target = rng.uniform(-6.0, 6.0, size=(500, 3))
        clutter = rng.uniform(200.0, 220.0, size=(200, 3))
        move = Pose(np.eye(3), np.array([0.3, 0.0, 0.0]))
        source = move.inverse().apply(target)
        result = icp_point_to_point(
            source, np.vstack([target, clutter]), Pose.identity()
        )
        assert np.linalg.norm(result.pose.translation - move.translation) < 1e-4

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            icp_point_to_point(
                np.zeros((2, 3)), np.zeros((10, 3)), Pose.identity()
            )
