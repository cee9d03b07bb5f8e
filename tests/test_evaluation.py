"""Relative-error metrics and the evaluation files a run writes
(evaluation.json, plot.csv).

The metric oracle is a from-scratch evaluator working directly on 4x4
matrices (numpy only, no shared helpers with the implementation).
"""

import csv
import dataclasses
import json

import numpy as np
import pytest

from featslam.dataset_io import GroundTruthTrajectory
from featslam.evaluation import (
    EvalReport,
    LengthErrors,
    kitti_relative_errors,
)
from featslam.geometry import Pose
from featslam.loop_closure import LoopEvent

LOOP_KEYS = ["mean_loop_ms", "median_loop_ms", "loops_accepted", "loops_rejected"]


def straight_trajectory(total_m, step_m=1.0, scale=1.0):
    n = int(round(total_m / step_m)) + 1
    return [
        Pose(np.eye(3), np.array([scale * step_m * i, 0.0, 0.0]))
        for i in range(n)
    ]


def random_trajectory(rng, frames, step_low=1.0, step_high=4.0):
    """Wiggly forward path; returns (list[Pose], (N,4,4) matrices)."""
    poses = [Pose(np.eye(3), np.zeros(3))]
    for _ in range(frames - 1):
        turn = rng.normal(0.0, 0.05, 3)
        step = np.array([rng.uniform(step_low, step_high), 0.0, 0.0])
        delta = Pose.from_rt(turn, step)
        poses.append(poses[-1].compose(delta))
    mats = np.stack([p.matrix() for p in poses])
    return poses, mats


def perturbed(poses, rng, rot_sigma=0.01, trans_sigma=0.2):
    out = []
    drift = Pose(np.eye(3), np.zeros(3))
    for p in poses:
        wobble = Pose.from_rt(
            rng.normal(0.0, rot_sigma, 3), rng.normal(0.0, trans_sigma, 3)
        )
        drift = drift.compose(wobble) if rng.uniform() < 0.1 else drift
        out.append(drift.compose(p).compose(wobble))
    return out


def brute_force_metrics(est_mats, gt_mats):
    """Independent twin of the relative-error metric, matrices only."""
    d = [0.0]
    for i in range(1, len(gt_mats)):
        d.append(d[-1] + float(np.linalg.norm(gt_mats[i][:3, 3] - gt_mats[i - 1][:3, 3])))
    t_list, r_list = [], []
    for length in range(100, 801, 100):
        for s in range(0, len(gt_mats), 10):
            target = d[s] + length
            end = None
            for j in range(s, len(gt_mats)):
                if d[j] > target:
                    end = j
                    break
            if end is None:
                continue
            rel_t = np.linalg.inv(gt_mats[s]) @ gt_mats[end]
            rel_e = np.linalg.inv(est_mats[s]) @ est_mats[end]
            err = np.linalg.inv(rel_t) @ rel_e
            t_list.append(np.linalg.norm(err[:3, 3]) / length)
            rot = err[:3, :3]
            sin = 0.5 * np.linalg.norm(
                [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
            )
            cos = 0.5 * (np.trace(rot) - 1.0)
            r_list.append(np.arctan2(sin, cos) / length)
    if not t_list:
        return None
    return (
        float(np.mean(t_list)) * 100.0,
        float(np.mean(r_list)) * 100.0 * 180.0 / np.pi,
        len(t_list),
    )


class TestKittiMetrics:
    def test_perfect_estimate_has_zero_error(self):
        rng = np.random.default_rng(0)
        truth, _ = random_trajectory(rng, 120)
        report = kitti_relative_errors(truth, truth)
        assert not report.insufficient_length
        assert report.ate_percent == pytest.approx(0.0, abs=1e-10)
        assert report.are_deg_per_100m == pytest.approx(0.0, abs=1e-10)

    def test_straight_line_one_percent_scale(self):
        truth = straight_trajectory(900.0)
        estimate = straight_trajectory(900.0, scale=1.01)
        report = kitti_relative_errors(estimate, truth)
        assert report.ate_percent == pytest.approx(1.0, abs=0.01)
        assert report.are_deg_per_100m == pytest.approx(0.0, abs=1e-12)

    def test_straight_line_pair_counts(self):
        truth = straight_trajectory(900.0)
        report = kitti_relative_errors(truth, truth)
        assert sorted(report.per_length) == list(range(100, 900, 100))
        # 901 frames at 1 m spacing, starts every 10 frames; a subsequence
        # ends at the first frame past L, so L=100 admits starts 0..790 (80)
        # and L=800 admits starts 0..90 (10).
        assert report.per_length[100].pairs == 80
        assert report.per_length[800].pairs == 10

    def test_short_trajectory_flagged(self):
        for truth in (straight_trajectory(50.0), []):
            report = kitti_relative_errors(truth, truth)
            assert report.insufficient_length
            assert report.per_length == {}
            assert report.ate_percent is None and report.are_deg_per_100m is None

    def test_length_mismatch_rejected(self):
        truth = straight_trajectory(200.0)
        with pytest.raises(ValueError):
            kitti_relative_errors(truth[:-1], truth)

    def test_invariant_to_common_rigid_transform(self):
        rng = np.random.default_rng(5)
        truth, _ = random_trajectory(rng, 150)
        estimate = perturbed(truth, rng)
        base = kitti_relative_errors(estimate, truth)
        g = Pose.from_rt([0.4, -1.1, 0.7], np.array([300.0, -40.0, 12.0]))
        moved = kitti_relative_errors(
            [g.compose(p) for p in estimate], [g.compose(p) for p in truth]
        )
        assert moved.ate_percent == pytest.approx(base.ate_percent, abs=1e-9)
        assert moved.are_deg_per_100m == pytest.approx(base.are_deg_per_100m, abs=1e-9)
        for length, le in base.per_length.items():
            assert moved.per_length[length].pairs == le.pairs

    def test_matches_brute_force_twin_on_random_trajectories(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            frames = int(rng.integers(60, 140))
            truth, gt_mats = random_trajectory(rng, frames)
            estimate = perturbed(truth, rng)
            est_mats = np.stack([p.matrix() for p in estimate])
            oracle = brute_force_metrics(est_mats, gt_mats)
            report = kitti_relative_errors(estimate, truth)
            if oracle is None:
                assert report.insufficient_length
                continue
            ate, are, pairs = oracle
            assert report.ate_percent == pytest.approx(ate, abs=1e-9)
            assert report.are_deg_per_100m == pytest.approx(are, abs=1e-9)
            assert sum(le.pairs for le in report.per_length.values()) == pairs


def _event(millis, accepted=True, frm=60, to=2):
    return LoopEvent(
        from_keyframe=frm,
        to_keyframe=to,
        d=3.0,
        d_thre=20.6,
        sc_distance=0.08,
        accepted=accepted,
        cost=0.05,
        millis=millis,
    )


def lidar_truth(poses):
    """Truth in the LiDAR frame, as a synthetic world gives it."""
    return GroundTruthTrajectory(camera_poses=list(poses), calibration=Pose.identity())


def written_evaluation(write_run, events=(), estimate=None, truth=None):
    """evaluation.json of a run; one identity frame unless given."""
    if estimate is None:
        estimate = [Pose.identity()]
    out = write_run(estimate, events, truth or lidar_truth(estimate))
    return json.loads((out / "evaluation.json").read_text())


class TestTimingStats:
    """The loop timing and count keys of evaluation.json."""

    def test_mean_and_median_of_accepted_events(self, write_run):
        data = written_evaluation(write_run, [_event(100.0), _event(200.0)])
        assert data["mean_loop_ms"] == pytest.approx(150.0)
        assert data["median_loop_ms"] == pytest.approx(150.0)
        assert data["loops_accepted"] == 2

    def test_empty_log_reports_absent_stats(self, write_run):
        for events in ([], [_event(50.0, accepted=False)]):
            data = written_evaluation(write_run, events)
            assert (data["mean_loop_ms"], data["median_loop_ms"],
                    data["loops_accepted"]) == (None, None, 0)

    def test_rejected_events_excluded(self, write_run):
        events = [_event(100.0), _event(900.0, accepted=False), _event(300.0)]
        data = written_evaluation(write_run, events)
        assert data["loops_accepted"] == 2
        assert data["mean_loop_ms"] == pytest.approx(200.0)

    def test_accepted_and_rejected_counts(self, write_run):
        events = [_event(10.0), _event(20.0, accepted=False)]
        data = written_evaluation(write_run, events)
        assert data["loops_accepted"] == 1
        assert data["loops_rejected"] == 1
        assert data["mean_loop_ms"] == pytest.approx(10.0)


class TestPlotData:
    def test_two_pose_trajectories(self, write_run):
        est = straight_trajectory(1.0, step_m=1.0)
        gt = straight_trajectory(2.0, step_m=2.0)
        out = write_run(est, truth=lidar_truth(gt))
        lines = (out / "plot.csv").read_text().strip().splitlines()
        assert lines[0] == "frame,est_x,est_y,gt_x,gt_y"
        assert len(lines) == 3
        assert all(len(l.split(",")) == 5 for l in lines)
        row = lines[2].split(",")
        assert float(row[1]) == pytest.approx(1.0)
        assert float(row[3]) == pytest.approx(2.0)

    def test_identity_trajectories_give_zeros(self, write_run):
        poses = [Pose(np.eye(3), np.zeros(3))] * 3
        out = write_run(poses, truth=lidar_truth(poses))
        for line in (out / "plot.csv").read_text().strip().splitlines()[1:]:
            assert [float(v) for v in line.split(",")[1:]] == [0.0] * 4

    def test_length_mismatch_rejected(self, write_run):
        est = straight_trajectory(5.0)
        with pytest.raises(ValueError):
            write_run(est[:-1], truth=lidar_truth(est))


class TestEvalJson:
    def test_round_trip_fields(self, write_run):
        truth = straight_trajectory(900.0)
        estimate = straight_trajectory(900.0, scale=1.01)
        report = kitti_relative_errors(estimate, truth)
        data = written_evaluation(write_run, [_event(42.0)], estimate, lidar_truth(truth))
        assert data["ate_percent"] == pytest.approx(report.ate_percent)
        assert data["are_deg_per_100m"] == pytest.approx(report.are_deg_per_100m)
        assert data["per_length"]["100"]["pairs"] == 80
        assert data["loops_accepted"] == 1
        assert data["mean_loop_ms"] == pytest.approx(42.0)
        assert data["insufficient_length"] is False

    def test_keys_are_the_report_fields_then_the_loop_stats(self, write_run):
        truth = straight_trajectory(150.0)
        data = written_evaluation(write_run, estimate=truth, truth=lidar_truth(truth))
        assert list(data) == [f.name for f in dataclasses.fields(EvalReport)] + LOOP_KEYS
        assert list(data["per_length"]) == ["100"]
        assert list(data["per_length"]["100"]) == [
            f.name for f in dataclasses.fields(LengthErrors)
        ]

    def test_errors_taken_in_camera_frame(self, write_run):
        """Estimate and truth live in the LiDAR frame; KITTI truth is in the
        camera frame, so the estimate is conjugated with the calibration Tr.
        With an offset Tr the errors differ from the LiDAR-frame ones."""
        rng = np.random.default_rng(11)
        lidar, _ = random_trajectory(rng, 150)
        estimate = perturbed(lidar, rng)
        tr = Pose.from_rt([1.2, -1.2, 1.2], np.array([0.3, -0.8, -1.5]))
        camera = [tr.compose(p).compose(tr.inverse()) for p in lidar]
        truth = GroundTruthTrajectory(camera_poses=camera, calibration=tr)
        out = write_run(estimate, [], truth)
        expected = kitti_relative_errors(
            [tr.compose(p).compose(tr.inverse()) for p in estimate], camera
        )
        assert not expected.insufficient_length
        assert json.loads((out / "evaluation.json").read_text()) == json.loads(json.dumps(
            {**dataclasses.asdict(expected), "mean_loop_ms": None, "median_loop_ms": None,
             "loops_accepted": 0, "loops_rejected": 0}
        ))
        in_lidar = kitti_relative_errors(estimate, lidar)
        assert abs(in_lidar.ate_percent - expected.ate_percent) > 1e-2
        # plot.csv shows both trajectories in the LiDAR frame, the estimate
        # moved onto truth's first pose
        with open(out / "plot.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        align = lidar[0].compose(estimate[0].inverse())
        for row, est, gt in zip(rows, estimate, lidar, strict=True):
            assert [float(row[k]) for k in ("est_x", "est_y")] == pytest.approx(
                align.compose(est).translation[:2], abs=5e-7)
            assert [float(row[k]) for k in ("gt_x", "gt_y")] == pytest.approx(
                gt.translation[:2], abs=5e-7)
