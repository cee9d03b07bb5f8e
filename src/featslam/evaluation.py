"""Trajectory accuracy metrics, loop timing statistics, and plot data.

Accuracy follows the KITTI odometry protocol: relative pose errors over
subsequences of 100..800 m, start frames stepped every 10 frames, each
error normalized by the subsequence length.  Both trajectories must already
live in a common frame; KITTI runs are compared in the left-camera frame
after conjugating the estimate with the LiDAR->camera calibration.

Also bundles a point-to-point ICP reference registration, kept out of the
pipeline itself: it exists to benchmark the feature-based loop estimator
against the classic dense baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Pose, Rotation
from .loop_closure import LoopEvent

__all__ = [
    "SEGMENT_LENGTHS",
    "LengthErrors",
    "EvalReport",
    "IcpResult",
    "TimingStats",
    "icp_point_to_point",
    "kitti_relative_errors",
    "timing_stats",
    "attach_loop_stats",
    "emit_plot_data",
    "write_eval_json",
]

SEGMENT_LENGTHS = tuple(range(100, 900, 100))  # meters
_START_STRIDE = 10  # frames, KITTI devkit convention


@dataclass
class LengthErrors:
    """Errors pooled over all admissible starts for one subsequence length."""

    ate_percent: float
    are_deg_per_100m: float
    pairs: int


@dataclass
class EvalReport:
    ate_percent: float
    are_deg_per_100m: float
    per_length: Dict[int, LengthErrors] = field(default_factory=dict)
    insufficient_length: bool = False
    mean_loop_ms: Optional[float] = None
    median_loop_ms: Optional[float] = None
    loops_accepted: int = 0
    loops_rejected: int = 0


class TimingStats(NamedTuple):
    mean_ms: Optional[float]
    median_ms: Optional[float]
    count: int


def _path_distances(poses: Sequence[Pose]) -> np.ndarray:
    """Cumulative arc length along the trajectory, dist[0] = 0."""
    if not poses:
        return np.zeros(0)
    steps = [
        np.linalg.norm(poses[i].translation - poses[i - 1].translation)
        for i in range(1, len(poses))
    ]
    return np.concatenate([[0.0], np.cumsum(steps)])


def kitti_relative_errors(
    estimate: Sequence[Pose], truth: Sequence[Pose]
) -> EvalReport:
    """Relative translational/rotational errors per the KITTI benchmark.

    For each length L and admissible start s (every 10 frames), the end frame
    is the first whose ground-truth arc distance from s reaches L, and the
    error pose is E = inverse(rel_truth) * rel_est.  Translational error is
    |translation(E)|/L (reported as percent), rotational error angle(E)/L
    (reported as deg per 100 m).  A trajectory shorter than the smallest L
    yields a report flagged insufficient_length.
    """
    if len(estimate) != len(truth):
        raise ValueError(
            f"trajectory length mismatch: estimate {len(estimate)}, truth {len(truth)}"
        )
    dist = _path_distances(truth)
    n = len(truth)

    t_all: List[float] = []
    r_all: List[float] = []
    per_length: Dict[int, LengthErrors] = {}
    for length in SEGMENT_LENGTHS:
        t_errs: List[float] = []
        r_errs: List[float] = []
        for s in range(0, n, _START_STRIDE):
            e = int(np.searchsorted(dist, dist[s] + length))
            if e >= n:
                break  # later starts only have less path left
            rel_truth = truth[s].inverse().compose(truth[e])
            rel_est = estimate[s].inverse().compose(estimate[e])
            err = rel_truth.inverse().compose(rel_est)
            t_errs.append(np.linalg.norm(err.translation) / length)
            r_errs.append(err.rotation.angle() / length)
        if t_errs:
            per_length[length] = LengthErrors(
                ate_percent=float(np.mean(t_errs)) * 100.0,
                are_deg_per_100m=float(np.mean(r_errs)) * 100.0 * 180.0 / np.pi,
                pairs=len(t_errs),
            )
            t_all.extend(t_errs)
            r_all.extend(r_errs)

    if not t_all:
        return EvalReport(0.0, 0.0, per_length={}, insufficient_length=True)
    return EvalReport(
        ate_percent=float(np.mean(t_all)) * 100.0,
        are_deg_per_100m=float(np.mean(r_all)) * 100.0 * 180.0 / np.pi,
        per_length=per_length,
        insufficient_length=False,
    )


def timing_stats(events: Sequence[LoopEvent]) -> TimingStats:
    """Mean/median wall time (ms) over accepted loop events.

    An empty or all-rejected log reports count 0 with absent statistics.
    """
    times = np.array([e.millis for e in events if e.accepted], dtype=float)
    if len(times) == 0:
        return TimingStats(None, None, 0)
    return TimingStats(float(times.mean()), float(np.median(times)), len(times))


def attach_loop_stats(report: EvalReport, events: Sequence[LoopEvent]) -> EvalReport:
    """Fill the loop timing/count fields of a metric report in place."""
    stats = timing_stats(events)
    report.mean_loop_ms = stats.mean_ms
    report.median_loop_ms = stats.median_ms
    report.loops_accepted = sum(1 for e in events if e.accepted)
    report.loops_rejected = sum(1 for e in events if not e.accepted)
    return report


def emit_plot_data(
    estimate: Sequence[Pose], truth: Sequence[Pose], path
) -> None:
    """CSV of per-frame planar positions for external trajectory plots."""
    if len(estimate) != len(truth):
        raise ValueError(
            f"trajectory length mismatch: estimate {len(estimate)}, truth {len(truth)}"
        )
    with open(path, "w") as f:
        f.write("frame,est_x,est_y,gt_x,gt_y\n")
        for i, (est, gt) in enumerate(zip(estimate, truth)):
            f.write(
                f"{i},{est.translation[0]:.6f},{est.translation[1]:.6f},"
                f"{gt.translation[0]:.6f},{gt.translation[1]:.6f}\n"
            )


@dataclass
class IcpResult:
    pose: Pose  # global pose of the source cloud
    rms: float  # root-mean-square inlier distance at the last sweep
    iterations: int


def icp_point_to_point(
    source: np.ndarray,
    target: np.ndarray,
    initial: Pose,
    max_iterations: int = 50,
    max_correspondence_distance: float = 5.0,
    tolerance: float = 1e-6,
) -> IcpResult:
    """Classic point-to-point ICP; dense reference for loop registration.

    source (Nx3, sensor frame) is registered onto target (Mx3, global
    frame).  Each sweep pairs every moved source point with its nearest
    target neighbor, solves the best rigid alignment of the pairs in closed
    form, and repeats until the update stalls or the iteration cap is hit.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if len(source) < 3 or len(target) < 3:
        raise ValueError("point-to-point ICP needs at least 3 points per cloud")
    tree = cKDTree(target)
    pose = initial
    rms = float("inf")
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        moved = pose.apply(source)
        dist, idx = tree.query(moved, k=1)
        mask = dist <= max_correspondence_distance
        if int(mask.sum()) < 3:
            break
        p = moved[mask]
        q = target[idx[mask]]
        rms = float(np.sqrt(np.mean(dist[mask] ** 2)))
        p_centroid = p.mean(axis=0)
        q_centroid = q.mean(axis=0)
        h = (p - p_centroid).T @ (q - q_centroid)
        u, _, vt = np.linalg.svd(h)
        sign = np.sign(np.linalg.det(vt.T @ u.T)) or 1.0
        r = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
        t = q_centroid - r @ p_centroid
        delta = Pose(Rotation.from_matrix(r), t)
        pose = delta.compose(pose)
        if np.linalg.norm(t) + delta.rotation.angle() < tolerance:
            break
    return IcpResult(pose=pose, rms=rms, iterations=iterations)


def write_eval_json(report: EvalReport, path) -> None:
    payload = {
        "ate_percent": report.ate_percent,
        "are_deg_per_100m": report.are_deg_per_100m,
        "insufficient_length": report.insufficient_length,
        "per_length": {
            str(length): {
                "ate_percent": le.ate_percent,
                "are_deg_per_100m": le.are_deg_per_100m,
                "pairs": le.pairs,
            }
            for length, le in report.per_length.items()
        },
        "mean_loop_ms": report.mean_loop_ms,
        "median_loop_ms": report.median_loop_ms,
        "loops_accepted": report.loops_accepted,
        "loops_rejected": report.loops_rejected,
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
