"""Trajectory accuracy metrics and the dense-ICP baseline.

Accuracy follows the KITTI odometry protocol: relative pose errors over
subsequences of 100..800 m, start frames stepped every 10 frames, each
error normalized by the subsequence length.  Both trajectories must already
live in a common frame; KITTI runs are compared in the left-camera frame
after conjugating the estimate with the LiDAR->camera calibration.

Also holds a point-to-point ICP reference registration, kept out of the
pipeline itself: it exists to benchmark the feature-based loop estimator
against the classic dense baseline.  Writing a run's files is the
pipeline's job; nothing here touches disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Pose, project_rotation

__all__ = [
    "SEGMENT_LENGTHS",
    "LengthErrors",
    "EvalReport",
    "IcpResult",
    "icp_point_to_point",
    "kitti_relative_errors",
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
    """Errors pooled over every length; None when no length fits the path."""

    ate_percent: Optional[float]
    are_deg_per_100m: Optional[float]
    insufficient_length: bool = False
    per_length: Dict[int, LengthErrors] = field(default_factory=dict)


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
    yields a report flagged insufficient_length, with no errors (None).
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
            r_errs.append(err.angle() / length)
        if t_errs:
            per_length[length] = LengthErrors(
                ate_percent=float(np.mean(t_errs)) * 100.0,
                are_deg_per_100m=float(np.mean(r_errs)) * 100.0 * 180.0 / np.pi,
                pairs=len(t_errs),
            )
            t_all.extend(t_errs)
            r_all.extend(r_errs)

    if not t_all:
        return EvalReport(None, None, per_length={}, insufficient_length=True)
    return EvalReport(
        ate_percent=float(np.mean(t_all)) * 100.0,
        are_deg_per_100m=float(np.mean(r_all)) * 100.0 * 180.0 / np.pi,
        per_length=per_length,
        insufficient_length=False,
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
        delta = Pose(project_rotation(r), t)
        pose = delta.compose(pose)
        if np.linalg.norm(t) + delta.angle() < tolerance:
            break
    return IcpResult(pose=pose, rms=rms, iterations=iterations)

