"""Trajectory accuracy metrics.

Accuracy follows the KITTI odometry protocol: relative pose errors over
subsequences of 100..800 m, start frames stepped every 10 frames, each
error normalized by the subsequence length.  Both trajectories must already
live in a common frame; KITTI runs are compared in the left-camera frame
after conjugating the estimate with the LiDAR->camera calibration.

Writing a run's files is the pipeline's job; nothing here touches disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .geometry import Pose

__all__ = [
    "SEGMENT_LENGTHS",
    "LengthErrors",
    "EvalReport",
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
            # the first frame past length, as the devkit's lastFrameFromSegmentLength
            e = int(np.searchsorted(dist, dist[s] + length, side="right"))
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
