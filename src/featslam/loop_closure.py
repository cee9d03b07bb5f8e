"""Keyframe promotion, the adaptive loop gate and loop registration.

A Scan Context match (Kim & Kim, IROS 2018) is only trusted when the two
poses are already within an adaptive distance gate that widens as the
trajectory (and hence accumulated drift) grows. Accepted candidates are
refined by registering the current feature cloud, with the run's odometry
settings and the loop's own association rounds (``registration_config``),
against the uncropped window of keyframes within ``submap_half_width`` of
the loop keyframe, filled by one ``Submap.insert`` in window order. An
accepted registration gives the relative pose that the pose graph takes as
a loop edge; each attempt, accepted or not, is recorded once, as a
``LoopEvent``.
"""

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .features import FeatureCloud
from .geometry import Pose
from .odometry import OdometryConfig, Submap, register


COST_THRESHOLD = 0.3  # mean |residual| (m) to accept a loop
KEYFRAME_TRANSLATION = 1.0  # m
KEYFRAME_ROTATION_DEG = 10.0


@dataclass
class LoopClosureConfig:
    base_threshold: float = 20.0  # m, the distance gate at keyframe 0
    n: float = 100.0  # trajectory-length divisor: gate widens by 1 m per n keyframes
    submap_half_width: int = 10  # keyframes on each side of the loop frame
    max_iterations: int = 50  # association rounds, at least 1, in place of odometry's

    def __post_init__(self):
        for name in ("base_threshold", "n"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name, low in (("submap_half_width", 0), ("max_iterations", 1)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def registration_config(config: LoopClosureConfig, odometry: OdometryConfig) -> OdometryConfig:
    """Loop registration runs the odometry settings with the loop's association rounds."""
    return dataclasses.replace(odometry, max_iterations=config.max_iterations)


@dataclass
class Keyframe:
    frame_index: int  # raw scan index
    features: FeatureCloud  # sensor frame
    odometry_pose: Pose


def is_new_keyframe(last: Pose, current: Pose) -> bool:
    """Promote when motion since the last keyframe exceeds
    ``KEYFRAME_TRANSLATION`` (m) or ``KEYFRAME_ROTATION_DEG``."""
    rel = last.inverse().compose(current)
    if np.linalg.norm(rel.translation) > KEYFRAME_TRANSLATION:
        return True
    return np.degrees(rel.angle()) > KEYFRAME_ROTATION_DEG


def gate_distance(t_k: Pose, t_loop: Pose) -> float:
    """The length of the relative translation, |t_k - t_loop|."""
    return float(np.linalg.norm(t_k.translation - t_loop.translation))


def adaptive_threshold(k: int, cfg: LoopClosureConfig) -> float:
    """The loop gate for keyframe k: ``base_threshold + k / n``."""
    return cfg.base_threshold + k / cfg.n


def estimate_loop_pose(
    current_index: int,
    keyframes: Sequence[Keyframe],
    loop_index: int,
    latest_poses: Sequence[Pose],
    cfg: LoopClosureConfig,
    odometry: OdometryConfig,
    yaw_hint: float,
) -> Tuple[Optional[Pose], float]:
    """Register keyframe current_index's cloud against a submap around the
    loop keyframe, built from the keyframes before current_index.

    latest_poses holds the best-known global pose per keyframe (optimized
    where available, odometry otherwise). The current frame starts at the
    loop frame's pose rotated by yaw_hint (the descriptor column shift):
    a recognized place is a better initial guess than the drift-bearing
    odometry chain, and it is independent of how far odometry has wandered.

    Returns the registration's cost and, when the registration converged,
    is not degenerate and costs less than ``COST_THRESHOLD``, the current
    keyframe's pose in the loop keyframe's frame (None otherwise).
    """
    reg_cfg = registration_config(cfg, odometry)
    submap = Submap(reg_cfg)
    lo = max(0, loop_index - cfg.submap_half_width)
    hi = min(loop_index + cfg.submap_half_width, current_index - 1)
    # one insert, in window order, keeps what per-keyframe inserts would
    window = [(keyframes[i].features, latest_poses[i]) for i in range(lo, hi + 1)]
    edges = np.concatenate([pose.apply(f.edges) for f, pose in window])
    planars = np.concatenate([pose.apply(f.planars) for f, pose in window])
    submap.insert(FeatureCloud(edges, planars), Pose.identity())

    initial = latest_poses[loop_index].compose(
        Pose.from_rt(np.array([0.0, 0.0, yaw_hint]), np.zeros(3))
    )
    result = register(keyframes[current_index].features, submap, initial, reg_cfg)

    if not (result.final_cost < COST_THRESHOLD and result.converged
            and not result.degenerate):
        return None, result.final_cost
    return latest_poses[loop_index].inverse().compose(result.pose), result.final_cost


@dataclass
class LoopEvent:
    """One loop-detection attempt, for the run log."""

    from_keyframe: int
    to_keyframe: int
    d: float
    d_thre: float
    sc_distance: float
    accepted: bool
    cost: float
    millis: float
