"""Loop candidate gating and loop relative-pose estimation.

A descriptor match is only trusted when the two poses are already within an
adaptive distance gate that widens as the trajectory (and hence accumulated
drift) grows. Accepted candidates are refined by registering the current
feature cloud against a submap assembled around the loop keyframe.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .features import FeatureCloud
from .geometry import Pose
from .odometry import OdometryConfig, Submap, register
from .scan_context import ScanContextConfig


@dataclass
class AdaptiveGateConfig:
    base_threshold: float = 20.0  # meters
    n: float = 100.0  # trajectory-length divisor: gate widens by 1 m per n keyframes

    def __post_init__(self):
        if not self.base_threshold > 0:
            raise ValueError("base_threshold must be positive")
        if not self.n > 0:
            raise ValueError("n must be positive")


def _loop_odometry_config() -> OdometryConfig:
    return OdometryConfig(max_iterations=50)


@dataclass
class LoopClosureConfig:
    gate: AdaptiveGateConfig = field(default_factory=AdaptiveGateConfig)
    scan_context: ScanContextConfig = field(default_factory=ScanContextConfig)
    registration: OdometryConfig = field(default_factory=_loop_odometry_config)
    submap_half_width: int = 10  # keyframes on each side of the loop frame
    cost_threshold: float = 0.3  # mean |residual| (m) to accept a loop
    keyframe_translation: float = 1.0  # m
    keyframe_rotation_deg: float = 10.0

    def __post_init__(self):
        for name in ("submap_half_width", "keyframe_translation", "keyframe_rotation_deg"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.cost_threshold > 0:
            raise ValueError(f"cost_threshold must be > 0, got {self.cost_threshold}")


@dataclass
class LoopConstraint:
    from_keyframe: int
    to_keyframe: int
    relative_pose: Pose  # current expressed in the loop frame
    registration_cost: float
    accepted: bool

    def __post_init__(self):
        if self.from_keyframe <= self.to_keyframe:
            raise ValueError("loop constraint must point backward in time")


@dataclass
class Keyframe:
    index: int  # keyframe index (descriptor/graph node id)
    frame_index: int  # raw scan index
    features: FeatureCloud  # sensor frame
    odometry_pose: Pose


@dataclass
class KeyframeStore:
    keyframes: List[Keyframe] = field(default_factory=list)

    def append(self, kf: Keyframe):
        self.keyframes.append(kf)

    def __len__(self):
        return len(self.keyframes)

    def __getitem__(self, i) -> Keyframe:
        return self.keyframes[i]


def is_new_keyframe(
    last: Pose, current: Pose, config: Optional[LoopClosureConfig] = None
) -> bool:
    """Promote when motion since the last keyframe exceeds 1 m or 10 deg."""
    cfg = config or LoopClosureConfig()
    rel = last.inverse().compose(current)
    if np.linalg.norm(rel.translation) > cfg.keyframe_translation:
        return True
    return np.degrees(rel.rotation.angle()) > cfg.keyframe_rotation_deg


def gate_distance(t_k: Pose, t_loop: Pose) -> float:
    rel = t_loop.inverse().compose(t_k)
    return float(np.linalg.norm(rel.translation))


def adaptive_threshold(k: int, cfg: Optional[AdaptiveGateConfig] = None) -> float:
    cfg = cfg or AdaptiveGateConfig()
    return cfg.base_threshold + k / cfg.n


def estimate_loop_pose(
    current_features: FeatureCloud,
    current_index: int,
    store: KeyframeStore,
    loop_index: int,
    latest_poses: Sequence[Pose],
    config: Optional[LoopClosureConfig] = None,
    yaw_hint: float = 0.0,
) -> LoopConstraint:
    """Register the current cloud against a submap around the loop keyframe.

    latest_poses holds the best-known global pose per keyframe (optimized
    where available, odometry otherwise). The current frame starts at the
    loop frame's pose rotated by yaw_hint (the descriptor column shift):
    a recognized place is a better initial guess than the drift-bearing
    odometry chain, and it is independent of how far odometry has wandered.
    """
    cfg = config or LoopClosureConfig()
    submap = Submap(cfg.registration)
    lo = max(0, loop_index - cfg.submap_half_width)
    hi = min(loop_index + cfg.submap_half_width, current_index - 1, len(store) - 1)
    for i in range(lo, hi + 1):
        submap.insert(store[i].features, latest_poses[i])

    initial = latest_poses[loop_index].compose(
        Pose.from_rt(np.array([0.0, 0.0, yaw_hint]), np.zeros(3))
    )
    result = register(current_features, submap, initial, cfg.registration)

    relative = latest_poses[loop_index].inverse().compose(result.pose)
    accepted = (
        result.final_cost < cfg.cost_threshold
        and result.converged
        and not result.degenerate
    )
    return LoopConstraint(
        from_keyframe=current_index,
        to_keyframe=loop_index,
        relative_pose=relative,
        registration_cost=result.final_cost,
        accepted=accepted,
    )


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

