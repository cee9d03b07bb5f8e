"""Feature-based LiDAR SLAM: odometry, Scan Context loop closure with an
adaptive distance gate, and SE(3) pose-graph optimization."""

from featslam.geometry import Pose

__version__ = "0.1.0"

__all__ = ["Pose", "__version__"]
