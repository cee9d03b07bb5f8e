"""Classic point-to-point ICP, the dense baseline the paper's loop-timing
claim is measured against (tests/test_acceptance.py).  No run calls it, so
it lives with the tests, not in the package."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from featslam.geometry import Pose, project_rotation


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

