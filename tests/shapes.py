"""Poses and feature clouds that several test modules build.

``tests/test_acceptance.py`` keeps its own copies, so that it reads alone.
"""

import numpy as np

from featslam.features import FeatureCloud
from featslam.geometry import Pose


def translate(x, y, z):
    return Pose(np.eye(3), [x, y, z])


def rotz(deg):
    return Pose.from_rt([0, 0, np.radians(deg)], np.zeros(3))


def grid(xs, ys, zs):
    g = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


def corner_cloud():
    """Two perpendicular walls, a floor, and three vertical edge lines.

    Surfaces avoid passing through the origin so the n.p = -1 plane
    parametrization is well posed everywhere, and are separated by more
    than the 5-NN radius so neighborhoods never straddle two planes.
    """
    step = 0.35
    wall_a = grid(np.arange(-1.0, 7, step), [-3.0], np.arange(-1.8, 1.2, step))
    wall_b = grid([-3.0], np.arange(-1.0, 7, step), np.arange(-1.8, 1.2, step))
    floor = grid(np.arange(-1.0, 7, 0.5), np.arange(-1.0, 7, 0.5), [-1.8])
    planars = np.vstack([wall_a, wall_b, floor])
    zline = np.arange(-1.8, 1.2, 0.12)
    edges = np.vstack(
        [
            np.stack([np.full_like(zline, -3.0), np.full_like(zline, -3.0), zline], 1),
            np.stack([np.full_like(zline, 6.65), np.full_like(zline, -3.0), zline], 1),
            np.stack([np.full_like(zline, -3.0), np.full_like(zline, 6.65), zline], 1),
        ]
    )
    return FeatureCloud(edges=edges, planars=planars)
