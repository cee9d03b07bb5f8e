"""KITTI odometry dataset loading and trajectory/map export.

Scans are the KITTI velodyne ``.bin`` layout: consecutive groups of four
little-endian float32 values (x, y, z, intensity); no stage reads the
intensity, so it is not kept.  KITTI does not store the laser ring index,
so it is reconstructed from the vertical angle, which the feature extractor
needs for per-ring neighborhoods.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from featslam.geometry import Pose

# HDL-64E lasers and vertical field of view, used for ring reconstruction.
NUM_LASERS = 64
ELEVATION_MIN_DEG = -24.8
ELEVATION_MAX_DEG = 2.0


class FormatError(ValueError):
    """Malformed dataset file."""


@dataclass
class RawScan:
    """One LiDAR sweep in the sensor frame."""

    xyz: np.ndarray  # (N, 3) float64, meters
    ring: np.ndarray  # (N,) int laser index in [0, num_lasers)
    dropped: int = 0  # non-finite points removed so far

    def __post_init__(self):
        """Check the shapes, then drop the rows whose xyz is not finite,
        with their ring, and count them in dropped."""
        shape, ring = np.shape(self.xyz), np.shape(self.ring)
        if len(shape) != 2 or shape[1] != 3:
            raise ValueError(f"scan xyz must have shape (N, 3), got {shape}")
        if ring != shape[:1]:
            raise ValueError(f"scan ring must have shape ({shape[0]},), got {ring}")
        if not np.isfinite(self.xyz).all():
            finite = np.isfinite(self.xyz).all(axis=1)
            self.xyz = self.xyz[finite]
            self.ring = self.ring[finite]
            self.dropped += int(len(finite) - finite.sum())

    def __len__(self) -> int:
        return len(self.xyz)


@dataclass
class GroundTruthTrajectory:
    """Per-frame poses in the left-camera frame plus the LiDAR->camera calib."""

    camera_poses: list[Pose]
    calibration: Pose  # Tr: LiDAR -> camera

    def __len__(self) -> int:
        return len(self.camera_poses)

    def lidar_poses(self) -> list[Pose]:
        """Trajectory expressed in the LiDAR frame: inv(Tr) . T_cam . Tr."""
        tr_inv = self.calibration.inverse()
        return [tr_inv.compose(p).compose(self.calibration) for p in self.camera_poses]


def ring_from_elevation(xyz: np.ndarray) -> np.ndarray:
    """Quantize vertical angles onto NUM_LASERS uniform bins over the HDL-64E
    elevation span; out-of-span angles clip to the boundary rings."""
    elev = np.degrees(np.arctan2(xyz[:, 2], np.hypot(xyz[:, 0], xyz[:, 1])))
    span = ELEVATION_MAX_DEG - ELEVATION_MIN_DEG
    ring = np.floor((elev - ELEVATION_MIN_DEG) / span * NUM_LASERS)
    # a NaN elevation (a point RawScan drops) becomes ring 0, not a bad cast
    return np.clip(np.nan_to_num(ring), 0, NUM_LASERS - 1).astype(int)


def check_scan_file(path: str | os.PathLike) -> None:
    """Raise OSError unless the file opens for reading, and FormatError
    unless its size is a whole number of 16-byte (x, y, z, intensity)
    points."""
    with open(path, "rb") as f:
        nbytes = os.fstat(f.fileno()).st_size
    if nbytes % 16 != 0:
        raise FormatError(f"{path}: size {nbytes} bytes is not a multiple of 16")


def load_scan(path: str | os.PathLike) -> RawScan:
    """Decode a KITTI velodyne .bin file; rings are the NUM_LASERS bins of
    the HDL-64E elevation span.

    Points with a non-finite coordinate are dropped by RawScan (KITTI
    contains stray returns); the number removed is reported on the scan.
    """
    check_scan_file(path)
    pts = np.fromfile(path, dtype="<f4").reshape(-1, 4)
    xyz = pts[:, :3].astype(np.float64)
    return RawScan(xyz=xyz, ring=ring_from_elevation(xyz))


def _parse_pose_line(tokens: list[str], lineno: int, path: str) -> Pose:
    if len(tokens) != 12:
        raise FormatError(f"{path}:{lineno}: expected 12 values, got {len(tokens)}")
    # a token that is not a number, or a 3x3 block that is not a rotation
    try:
        return Pose.from_matrix(np.array([float(t) for t in tokens]).reshape(3, 4))
    except ValueError as e:
        raise FormatError(f"{path}:{lineno}: {e}") from e


def load_poses(path: str | os.PathLike) -> list[Pose]:
    """Read a KITTI-format pose file (12 numbers per line, row-major 3x4)."""
    poses = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            tokens = line.split()
            if not tokens:
                continue
            poses.append(_parse_pose_line(tokens, lineno, str(path)))
    return poses


def load_calibration(path: str | os.PathLike) -> Pose:
    """Extract the 'Tr:' (LiDAR -> camera) transform from a KITTI calib.txt."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if line.startswith("Tr:") or line.startswith("Tr "):
                return _parse_pose_line(line.split()[1:], lineno, str(path))
    raise FormatError(f"{path}: no 'Tr:' line found")


def load_ground_truth(
    poses_path: str | os.PathLike, calib_path: str | os.PathLike
) -> GroundTruthTrajectory:
    poses = load_poses(poses_path)
    calib = load_calibration(calib_path)
    for i in range(1, len(poses)):
        step = np.linalg.norm(poses[i].translation - poses[i - 1].translation)
        if step >= 5.0:
            raise FormatError(
                f"{poses_path}: discontinuous ground truth at frame {i} "
                f"(step {step:.2f} m)"
            )
    return GroundTruthTrajectory(camera_poses=poses, calibration=calib)


def _quaternion(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z), w >= 0, of a rotation matrix by
    Shepperd's method: the row of 4 q q^T with the largest diagonal entry."""
    t = np.trace(m)
    k = np.array([
        [1.0 + t, m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]],
        [m[2, 1] - m[1, 2], 1.0 + 2.0 * m[0, 0] - t, m[0, 1] + m[1, 0], m[0, 2] + m[2, 0]],
        [m[0, 2] - m[2, 0], m[0, 1] + m[1, 0], 1.0 + 2.0 * m[1, 1] - t, m[1, 2] + m[2, 1]],
        [m[1, 0] - m[0, 1], m[0, 2] + m[2, 0], m[1, 2] + m[2, 1], 1.0 + 2.0 * m[2, 2] - t],
    ])
    q = k[np.argmax(np.diag(k))]
    q = q / np.linalg.norm(q)
    return -q if q[0] < 0.0 else q


def export_trajectory(
    trajectory: list[Pose], path: str | os.PathLike, format: str = "kitti"
) -> None:
    """Write poses as KITTI (row-major 3x4) or TUM (index tx ty tz qx qy qz qw),
    one line per pose and every number to 12 significant digits."""
    if format == "kitti":
        rows = [pose.matrix()[:3, :].reshape(-1) for pose in trajectory]
        np.savetxt(path, np.reshape(rows, (-1, 12)), fmt="%.12g")
    elif format == "tum":
        # _quaternion gives (w, x, y, z); TUM puts w last
        rows = [[i, *pose.translation, *_quaternion(pose.rotation)[[1, 2, 3, 0]]]
                for i, pose in enumerate(trajectory)]
        np.savetxt(path, np.reshape(rows, (-1, 8)), fmt=["%d"] + ["%.12g"] * 7)
    else:
        raise ValueError(f"unknown trajectory format {format!r}")


def export_map(clouds, path: str | os.PathLike) -> None:
    """Write feature clouds, transformed to the global frame, as ASCII PLY.

    clouds: iterable of (FeatureCloud, Pose) pairs.
    """
    allpts = np.concatenate([np.zeros((0, 3))] + [
        pose.apply(pts) for cloud, pose in clouds for pts in (cloud.edges, cloud.planars)
    ])
    with open(path, "w") as f:
        f.write(
            "ply\nformat ascii 1.0\n"
            f"element vertex {len(allpts)}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        np.savetxt(f, allpts, fmt="%.12g")
