import dataclasses

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from featslam.dataset_io import (
    FormatError,
    GroundTruthTrajectory,
    RawScan,
    export_map,
    export_trajectory,
    load_calibration,
    load_ground_truth,
    load_poses,
    load_scan,
    ring_from_elevation,
)
from featslam.geometry import Pose


def write_bin(path, rows):
    np.asarray(rows, dtype=np.float32).tofile(path)


class TestLoadScan:
    def test_two_point_decode(self, tmp_path):
        f = tmp_path / "scan.bin"
        write_bin(f, [[1.0, 2.0, 3.0, 0.5], [4.0, 5.0, 6.0, 0.25]])
        assert f.stat().st_size == 32
        scan = load_scan(f)
        assert len(scan) == 2
        np.testing.assert_allclose(scan.xyz, [[1, 2, 3], [4, 5, 6]])

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.bin"
        f.write_bytes(b"")
        scan = load_scan(f)
        assert len(scan) == 0
        assert scan.xyz.shape == (0, 3)

    def test_bad_size_reports_byte_count(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"\x00" * 18)
        with pytest.raises(FormatError, match="18"):
            load_scan(f)

    def test_nonfinite_rows_dropped_and_counted(self, tmp_path):
        f = tmp_path / "nan.bin"
        write_bin(
            f,
            [
                [1.0, 0.0, 0.0, 0.0],
                [np.nan, 0.0, 0.0, 0.0],
                [2.0, 0.0, 0.0, 0.0],
                [0.0, np.inf, 0.0, 0.0],
            ],
        )
        scan = load_scan(f)
        assert len(scan) == 2
        assert scan.dropped == 2
        np.testing.assert_allclose(scan.xyz[:, 0], [1.0, 2.0])

    def test_ring_assignment_zero_elevation(self, tmp_path):
        # elevation 0 deg, 64 lasers: floor((0+24.8)/26.8*64) = floor(59.22) = 59
        f = tmp_path / "flat.bin"
        write_bin(f, [[10.0, 0.0, 0.0, 0.0]])
        scan = load_scan(f)
        assert scan.ring[0] == 59

    def test_ring_bounds_clipped(self):
        xyz = np.array(
            [
                [1.0, 0.0, 10.0],  # way above max elevation
                [1.0, 0.0, -10.0],  # way below min elevation
            ]
        )
        ring = ring_from_elevation(xyz)
        assert ring[0] == 63
        assert ring[1] == 0

    def test_random_bytes_never_crash(self, tmp_path):
        rng = np.random.default_rng(7)
        for k in range(50):
            f = tmp_path / f"r{k}.bin"
            f.write_bytes(rng.bytes(int(rng.integers(0, 200))))
            try:
                scan = load_scan(f)
            except FormatError:
                continue
            assert np.isfinite(scan.xyz).all()


class TestRawScanShapes:
    @staticmethod
    def scan(xyz, ring):
        return RawScan(xyz=np.asarray(xyz, float), ring=np.asarray(ring, int))

    def test_ring_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"ring must have shape \(5,\), got \(4,\)"):
            self.scan(np.ones((5, 3)), [0, 1, 2, 3])
        with pytest.raises(ValueError, match=r"ring must have shape \(5,\), got \(5, 1\)"):
            self.scan(np.ones((5, 3)), np.zeros((5, 1)))

    def test_in_memory_nonfinite_rows_dropped_and_counted(self):
        xyz = np.array([[1.0, 0, 0], [np.nan, 0, 0], [2.0, 0, 0], [0, np.inf, 0],
                        [0, 0, -np.inf], [3.0, 0, 0]])
        scan = RawScan(xyz=xyz, ring=np.arange(6), dropped=1)
        assert scan.dropped == 1 + 3
        np.testing.assert_array_equal(scan.xyz[:, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(scan.ring, [0, 2, 5])
        # a copy of a clean scan keeps the count and drops nothing more
        again = dataclasses.replace(scan)
        assert again.dropped == 4 and len(again) == 3

    def test_two_column_xyz_rejected(self):
        with pytest.raises(ValueError, match=r"xyz must have shape \(N, 3\), got \(5, 2\)"):
            self.scan(np.ones((5, 2)), np.zeros(5))


class TestGroundTruth:
    def test_identity_pose_line(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        poses = load_poses(p)
        assert len(poses) == 1
        np.testing.assert_allclose(poses[0].matrix(), np.eye(4), atol=1e-12)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n\n  \n1 0 0 4 0 1 0 0 0 0 1 0\n")
        assert [pose.translation[0] for pose in load_poses(p)] == [0.0, 4.0]

    def test_wrong_token_count_reports_line(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(FormatError, match="2"):
            load_poses(p)

    @pytest.mark.parametrize("block", [
        "0 0 0 0 0 0 0 0 0",  # loaded as a half turn about x
        "2 0 0 0 2 0 0 0 2",  # loaded as the identity
        "1 0 0 0 1 0 0 0 -1",  # a reflection, loaded as the identity
        "1 0.5 0 0 1 0 0 0 1",  # a shear, loaded as a 14 deg yaw
        "nan 0 0 0 1 0 0 0 1",  # a bare ValueError from the quaternion norm
    ], ids=["zero_row", "twice_identity", "reflection", "shear", "nan"])
    def test_non_rotation_reports_line(self, tmp_path, block):
        # the 3x3 block of a pose or Tr line must be a rotation to ~1e-4
        m = block.split()
        line = " ".join(m[0:3] + ["1"] + m[3:6] + ["2"] + m[6:9] + ["3"])
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" + line + "\n")
        with pytest.raises(FormatError, match=r"poses\.txt:2: .*rotation matrix"):
            load_poses(p)
        c = tmp_path / "calib.txt"
        c.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\nTr: " + line + "\n")
        with pytest.raises(FormatError, match=r"calib\.txt:2: .*rotation matrix"):
            load_calibration(c)

    def test_seven_digit_rotation_accepted(self, tmp_path):
        # a rotation written to 7 significant digits, as KITTI's files are,
        # loads as the nearest rotation
        r = Pose.from_rt([0.3, -1.2, 0.7], np.zeros(3)).rotation
        rows = np.hstack([r, [[1.0], [2.0], [3.0]]])
        p = tmp_path / "poses.txt"
        p.write_text(" ".join(f"{v:.6e}" for v in rows.ravel()) + "\n")
        m = load_poses(p)[0].rotation
        assert np.abs(m.T @ m - np.eye(3)).max() <= 4 * np.finfo(float).eps
        assert np.abs(m - r).max() < 1e-6

    def test_calibration_tr_line(self, tmp_path):
        c = tmp_path / "calib.txt"
        c.write_text(
            "P0: 1 0 0 0 0 1 0 0 0 0 1 0\n"
            "Tr: 1 0 0 0.5 0 1 0 0 0 0 1 0.25\n"
        )
        tr = load_calibration(c)
        np.testing.assert_allclose(tr.translation, [0.5, 0.0, 0.25])

    def test_missing_tr_line(self, tmp_path):
        c = tmp_path / "calib.txt"
        c.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(FormatError):
            load_calibration(c)

    def test_continuity_guard(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text(
            "1 0 0 0 0 1 0 0 0 0 1 0\n"
            "1 0 0 99 0 1 0 0 0 0 1 0\n"  # 99 m jump
        )
        c = tmp_path / "calib.txt"
        c.write_text("Tr: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(FormatError, match="jump|continuity|5"):
            load_ground_truth(p, c)

    def test_lidar_pose_conjugation(self):
        tr = Pose.from_rt([0, 0, np.pi / 2], [1.0, 0.0, 0.0])
        cam = Pose(np.eye(3), [2.0, 0.0, 0.0])
        gt = GroundTruthTrajectory(camera_poses=[cam], calibration=tr)
        lidar = gt.lidar_poses()[0]
        expected = tr.inverse().compose(cam).compose(tr)
        np.testing.assert_allclose(lidar.matrix(), expected.matrix(), atol=1e-12)


class TestExportTrajectory:
    def test_kitti_identity_line(self, tmp_path):
        out = tmp_path / "traj.txt"
        export_trajectory([Pose.identity()], out, format="kitti")
        assert out.read_text().strip() == "1 0 0 0 0 1 0 0 0 0 1 0"

    def test_tum_identity_line(self, tmp_path):
        out = tmp_path / "traj.txt"
        t = Pose(np.eye(3), [1.0, 2.0, 3.0])
        export_trajectory([t], out, format="tum")
        assert out.read_text().strip() == "0 1 2 3 0 0 0 1"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_trajectory([Pose.identity()], tmp_path / "x.txt", format="g2o")

    @pytest.mark.parametrize("format", ["kitti", "tum"])
    def test_empty_trajectory_writes_an_empty_file(self, tmp_path, format):
        out = tmp_path / "traj.txt"
        export_trajectory([], out, format=format)
        assert out.read_bytes() == b""

    def test_every_number_to_12_significant_digits(self, tmp_path):
        rng = np.random.default_rng(4)
        poses = [Pose.from_rt(rng.uniform(-2, 2, 3), rng.uniform(-1e4, 1e4, 3) * 10.0 ** k)
                 for k in range(-8, 8)]

        def line(values):
            return " ".join(f"{v:.12g}" for v in values) + "\n"

        def quaternion(rotation):  # SciPy's (x, y, z, w), flipped to w >= 0
            q = Rotation.from_matrix(rotation).as_quat()
            return -q if q[3] < 0.0 else q

        export_trajectory(poses, tmp_path / "kitti.txt", format="kitti")
        assert (tmp_path / "kitti.txt").read_text() == "".join(
            line(p.matrix()[:3].ravel()) for p in poses)
        export_trajectory(poses, tmp_path / "tum.txt", format="tum")
        assert (tmp_path / "tum.txt").read_text() == "".join(
            f"{i} " + line([*p.translation, *quaternion(p.rotation)])
            for i, p in enumerate(poses))

    def test_round_trip_1000_poses(self, tmp_path):
        rng = np.random.default_rng(11)
        poses = []
        for _ in range(1000):
            poses.append(Pose.from_rt(rng.uniform(-2, 2, 3), rng.uniform(-100, 100, 3)))
        out = tmp_path / "traj.txt"
        export_trajectory(poses, out, format="kitti")
        loaded = load_poses(out)
        assert len(loaded) == 1000
        for a, b in zip(poses, loaded):
            np.testing.assert_allclose(a.matrix(), b.matrix(), atol=1e-6)


class TestExportMap:
    class _Cloud:
        def __init__(self, edges, planars):
            self.edges = np.asarray(edges, dtype=float).reshape(-1, 3)
            self.planars = np.asarray(planars, dtype=float).reshape(-1, 3)

    def test_empty_map(self, tmp_path):
        out = tmp_path / "map.ply"
        export_map([], out)
        text = out.read_text()
        assert "element vertex 0" in text
        assert text.startswith("ply")
        assert text.endswith("end_header\n")

    def test_single_point_transformed(self, tmp_path):
        cloud = self._Cloud([[0.0, 0.0, 0.0]], np.zeros((0, 3)))
        pose = Pose(np.eye(3), [1.0, 0.0, 0.0])
        out = tmp_path / "map.ply"
        export_map([(cloud, pose)], out)
        text = out.read_text()
        assert "element vertex 1" in text
        body = text.split("end_header\n", 1)[1].strip()
        assert body.split() == ["1", "0", "0"]

    def test_vertex_count(self, tmp_path):
        rng = np.random.default_rng(3)
        clouds = []
        total = 0
        for _ in range(4):
            e = rng.normal(size=(5, 3))
            p = rng.normal(size=(7, 3))
            total += 12
            clouds.append((self._Cloud(e, p), Pose.identity()))
        out = tmp_path / "map.ply"
        export_map(clouds, out)
        assert f"element vertex {total}" in out.read_text()
