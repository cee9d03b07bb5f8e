import numpy as np
import pytest

import loop_reference as ref
from featslam import scan_context
from featslam.features import FeatureCloud
from featslam.scan_context import (
    EMPTY_BIN,
    ScanContextConfig,
    ScanContextDescriptor,
    build_descriptor,
    descriptor_distance,
    query,
    shift_to_yaw,
)

CFG = ScanContextConfig()


def cloud(points, edges=0):
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return FeatureCloud(edges=pts[:edges], planars=pts[edges:])


def random_cloud(rng, n=300, safe_bins=True):
    """Random points; optionally placed at bin centers so yaw shifts are exact."""
    cfg = ScanContextConfig()
    if safe_bins:
        ring = rng.integers(0, scan_context.NUM_RINGS, n)
        sector = rng.integers(0, cfg.num_sectors, n)
        rho = (ring + 0.5) * scan_context.MAX_RADIUS / scan_context.NUM_RINGS
        az = -np.pi + (sector + 0.5) * 2 * np.pi / cfg.num_sectors
    else:
        rho = rng.uniform(1, 79, n)
        az = rng.uniform(-np.pi, np.pi, n)
    z = rng.uniform(-1.5, 4.0, n)
    pts = np.stack([rho * np.cos(az), rho * np.sin(az), z], 1)
    return FeatureCloud(edges=pts[: n // 4], planars=pts[n // 4:])


class TestBuildDescriptor:
    def test_empty_cloud(self):
        d = build_descriptor(cloud(np.zeros((0, 3))), CFG)
        assert (d.matrix == EMPTY_BIN).all()
        assert (d.ring_key == 0).all()

    def test_single_point_binning(self):
        d = build_descriptor(cloud([[10.0, 0.0, 1.0]]), CFG)
        assert d.matrix[2, 30] == 1.0
        occupied = d.matrix > EMPTY_BIN
        assert occupied.sum() == 1

    def test_max_rule(self):
        d = build_descriptor(cloud([[10.0, 0.0, 1.0], [10.0, 0.0, 3.0]]), CFG)
        assert d.matrix[2, 30] == 3.0

    def test_negative_heights_kept(self):
        d = build_descriptor(cloud([[10.0, 0.0, -1.5]]), CFG)
        assert d.matrix[2, 30] == -1.5

    def test_beyond_max_radius_discarded(self):
        d = build_descriptor(cloud([[85.0, 0.0, 1.0]]), CFG)
        assert (d.matrix == EMPTY_BIN).all()

    @pytest.mark.parametrize("num_rings, max_radius", [(19, 90.0), (17, 70.0), (39, 80.0)])
    def test_range_just_inside_max_radius_lands_in_the_last_ring(self, monkeypatch, num_rings,
                                                                 max_radius):
        # rho / (MAX_RADIUS / NUM_RINGS) rounds up to NUM_RINGS for these
        monkeypatch.setattr(scan_context, "NUM_RINGS", num_rings)
        monkeypatch.setattr(scan_context, "MAX_RADIUS", max_radius)
        rho = np.nextafter(max_radius, 0.0)
        assert np.floor(rho / (max_radius / num_rings)) == num_rings
        d = build_descriptor(cloud([[rho, 0.0, 1.5]]), CFG)
        assert d.matrix[num_rings - 1, CFG.num_sectors // 2] == 1.5
        assert (d.matrix > EMPTY_BIN).sum() == 1

    def test_ring_key_occupancy(self):
        d = build_descriptor(cloud([[10.0, 0.0, 1.0]]), CFG)
        assert d.ring_key[2] == pytest.approx(1.0 / 60.0)
        assert d.ring_key.sum() == pytest.approx(1.0 / 60.0)

    def test_pools_edges_and_planars(self):
        pts = [[10.0, 0.0, 1.0], [0.0, 10.0, 2.0]]
        d = build_descriptor(cloud(pts, edges=1), CFG)
        assert (d.matrix > EMPTY_BIN).sum() == 2


class TestDescriptorDistance:
    def test_self_distance_zero(self):
        d = build_descriptor(random_cloud(np.random.default_rng(0)), CFG)
        dist, shift = descriptor_distance(d, d)
        assert dist == 0.0
        assert shift == 0

    def test_recovers_cyclic_shift(self):
        d = build_descriptor(random_cloud(np.random.default_rng(1)), CFG)
        shifted = ScanContextDescriptor(
            np.roll(d.matrix, 7, axis=1), d.ring_key.copy()
        )
        dist, shift = descriptor_distance(d, shifted)
        assert dist == 0.0
        assert shift == 7

    def test_disjoint_columns_max_distance(self):
        cfg = ScanContextConfig()
        a = np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN)
        b = np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN)
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        da = ScanContextDescriptor(a, (a > EMPTY_BIN).mean(1))
        db = ScanContextDescriptor(b, (b > EMPTY_BIN).mean(1))
        # at any shift, each occupied column faces an empty one... except
        # the shift aligning them; distance at that shift is 0
        dist, shift = descriptor_distance(da, db)
        assert dist == 0.0
        assert shift == 1

    def test_no_shared_structure_at_any_shift(self):
        cfg = ScanContextConfig()
        a = np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN)
        b = np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN)
        a[0, :] = 1.0  # ring 0 occupied everywhere
        b[10, :] = 1.0  # ring 10 occupied everywhere: orthogonal columns
        da = ScanContextDescriptor(a, (a > EMPTY_BIN).mean(1))
        db = ScanContextDescriptor(b, (b > EMPTY_BIN).mean(1))
        dist, _ = descriptor_distance(da, db)
        assert dist == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = build_descriptor(random_cloud(rng), CFG)
            b = build_descriptor(random_cloud(rng), CFG)
            dab, _ = descriptor_distance(a, b)
            dba, _ = descriptor_distance(b, a)
            assert abs(dab - dba) < 1e-12

    def test_dimension_mismatch_rejected(self):
        a = build_descriptor(cloud([[10.0, 0.0, 1.0]]), CFG)
        small = ScanContextConfig(num_sectors=30)
        b = build_descriptor(cloud([[10.0, 0.0, 1.0]]), small)
        with pytest.raises(ValueError):
            descriptor_distance(a, b)

    def test_distance_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = build_descriptor(random_cloud(rng, safe_bins=False), CFG)
            b = build_descriptor(random_cloud(rng, safe_bins=False), CFG)
            dist, shift = descriptor_distance(a, b)
            assert 0.0 <= dist <= 1.0
            assert 0 <= shift < 60


class TestYawEquivariance:
    def test_rotation_equals_column_shift(self):
        rng = np.random.default_rng(4)
        cfg = ScanContextConfig()
        for k in (1, 7, 33, 59):
            fc = random_cloud(rng)
            base = build_descriptor(fc, CFG)
            ang = k * 2 * np.pi / cfg.num_sectors
            c, s = np.cos(ang), np.sin(ang)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            turned = FeatureCloud(
                edges=fc.edges @ rot.T, planars=fc.planars @ rot.T
            )
            rotated = build_descriptor(turned, CFG)
            assert np.array_equal(rotated.matrix, np.roll(base.matrix, k, axis=1))
            dist, shift = descriptor_distance(base, rotated)
            assert dist == 0.0
            assert shift == k


class TestQuery:
    """``database[i]`` is keyframe i and the probe is keyframe
    ``len(database)``; keyframes within ``exclude_recent`` of it are skipped."""

    def test_empty_store(self):
        probe = build_descriptor(random_cloud(np.random.default_rng(0)), CFG)
        assert query([], probe, CFG) is None

    def test_exact_copy_found(self):
        rng = np.random.default_rng(5)
        fc = random_cloud(rng)
        store = [build_descriptor(random_cloud(rng), CFG) for _ in range(100)]
        store[5] = build_descriptor(fc, CFG)
        probe = build_descriptor(fc, CFG)
        match = query(store, probe, CFG)
        assert match is not None
        assert match.candidate_keyframe_index == 5
        assert type(match.candidate_keyframe_index) is int
        assert match.descriptor_distance == 0.0

    def test_recent_keyframes_excluded(self):
        rng = np.random.default_rng(6)
        fc = random_cloud(rng)
        empty = build_descriptor(cloud(np.zeros((0, 3))), CFG)
        store = [empty] * 100  # the probe is keyframe 100
        store[50] = build_descriptor(fc, CFG)
        probe = build_descriptor(fc, CFG)
        assert query(store, probe, CFG) is None  # 50 is not older than 100-50
        store[49] = store[50]
        match = query(store, probe, CFG)
        assert match is not None
        assert match.candidate_keyframe_index == 49

    def test_never_returns_recent(self):
        rng = np.random.default_rng(7)
        store = [build_descriptor(random_cloud(rng, n=80), CFG) for _ in range(120)]
        for probe_idx in (60, 90, 119):
            probe = build_descriptor(random_cloud(rng, n=80), CFG)
            match = query(store[:probe_idx], probe, CFG)
            if match is not None:
                assert match.candidate_keyframe_index < probe_idx - 50

    def test_noisy_copy_beats_brute_force(self):
        rng = np.random.default_rng(8)
        cfg = ScanContextConfig()
        clouds = [random_cloud(rng, n=250, safe_bins=False) for _ in range(100)]
        store = [build_descriptor(fc, cfg) for fc in clouds]
        target = clouds[17]
        noisy = FeatureCloud(
            edges=target.edges + [0, 0, 1] * rng.normal(0, 0.05, (len(target.edges), 1)),
            planars=target.planars
            + [0, 0, 1] * rng.normal(0, 0.05, (len(target.planars), 1)),
        )
        probe = build_descriptor(noisy, cfg)
        match = query(store, probe, cfg)
        assert match is not None
        assert match.candidate_keyframe_index == 17
        # independent brute-force oracle over the full store
        dists = [descriptor_distance(probe, d)[0] for d in store]
        assert int(np.argmin(dists)) == 17

    def test_first_of_tied_candidates_in_ring_key_order(self):
        rng = np.random.default_rng(9)
        probe = build_descriptor(random_cloud(rng), CFG)
        store = [build_descriptor(random_cloud(rng), CFG) for _ in range(100)]
        store[10] = store[40] = probe
        assert query(store, probe, CFG).candidate_keyframe_index == 10
        # keyframe 10's twin with a farther ring key now follows keyframe 40
        store[10] = ScanContextDescriptor(probe.matrix, probe.ring_key + 1e-3)
        assert query(store, probe, CFG).candidate_keyframe_index == 40

    def test_one_scorer_call_per_query(self, monkeypatch):
        calls = []

        def spy(a, b):
            calls.append(b.matrix.shape)
            return descriptor_distance(a, b)

        monkeypatch.setattr(scan_context, "descriptor_distance", spy)
        rng = np.random.default_rng(10)
        store = [build_descriptor(random_cloud(rng, n=80), CFG) for _ in range(60)]
        for k in range(len(store) + 1):  # keyframes 0-49 have none eligible
            query(store[:k], store[k % len(store)], CFG)
        shape = (scan_context.NUM_RINGS, CFG.num_sectors)
        assert calls == [(min(k - 50, 10), *shape) for k in range(51, 61)]


class TestShiftToYaw:
    def test_wrap_past_half_turn(self):
        n = 60
        step = 2 * np.pi / n
        assert shift_to_yaw(0, n) == 0.0
        assert shift_to_yaw(1, n) == pytest.approx(step)
        assert shift_to_yaw(30, n) == pytest.approx(np.pi)  # half turn stays positive
        assert shift_to_yaw(31, n) == pytest.approx(-29 * step)
        assert shift_to_yaw(59, n) == pytest.approx(-step)

    def test_recovers_sensor_yaw(self):
        # a sensor yawed by +yaw sees the world rotated by -yaw; the matching
        # column shift must convert back to the signed sensor yaw
        rng = np.random.default_rng(11)
        cfg = ScanContextConfig()
        step = 2 * np.pi / cfg.num_sectors
        fc = random_cloud(rng)
        base = build_descriptor(fc, CFG)
        for k in (3, 28, 45):
            yaw = k * step
            c, s = np.cos(-yaw), np.sin(-yaw)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            seen = FeatureCloud(edges=fc.edges @ rot.T, planars=fc.planars @ rot.T)
            probe = build_descriptor(seen, CFG)
            _, shift = descriptor_distance(probe, base)
            expected = (yaw + np.pi) % (2 * np.pi) - np.pi
            assert shift_to_yaw(shift, cfg.num_sectors) == pytest.approx(expected)



def descriptor(matrix):
    return ScanContextDescriptor(matrix, (matrix > EMPTY_BIN).mean(1))


class TestMatchesLoopReference:
    """Scoring every shift at once agrees with the per-shift loop."""

    def assert_matches(self, a, b):
        dist, shift = descriptor_distance(a, b)
        ref_dist, ref_shift = ref.descriptor_distance(a, b)
        assert shift == ref_shift
        assert abs(dist - ref_dist) <= 1e-15
        return dist, shift

    def test_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(120):
            a, b = (
                build_descriptor(
                    random_cloud(rng, n=int(rng.integers(1, 400)), safe_bins=False), CFG
                )
                for _ in range(2)
            )
            self.assert_matches(a, b)
        cfg = ScanContextConfig()
        for _ in range(100):  # sparse matrices with exact-zero columns and heights
            pair = []
            for _ in range(2):
                m = np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN)
                hit = rng.random(m.shape) < rng.uniform(0.02, 0.5)
                m[hit] = np.round(rng.uniform(-1.0, 3.0, hit.sum()), 1)
                pair.append(descriptor(m))
            self.assert_matches(*pair)

    def test_shifted_twins(self):
        rng = np.random.default_rng(14)
        for k in (0, 1, 29, 30, 59):
            d = build_descriptor(random_cloud(rng, safe_bins=False), CFG)
            twin = ScanContextDescriptor(np.roll(d.matrix, k, axis=1), d.ring_key)
            assert self.assert_matches(d, twin) == (0.0, k)

    def test_first_minimal_shift_wins(self):
        # a pattern repeating every 20 columns matches its twin at 3 shifts
        rng = np.random.default_rng(16)
        cfg = ScanContextConfig()
        tile = np.where(rng.random((scan_context.NUM_RINGS, 20)) < 0.3, 1.5, EMPTY_BIN)
        d = descriptor(np.tile(tile, (1, cfg.num_sectors // 20)))
        twin = descriptor(np.roll(d.matrix, 27, axis=1))
        assert self.assert_matches(d, twin) == (0.0, 7)

    def test_empty_descriptors(self):
        cfg = ScanContextConfig()
        empty = descriptor(np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN))
        full = build_descriptor(random_cloud(np.random.default_rng(15)), CFG)
        assert self.assert_matches(empty, empty) == (1.0, 0)
        assert self.assert_matches(full, empty) == (1.0, 0)
        assert self.assert_matches(empty, full) == (1.0, 0)

    def test_orthogonal_columns(self):
        cfg = ScanContextConfig()
        a = np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN)
        b = a.copy()
        a[0, ::2] = 1.0
        b[10, 1::3] = 2.0
        assert self.assert_matches(descriptor(a), descriptor(b)) == (1.0, 0)

    def test_stack_of_candidates(self):
        # one call scores a (2, 4) stack; each element is its pair's score
        rng = np.random.default_rng(17)
        cfg = ScanContextConfig()
        probe = build_descriptor(random_cloud(rng, safe_bins=False), CFG)
        matrices = [build_descriptor(random_cloud(rng, safe_bins=False), CFG).matrix
                    for _ in range(6)]
        matrices += [np.full((scan_context.NUM_RINGS, cfg.num_sectors), EMPTY_BIN),
                     np.roll(probe.matrix, 11, axis=1)]
        stack = np.stack(matrices).reshape(2, 4, scan_context.NUM_RINGS, cfg.num_sectors)
        dist, shift = descriptor_distance(
            probe, ScanContextDescriptor(stack, (stack > EMPTY_BIN).mean(-1)))
        assert dist.shape == shift.shape == (2, 4)
        for idx in np.ndindex(2, 4):
            ref_dist, ref_shift = ref.descriptor_distance(probe, descriptor(stack[idx]))
            assert shift[idx] == ref_shift
            assert abs(dist[idx] - ref_dist) <= 1e-15
        assert (dist[1, 2], shift[1, 2]) == (1.0, 0)  # the all-empty candidate
        assert (dist[1, 3], shift[1, 3]) == (0.0, 11)  # the shifted twin
        narrow = stack[0, :, :, 1:]
        with pytest.raises(ValueError):
            descriptor_distance(probe, ScanContextDescriptor(narrow, narrow.mean(-1)))
