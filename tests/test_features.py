import warnings

import numpy as np
import pytest

import loop_reference as ref
from featslam import features
from featslam.dataset_io import RawScan
from featslam.features import FeatureConfig, _ring_segments, extract_features
from featslam.geometry import Pose
from featslam.simulate import generate_world

CFG = FeatureConfig()


def make_scan(xyz, ring=None):
    xyz = np.asarray(xyz, dtype=float)
    if ring is None:
        ring = np.zeros(len(xyz), dtype=int)
    return RawScan(xyz=xyz, ring=np.asarray(ring, dtype=int))


def gear_ring(n=360, r_low=10.0, r_high=14.0, teeth=6, z=0.0, phase=1e-3):
    """Full-circle ring whose radius alternates every (pi/teeth) radians."""
    theta = np.linspace(-np.pi, np.pi, n, endpoint=False) + phase
    tooth = np.floor((theta + np.pi) / (np.pi / teeth)).astype(int) % 2
    r = np.where(tooth == 0, r_low, r_high)
    return np.stack([r * np.cos(theta), r * np.sin(theta), np.full(n, z)], axis=1)


class TestComputeSmoothness:
    def test_hand_computed_corner(self):
        # window sum minus 5*p_i = (-3, 3, 0); |p_i| = 4
        pts = np.array([(2, 0, 0), (3, 0, 0), (4, 0, 0), (4, 1, 0), (4, 2, 0)], float)
        sigma = ref.compute_smoothness(pts, 2, 2)
        assert sigma == pytest.approx(np.sqrt(18.0) / 16.0, abs=1e-12)

    def test_straight_line_is_smooth(self):
        pts = np.array([(2 + k, 1, 0) for k in range(5)], float)
        assert ref.compute_smoothness(pts, 2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_min_range_returns_none(self):
        pts = np.array([(0.5 + 0.1 * k, 0, 0) for k in range(5)], float)
        assert ref.compute_smoothness(pts, 2, 2, min_range=2.0) is None

    def test_window_must_fit(self):
        pts = np.zeros((5, 3))
        with pytest.raises(IndexError):
            ref.compute_smoothness(pts, 1, 2)
        with pytest.raises(IndexError):
            ref.compute_smoothness(pts, 3, 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(3, 8, size=(11, 3))
        a = ref.compute_smoothness(pts, 5, 5)
        b = ref.compute_smoothness(pts * 4.0, 5, 5)
        assert a == pytest.approx(b, rel=1e-12)


class TestExtractFeatures:
    def test_empty_scan(self):
        fc = extract_features(make_scan(np.zeros((0, 3))), CFG)
        assert len(fc.edges) + len(fc.planars) == 0
        assert fc.edges.shape == (0, 3)
        assert fc.planars.shape == (0, 3)

    def test_gear_ring_budgets_saturate(self):
        fc = extract_features(make_scan(gear_ring()), CFG)
        # 6 sectors x (2 edges, 4 planars), one ring
        assert len(fc.edges) == 12
        assert len(fc.planars) == 24

    def test_features_are_scan_members(self):
        scan = make_scan(gear_ring())
        fc = extract_features(scan, CFG)
        rows = {tuple(p) for p in scan.xyz}
        for p in np.vstack([fc.edges, fc.planars]):
            assert tuple(p) in rows

    def test_edges_sit_near_radius_steps(self):
        xyz = gear_ring()
        fc = extract_features(make_scan(xyz), CFG)
        radius = np.hypot(fc.edges[:, 0], fc.edges[:, 1])
        theta = np.arctan2(fc.edges[:, 1], fc.edges[:, 0])
        # each edge within 2 samples (2 deg) of a 30-deg step boundary
        frac = (theta + np.pi) % (np.pi / 6)
        dist = np.minimum(frac, np.pi / 6 - frac)
        assert (dist < np.radians(2.5)).all()

    def test_planars_avoid_radius_steps(self):
        fc = extract_features(make_scan(gear_ring()), CFG)
        theta = np.arctan2(fc.planars[:, 1], fc.planars[:, 0])
        frac = (theta + np.pi) % (np.pi / 6)
        dist = np.minimum(frac, np.pi / 6 - frac)
        assert (dist > np.radians(3.0)).all()

    def test_rotation_equivariance_at_sector_multiples(self):
        # a 60-deg-periodic radial wobble breaks smoothness ties between
        # arc points while keeping the world congruent under the rotation
        xyz = gear_ring(phase=0.004321)
        theta = np.arctan2(xyz[:, 1], xyz[:, 0])
        rho = np.hypot(xyz[:, 0], xyz[:, 1]) + 0.15 * np.sin(6 * theta + 0.7)
        xyz = np.stack([rho * np.cos(theta), rho * np.sin(theta), xyz[:, 2]], axis=1)
        rot = Pose.from_rt([0, 0, 2 * np.pi / features.NUM_SECTORS], np.zeros(3)).rotation
        fc0 = extract_features(make_scan(xyz), CFG)
        fc1 = extract_features(make_scan(xyz @ rot.T), CFG)

        def canon(pts):
            return sorted(tuple(np.round(p, 9)) for p in pts)

        assert canon(fc0.edges @ rot.T) == canon(fc1.edges)
        assert canon(fc0.planars @ rot.T) == canon(fc1.planars)

    def test_range_gating(self):
        # all points closer than min_range: nothing selected
        fc = extract_features(make_scan(gear_ring(r_low=0.5, r_high=0.7)), CFG)
        assert len(fc.edges) + len(fc.planars) == 0
        # all points beyond max_range: nothing selected
        fc = extract_features(make_scan(gear_ring(r_low=95.0, r_high=133.0)), CFG)
        assert len(fc.edges) + len(fc.planars) == 0

    def test_tiny_ring_skipped(self):
        # fewer points than one window: no features, no crash
        fc = extract_features(make_scan(gear_ring(n=9)), CFG)
        assert len(fc.edges) + len(fc.planars) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, planars", [
        (3, 0), (6, 0), (8, 0), (10, 0), (11, 1), (12, 2), (15, 4),
    ])
    def test_short_open_segment(self, n, planars):
        # a 60-deg arc is one open segment; shorter than a window (11
        # points) it has no window centre, and extraction must stop there
        theta = np.linspace(0.0, np.pi / 3, n)
        xyz = np.stack([10.0 * np.cos(theta), 10.0 * np.sin(theta), np.zeros(n)], axis=1)
        fc = extract_features(make_scan(xyz), CFG)
        assert len(fc.edges) == 0
        assert len(fc.planars) == planars

    def test_edge_neighbor_suppression(self):
        xyz = gear_ring(n=720)
        scan = make_scan(xyz)
        fc = extract_features(scan, CFG)
        index_of = {tuple(p): i for i, p in enumerate(xyz)}
        idx = sorted(index_of[tuple(p)] for p in fc.edges)
        hw = features.NEIGHBORHOOD_HALF_WIDTH
        n = len(xyz)
        for a, b in zip(idx, idx[1:] + [idx[0] + n]):
            assert (b - a) > hw

    def test_rings_scored_independently(self):
        lower = gear_ring(z=-1.0)
        upper = gear_ring(z=3.0)
        xyz = np.vstack([lower, upper])
        ring = np.r_[np.zeros(len(lower), int), np.ones(len(upper), int)]
        fc = extract_features(make_scan(xyz, ring), CFG)
        assert len(fc.edges) == 24
        assert len(fc.planars) == 48

    def test_open_segment_after_dropout(self):
        # remove a 90-deg wedge: the ring must split and endpoints stay
        # unscored rather than wrapping across the hole
        xyz = gear_ring(n=720)
        theta = np.arctan2(xyz[:, 1], xyz[:, 0])
        keep = ~((theta > 0.3) & (theta < 0.3 + np.pi / 2))
        fc = extract_features(make_scan(xyz[keep]), CFG)
        assert len(fc.edges) > 0
        # no feature may sit hard against the hole boundary
        th = np.arctan2(fc.planars[:, 1], fc.planars[:, 0])
        assert not ((th > 0.29) & (th < 0.31)).any()

    def test_matches_reference_smoothness_open_segment(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(3, 9, size=(40, 3))
        sigma, scorable = ref.segment_smoothness(pts, 5, cyclic=False)
        for i in range(5, 35):
            assert scorable[i]
            assert sigma[i] == pytest.approx(
                ref.compute_smoothness(pts, i, 5), rel=1e-12
            )
        assert not scorable[:5].any() and not scorable[-5:].any()

    def test_matches_reference_smoothness_cyclic(self):
        pts = gear_ring(n=120)
        sigma, scorable = ref.segment_smoothness(pts, 5, cyclic=True)
        assert scorable.all()
        # cyclic window at i=0 equals list semantics on a rolled copy
        rolled = np.roll(pts, 5, axis=0)
        assert sigma[0] == pytest.approx(
            ref.compute_smoothness(rolled, 5, 5), rel=1e-12
        )

    def test_nonfinite_rows_dropped(self):
        rng = np.random.default_rng(12)
        scans, _ = generate_world({"shape": "square", "frames": 2, "seed": 4})
        clean = scans[1]
        bad = rng.choice(len(clean), size=6, replace=False)
        xyz = clean.xyz.copy()
        xyz[bad[:3], rng.integers(0, 3, 3)] = np.nan
        xyz[bad[3:5], 0] = np.inf
        xyz[bad[5], 2] = -np.inf
        dirty = make_scan(xyz, clean.ring)
        keep = np.ones(len(xyz), dtype=bool)
        keep[bad] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extract_features(dirty, CFG)
        want = extract_features(make_scan(clean.xyz[keep], clean.ring[keep]), CFG)
        assert np.array_equal(got.edges, want.edges)
        assert np.array_equal(got.planars, want.planars)
        assert np.isfinite(got.edges).all() and np.isfinite(got.planars).all()

    def test_all_nonfinite_scan(self):
        fc = extract_features(make_scan(np.full((40, 3), np.nan)), CFG)
        assert fc.edges.shape == (0, 3) and fc.planars.shape == (0, 3)


def assert_matches_loop(scan):
    got = extract_features(scan, CFG)
    want = ref.extract_features(scan, CFG)
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.planars, want.planars)
    return len(got.edges) + len(got.planars)


class TestMatchesLoopReference:
    """The whole-scan pass selects exactly what the per-ring loop selects,
    in the same order."""

    @pytest.mark.parametrize("shape", ["square", "corridor", "two_rooms", "static"])
    def test_synthetic_worlds(self, shape):
        scans, _ = generate_world({"shape": shape, "frames": 6, "seed": 1})
        for scan in scans[::2]:
            assert assert_matches_loop(scan) > 0

    def test_gear_ring_with_dropout_wedge(self):
        xyz = gear_ring(n=720)
        theta = np.arctan2(xyz[:, 1], xyz[:, 0])
        keep = ~((theta > 0.3) & (theta < 0.3 + np.pi / 2))
        assert assert_matches_loop(make_scan(xyz[keep])) > 0

    def test_rings_shorter_than_window(self):
        short = gear_ring(n=9, z=1.0)
        full = gear_ring(n=360, z=-1.0)
        xyz = np.vstack([short, full, short[:3] + [0, 0, 2.0]])
        ring = np.r_[np.full(9, 2), np.full(360, 5), np.full(3, 7)]
        assert assert_matches_loop(make_scan(xyz, ring)) > 0
        assert assert_matches_loop(make_scan(short)) == 0

    def test_empty_scan(self):
        assert assert_matches_loop(make_scan(np.zeros((0, 3)))) == 0

    def test_random_rings_with_gaps_and_ties(self, monkeypatch):
        # shuffled multi-ring scans with dropouts, range steps, repeated
        # azimuths and rings of every size, under several budgets
        rng = np.random.default_rng(21)
        settings = [
            {},
            {"NEIGHBORHOOD_HALF_WIDTH": 3, "MAX_EDGES_PER_SECTOR": 3,
             "MAX_PLANARS_PER_SECTOR": 2, "NUM_SECTORS": 4},
            {"SMOOTHNESS_THRESHOLD": 0.02, "OCCLUSION_GAP": 0.2},
        ]
        for trial in range(30):
            parts, rings = [], []
            for ring_id in rng.choice(16, size=rng.integers(1, 6), replace=False):
                n = int(rng.integers(1, 400))
                theta = np.round(rng.uniform(-np.pi, np.pi, n), 2)
                if rng.random() < 0.5:  # a dropout wedge
                    lo = rng.uniform(-np.pi, np.pi)
                    theta = theta[(theta - lo) % (2 * np.pi) > rng.uniform(0.2, 2.0)]
                r = rng.choice([4.0, 9.0, 15.0], size=len(theta)) + rng.normal(
                    0, 0.05, len(theta)
                )
                z = np.full(len(theta), ring_id * 0.3 - 2.0)
                parts.append(np.stack([r * np.cos(theta), r * np.sin(theta), z], 1))
                rings.append(np.full(len(theta), ring_id))
            xyz, ring = np.vstack(parts), np.concatenate(rings)
            perm = rng.permutation(len(xyz))
            with monkeypatch.context() as patch:
                for name, value in settings[trial % 3].items():
                    patch.setattr(features, name, value)
                assert_matches_loop(make_scan(xyz[perm], ring[perm]))


def polygon_ring(corners_deg, n=360, radius=10.0):
    """Full-circle ring of n rays, half a step off the sector boundaries, onto
    the polygon whose vertices sit at the given ascending azimuths (degrees)
    on a circle of the given radius."""
    theta = np.radians(np.arange(n) * 360.0 / n + 0.5) - np.pi
    corners = np.radians(corners_deg)
    a = radius * np.stack([np.cos(corners), np.sin(corners)], axis=1)
    side = np.searchsorted(corners, theta) - 1  # -1: the side that wraps
    start, edge = a[side], np.roll(a, -1, axis=0)[side] - a[side]
    # the ray's distance t to the side: t d = start + u edge
    dx, dy = np.cos(theta), np.sin(theta)
    t = (start[:, 0] * edge[:, 1] - start[:, 1] * edge[:, 0]) / (dx * edge[:, 1] - dy * edge[:, 0])
    return np.stack([t * dx, t * dy, np.zeros(n)], axis=1)


class TestSelectionAcrossSectors:
    """Sector s's planars are picked after its edges and before the edges of
    the sectors after it, so only the edge windows of sectors <= s remove
    its planar candidates."""

    @pytest.fixture(autouse=True)
    def settings(self, monkeypatch):
        # corners are edges and every wall point a planar candidate; the
        # budget takes every planar candidate a sector has
        monkeypatch.setattr(features, "SMOOTHNESS_THRESHOLD", 0.02)
        monkeypatch.setattr(features, "OCCLUSION_GAP", 5.0)
        monkeypatch.setattr(features, "MAX_PLANARS_PER_SECTOR", 60)

    def check(self, corners_deg, edge_deg, kept_deg):
        scan = make_scan(polygon_ring(corners_deg))
        fc = extract_features(scan, CFG)
        edges, planars = (np.round(np.degrees(np.arctan2(p[:, 1], p[:, 0])), 6)
                          for p in (fc.edges, fc.planars))
        assert edge_deg in edges
        # within the edge's window, in the sector picked before the edge's
        assert set(kept_deg) <= set(planars)
        assert_matches_loop(scan)

    def test_edge_window_reaching_back_a_sector(self):
        # the edge at 2.5 deg (sector 3) covers -2.5..7.5 deg; the planars
        # of sector 2 at its end were picked before it
        self.check([-150.0, -90.0, 2.5, 90.0], 2.5, [-2.5, -1.5, -0.5])

    def test_edge_window_wrapping_into_first_sector(self):
        # the edge at 177.5 deg (sector 5) of the cyclic ring covers
        # 172.5..-177.5 deg; the planars of sector 0 were picked first
        self.check([-90.0, 0.0, 90.0, 177.5], 177.5, [-179.5, -178.5, -177.5])


def assert_same_features(got, want):
    assert got.edges.tobytes() == want.edges.tobytes()
    assert got.planars.tobytes() == want.planars.tobytes()


class TestOrderExactness:
    """The ring and candidate orders hold on inputs the simulator never
    sends: unordered rows, any integer ring ids, huge segment counts and
    rings of very different sizes."""

    @staticmethod
    def square_scan():
        return generate_world({"shape": "square", "frames": 2, "seed": 3})[0][1]

    def test_shuffled_rows(self):
        scan = self.square_scan()
        azimuth = np.arctan2(scan.xyz[:, 1], scan.xyz[:, 0])
        # no azimuth repeats within a ring, so no tie is left to scan order
        assert len(np.unique(np.column_stack([scan.ring, azimuth]), axis=0)) == len(scan)
        perm = np.random.default_rng(0).permutation(len(scan))
        shuffled = extract_features(make_scan(scan.xyz[perm], scan.ring[perm]), CFG)
        assert_same_features(shuffled, extract_features(scan, CFG))

    @pytest.mark.parametrize("ids", [
        np.arange(16, dtype=np.uint8),
        np.linspace(-3, 40000, 16).astype(np.int64),
        # a span of ids beyond 2**63: their differences wrap in int64
        (np.arange(16, dtype=np.int64) - 7) * (2**60 - 1),
    ], ids=["uint8", "int64_-3_to_40000", "int64_span_over_2**63"])
    def test_ring_ids(self, ids):
        scan = self.square_scan()
        relabelled = RawScan(xyz=scan.xyz, ring=ids[scan.ring])
        assert assert_matches_loop(relabelled) > 0
        # ids in the same order select the same features
        assert_same_features(extract_features(relabelled, CFG), extract_features(scan, CFG))

    def test_more_segments_than_a_16_bit_key_holds(self, monkeypatch):
        # a ring of 6000 three-point clusters is cut into 6000 open segments,
        # so sector * num_segments + segment outgrows 16 bits on the two
        # full rings after it
        monkeypatch.setattr(features, "NUM_SECTORS", 12)
        clusters = np.linspace(-np.pi, np.pi, 6000, endpoint=False) + 1e-4
        theta = (clusters[:, None] + [0.0, 1e-5, 2e-5]).ravel()
        dotted = 10.0 * np.stack([np.cos(theta), np.sin(theta), np.zeros(len(theta))], axis=1)
        full = [gear_ring(z=-1.0), gear_ring(z=1.0, phase=2e-3)]
        xyz = np.vstack([dotted] + full)
        ring = np.repeat([0, 1, 2], [len(dotted), 360, 360])
        num_segments = len(_ring_segments(ring, np.arctan2(xyz[:, 1], xyz[:, 0]))[1])
        assert num_segments == 6002
        assert features.NUM_SECTORS * num_segments > 2**16
        assert assert_matches_loop(make_scan(xyz, ring)) > 0

    def test_one_point_ring_beside_a_long_one(self):
        # the median gaps' table is 2 x 20000
        xyz = np.vstack([[[5.0, 1.0, -1.0]], gear_ring(n=20000)])
        ring = np.r_[0, np.ones(20000, dtype=int)]
        assert assert_matches_loop(make_scan(xyz, ring)) > 0


class TestConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            FeatureConfig(min_range=5.0, max_range=2.0)

    @pytest.mark.parametrize("setting", [{"min_range": 0.0}, {"min_range": -1.0},
                                         {"max_range": 2.0}, {"max_range": float("nan")}])
    def test_rejects_bad_bounds(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            FeatureConfig(**setting)
