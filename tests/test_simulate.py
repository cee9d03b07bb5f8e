import re

import loop_reference as ref
import numpy as np
import pytest

from featslam import simulate
from featslam.geometry import Pose
from featslam.simulate import (
    SHAPES,
    SQUARE_CORNER_RADIUS,
    LidarModel,
    Pole,
    Wall,
    World,
    circle_path,
    corridor_world,
    generate_world,
    rounded_square_loop,
    rounded_square_path,
    simulate_scan,
    square_loop_world,
    straight_path,
    two_room_path,
    two_room_world,
)


class TestLidarModel:
    def test_ray_directions_unit_norm(self):
        model = LidarModel()
        dirs, rings = model.ray_directions()
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert dirs.shape == (model.num_rings * model.points_per_ring, 3)
        assert set(np.unique(rings)) == set(range(model.num_rings))

    def test_elevation_span(self):
        model = LidarModel(num_rings=4, elevation_min_deg=-10, elevation_max_deg=2)
        dirs, rings = model.ray_directions()
        elev = np.degrees(np.arcsin(dirs[:, 2]))
        np.testing.assert_allclose(elev.min(), -10, atol=1e-9)
        np.testing.assert_allclose(elev.max(), 2, atol=1e-9)


class TestSimulateScan:
    def test_zero_noise_repeatable(self):
        world = corridor_world(length=45.0, density=1.0)
        model = LidarModel(noise_std=0.0)
        rng = np.random.default_rng(0)
        a = simulate_scan(world, Pose.identity(), model, rng)
        b = simulate_scan(world, Pose.identity(), model, rng)
        np.testing.assert_array_equal(a.xyz, b.xyz)
        np.testing.assert_array_equal(a.ring, b.ring)

    def test_wall_returns_lie_on_wall(self):
        world = World(walls=[Wall((5.0, -10.0), (5.0, 10.0))], poles=[], ground_z=-100.0)
        model = LidarModel(noise_std=0.0, num_rings=1, elevation_min_deg=0,
                           elevation_max_deg=0)
        scan = simulate_scan(world, Pose.identity(), model, np.random.default_rng(0))
        assert len(scan.xyz) > 0
        np.testing.assert_allclose(scan.xyz[:, 0], 5.0, atol=1e-9)

    def test_pole_returns_on_cylinder_surface(self):
        pole = Pole(center=(4.0, 0.0), radius=0.3)
        world = World(walls=[], poles=[pole], ground_z=-100.0)
        model = LidarModel(noise_std=0.0, num_rings=1, elevation_min_deg=0,
                           elevation_max_deg=0, points_per_ring=720)
        scan = simulate_scan(world, Pose.identity(), model, np.random.default_rng(0))
        assert len(scan.xyz) > 0
        r = np.linalg.norm(scan.xyz[:, :2] - np.array([4.0, 0.0]), axis=1)
        np.testing.assert_allclose(r, 0.3, atol=1e-9)

    def test_noise_perturbs_along_ray(self):
        world = World(walls=[Wall((5.0, -10.0), (5.0, 10.0))], poles=[], ground_z=-100.0)
        model = LidarModel(noise_std=0.05, num_rings=1, elevation_min_deg=0,
                           elevation_max_deg=0)
        scan = simulate_scan(world, Pose.identity(), model, np.random.default_rng(3))
        spread = scan.xyz[:, 0].std()
        assert 0.0 < spread < 0.2

    def test_points_are_sensor_frame(self):
        world = corridor_world(length=45.0, density=1.0)
        model = LidarModel(noise_std=0.0)
        pose = Pose.from_rt([0, 0, 0.3], [4.0, 0.5, 0.0])
        scan = simulate_scan(world, pose, model, np.random.default_rng(0))
        ranges = np.linalg.norm(scan.xyz, axis=1)
        assert (ranges >= model.min_range - 1e-6).all()
        assert (ranges <= model.max_range + 0.1).all()


EPS = np.finfo(float).eps


def wall_bound(origin, dirs, wall):
    """One wall's oracle t per ray, and how far two roundings of it can lie
    apart.  t = (a . n) / (d . n), with a = p0 - o rounded alike in both
    casters; a 2-term dot product, fused or not, is within eps times the
    sum of its |terms| of exact and the quotient within eps/2 of its own,
    so each caster is within eps (|a . n|_terms + |t| |d . n|_terms) /
    |d . n| + eps |t| of exact: 4x that covers the two with a 2x margin."""
    p0 = np.asarray(wall.p0, float)
    u = np.asarray(wall.p1, float) - p0
    n = np.array([-u[1], u[0]])
    t = ref.wall_hits(origin, dirs, wall)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.abs((p0 - origin[:2]) * n).sum() + np.abs(t) * np.abs(dirs[:, :2] * n).sum(1)
        return t, 4 * EPS * (terms / np.abs(dirs[:, :2] @ n) + np.abs(t))


def pole_bound(origin, dirs, pole):
    """One pole's oracle t per ray and its bound, as in wall_bound.  The
    root (-b - sqrt(disc)) / 2a, disc = b^2 - 4 a c, has a alike in both
    casters; b and c are 2-term dot products (within eps of their |terms|
    each), disc then moves by 2|b| db + 4a dc plus its own rounding, and
    sqrt(disc) by ddisc / (2 sqrt(disc)), or at most sqrt(ddisc) near a
    tangent."""
    oc = origin[:2] - np.asarray(pole.center, float)
    a = np.einsum("ni,ni->n", dirs[:, :2], dirs[:, :2])
    b = 2.0 * dirs[:, :2] @ oc
    c = oc @ oc - pole.radius**2
    db = EPS * 2.0 * np.abs(dirs[:, :2] * oc).sum(1)
    dc = EPS * (oc @ oc + pole.radius**2)
    t = ref.pole_hits(origin, dirs, pole)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(b * b - 4.0 * a * c, 0.0)
        ddisc = 2 * np.abs(b) * db + 4 * a * dc + EPS * (b * b + 4 * a * abs(c))
        dsqrt = np.minimum(ddisc / (2 * np.sqrt(disc)), np.sqrt(ddisc)) + EPS * np.sqrt(disc)
        return t, 4 * ((db + dsqrt) / (2 * a) + EPS * np.abs(t))


def check_caster(world, origin, dirs, model=LidarModel()):
    """The windowed caster against the blocked caster, bit for bit, and
    against the per-primitive oracle: the same rays hit and are kept, each t
    within the bound of the primitives it hits (the nearest of several moves
    by at most their largest change).  Returns the largest |difference| /
    bound."""
    got = simulate._nearest_hits(world, origin, dirs)
    np.testing.assert_array_equal(got, ref.blocked_nearest_hits(world, origin, dirs))
    want = ref.nearest_hits(world, origin, dirs)
    hit = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), hit)

    def kept(t):
        return hit & (t >= model.min_range) & (t <= model.max_range)

    np.testing.assert_array_equal(kept(got), kept(want))
    bound = np.zeros(len(dirs))  # the ground is cast alike in both
    for t, b in [wall_bound(origin, dirs, w) for w in world.walls] + [
        pole_bound(origin, dirs, p) for p in world.poles
    ]:
        bound = np.maximum(bound, np.where(np.isfinite(t), b, 0.0))
    diff = np.abs(got[hit] - want[hit])
    assert (diff <= bound[hit]).all(), (diff - bound[hit]).max()
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.nan_to_num(diff / bound[hit]).max(initial=0.0))


def random_world(rng, walls=12, poles=10, ground=True):
    """Walls and poles at random, many of them long or near the sensor, so
    windows overlap and cross the azimuth seam."""
    return World(
        walls=[
            Wall(tuple(rng.uniform(-20, 20, 2)), tuple(rng.uniform(-20, 20, 2)),
                 float(rng.uniform(-3, -1)), float(rng.uniform(0.5, 3)))
            for _ in range(walls)
        ],
        poles=[
            Pole(tuple(rng.uniform(-15, 15, 2)), float(rng.uniform(0.1, 0.6)),
                 float(rng.uniform(-3, -1)), float(rng.uniform(0.5, 3)))
            for _ in range(poles)
        ],
        ground_z=float(rng.uniform(-2.5, -1)) if ground else None,
    )


def world_rays(pose, model=LidarModel(num_rings=32, elevation_min_deg=-30,
                                      elevation_max_deg=30)):
    dirs, _ = model.ray_directions()
    return pose.translation, dirs @ pose.rotation.T


class TestCasterMatchesReference:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("walls, poles, ground", [
        (12, 10, True), (0, 10, True), (12, 0, True), (12, 10, False), (0, 0, True),
    ])
    def test_seeded_worlds(self, seed, walls, poles, ground):
        rng = np.random.default_rng(seed)
        world = random_world(rng, walls, poles, ground)
        # one rolled and pitched pose, then three random tilts and headings
        poses = [Pose.from_rt([0.3, -0.25, 1.1], [1.0, -2.0, 0.2])]
        for _ in range(3):
            tilt = rng.uniform(-0.4, 0.4, 3) + [0.0, 0.0, rng.uniform(-np.pi, np.pi)]
            position = np.append(rng.uniform(-5, 5, 2), rng.uniform(-0.5, 0.5))
            poses.append(Pose.from_rt(tilt, position))
        for pose in poses:
            check_caster(world, *world_rays(pose))

    def test_degenerate_rays(self):
        # exact in both casters, so each ray's outcome is known
        _, model_dirs = world_rays(Pose.identity())
        special = np.array([
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.5, 0.0, np.sqrt(0.75)],
        ])
        dirs = np.concatenate([special, model_dirs])

        # rays along +-x are parallel to both walls (d . n = 0); the sensor
        # lies on the first wall's line (a . n = 0), so that wall has t = 0
        # or 0/0 for every ray and is never hit
        walls = [Wall((-10.0, 2.0), (10.0, 2.0)), Wall((-10.0, 6.0), (10.0, 6.0))]
        t = simulate._nearest_hits(World(walls, [], None), np.array([0.0, 2.0, 0.0]), dirs)
        np.testing.assert_array_equal(t[:4], [np.inf, np.inf, 4.0, np.inf])
        check_caster(World(walls, [], None), np.array([0.0, 2.0, 0.0]), dirs)

        # a sensor inside a pole: its near root lies behind the sensor, so
        # the rays reach the wall beyond
        world = World([Wall((5.0, -5.0), (5.0, 5.0))], [Pole((0.2, 0.0), radius=1.0)], None)
        t = simulate._nearest_hits(world, np.zeros(3), dirs)
        np.testing.assert_array_equal(t[:1], [5.0])
        check_caster(world, np.zeros(3), dirs)

        # rays tangent to a pole: disc is exactly 0 and the ray touches it
        poles = [Pole((5.0, 1.0), radius=1.0, z1=20.0), Pole((1.0, -5.0), radius=1.0)]
        t = simulate._nearest_hits(World([], poles, None), np.zeros(3), dirs)
        np.testing.assert_array_equal(t[:5], [5.0, np.inf, np.inf, 5.0, 10.0])
        check_caster(World([], poles, None), np.zeros(3), dirs)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_generated_shapes(self, monkeypatch, shape):
        spec = {
            "square": {"frames": 20},
            "corridor": {"frames": 20},
            # 2 m steps reach the corridor between the rooms within 60 frames
            "two_rooms": {"frames": 60, "step": 2.0},
            "static": {"frames": 3},
        }[shape]
        spec = dict(spec, shape=shape, seed=1)
        scans, _ = generate_world(spec)
        monkeypatch.setattr(simulate, "_nearest_hits", ref.blocked_nearest_hits)
        blocked, _ = generate_world(spec)
        monkeypatch.setattr(simulate, "_nearest_hits", ref.nearest_hits)
        want, _ = generate_world(spec)
        for a, b, c in zip(scans, blocked, want, strict=True):
            assert a.xyz.tobytes() == b.xyz.tobytes()
            assert a.ring.tobytes() == b.ring.tobytes()
            np.testing.assert_array_equal(a.ring, c.ring)
            assert np.abs(a.xyz - c.xyz).max() <= 1e-9


def azimuth(dirs):
    return np.arctan2(dirs[:, 1], dirs[:, 0])


class TestAzimuthWindows:
    """Cases where a wall's or pole's azimuth window is split, widened to
    every ray or hit at its edge; each equals the blocked caster bit for
    bit."""

    def cast(self, world, origin, dirs):
        t = simulate._nearest_hits(world, origin, dirs)
        np.testing.assert_array_equal(t, ref.blocked_nearest_hits(world, origin, dirs))
        return t

    def test_windows_across_the_seam_behind_the_sensor(self):
        # both windows cross azimuth +-pi: rays just either side of it hit
        _, dirs = world_rays(Pose.identity())
        for world in (World([Wall((-5.0, 1.0), (-5.0, -1.0))], [], None),
                      World([], [Pole((-6.0, 0.05), radius=0.3)], None)):
            hit = np.isfinite(self.cast(world, np.zeros(3), dirs))
            assert (azimuth(dirs)[hit] > 3.0).any() and (azimuth(dirs)[hit] < -3.0).any()

    def test_sensor_on_a_wall_line(self):
        # the sensor lies within rounding of the wall's line, so the wedge
        # between the endpoints could face either way: the rays of one half
        # plane hit at t of about 1e-16
        wall = Wall((1.7, 1.1), (6.2, 1.2))
        origin = np.append(np.asarray(wall.p0) + 0.37 * (np.subtract(wall.p1, wall.p0)), 0.0)
        _, dirs = world_rays(Pose.identity())
        t = self.cast(World([wall], [], None), origin, dirs)
        assert np.isfinite(t).sum() > len(dirs) // 3
        assert t[np.isfinite(t)].max() < 1e-12

    def test_sensor_inside_a_pole(self):
        # the near root lies behind the sensor: nothing but the wall beyond
        world = World([Wall((5.0, -5.0), (5.0, 5.0))],
                      [Pole((0.2, 0.0), radius=1.0), Pole((0.0, 0.0), radius=0.5)], None)
        _, dirs = world_rays(Pose.identity())
        t = self.cast(world, np.zeros(3), dirs)
        assert np.isfinite(t).any()
        assert (t[np.isfinite(t)] >= 5.0).all()

    def test_zero_length_wall(self):
        _, dirs = world_rays(Pose.identity())
        for origin in (np.zeros(3), np.array([3.0, 1.0, 0.0])):
            t = self.cast(World([Wall((3.0, 1.0), (3.0, 1.0))], [], None), origin, dirs)
            assert not np.isfinite(t).any()

    def test_rays_tangent_to_poles(self):
        # each ray touches its pole at an edge of the pole's window: along
        # y = 1 heading +x, x = -1 heading +y, y = -1 heading -x (azimuth pi)
        _, dirs = world_rays(Pose.identity())
        for pole, origin, ray, want in [
            (Pole((5.0, 2.0), radius=1.0), [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], 5.0),
            (Pole((-2.0, 4.0), radius=1.0), [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 4.0),
            (Pole((-3.0, -2.0), radius=1.0), [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], 3.0),
        ]:
            rays = np.concatenate([[ray], dirs])
            t = self.cast(World([], [pole], None), np.array(origin), rays)
            assert t[0] == want

    def test_pitched_pose_near_vertical_rays(self):
        # pitched up by 88 degrees: 28 rays lie within 3 degrees of straight
        # up, the steepest within 0.6; tall walls and poles catch some
        world = random_world(np.random.default_rng(4), 12, 10, False)
        for prim in world.walls + world.poles:
            prim.z1 = 400.0
        pose = Pose.from_rt([0.2, -np.radians(88.0), 0.0], [0.5, -1.0, 0.0])
        origin, dirs = world_rays(pose)
        t = self.cast(world, origin, dirs)
        steep = np.hypot(dirs[:, 0], dirs[:, 1]) < 0.05
        assert steep.sum() > 20
        assert np.isfinite(t[steep]).any()
        check_caster(world, origin, dirs)


class TestPaths:
    def test_straight_path_spacing(self):
        path = straight_path(5, 0.5)
        np.testing.assert_allclose(path[4].translation, [2.0, 0.0, 0.0], atol=1e-12)

    def test_circle_path_closes(self):
        path = circle_path(101, radius=10.0, laps=1.0)
        d = np.linalg.norm(path[0].translation - path[-1].translation)
        assert d < 1e-9

    def test_rounded_square_closes_and_heading_continuous(self):
        path = rounded_square_path(side=30.0, corner_radius=6.0, frames=400, laps=1.0)
        assert np.linalg.norm(path[0].translation - path[-1].translation) < 1e-9
        headings = []
        for p in path:
            fwd = p.rotation[:, 0]
            headings.append(np.arctan2(fwd[1], fwd[0]))
        steps = np.abs(np.diff(np.unwrap(headings)))
        assert steps.max() < 0.2

    def test_rounded_square_ends_on_its_last_half_edge(self):
        # the last piece takes whatever arc length the others leave
        perimeter, point_at = rounded_square_loop(24.0, SQUARE_CORNER_RADIUS)
        for back in (4.5, 0.5, 1e-9):
            np.testing.assert_allclose(point_at(perimeter - back), [-back, -12.0, 0.0],
                                       atol=1e-9)


class TestWorlds:
    def test_two_room_world_has_separated_rooms(self):
        world = two_room_world(separation=60.0, seed=0)
        xs = [w.p0[0] for w in world.walls] + [w.p1[0] for w in world.walls]
        assert min(xs) < 10.0 and max(xs) > 50.0

    def test_square_loop_world_pole_lane_clear(self):
        world = square_loop_world(side=30.0, density=1.0, seed=0)
        # poles must not block the driving centerline
        half = 15.0
        for pole in world.poles:
            x, y = pole.center
            d_edge = min(abs(abs(x) - half), abs(abs(y) - half))
            assert d_edge > 0.5


class TestGenerateWorld:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            generate_world({"shape": "square", "bogus": 1})

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            generate_world({"shape": "dodecahedron"})

    @pytest.mark.parametrize("spec, message", [
        # a negative step never ended the two_rooms corridor walk
        ({"shape": "two_rooms", "step": -0.35}, "step must be > 0, got -0.35"),
        ({"shape": "corridor", "step": 0.0}, "step must be > 0, got 0.0"),
        ({"shape": "two_rooms", "step": float("nan")}, "step must be a finite number, got nan"),
        ({"laps": float("nan")}, "laps must be a finite number, got nan"),
        ({"laps": 0.0}, "laps must be > 0, got 0.0"),
        ({"size": -30.0}, "size must be > 0, got -30.0"),
        ({"shape": "two_rooms", "separation": float("inf")},
         "separation must be a finite number, got inf"),
        ({"noise": -1.0}, "noise must be >= 0, got -1.0"),
        ({"density": -0.5}, "density must be >= 0, got -0.5"),
        ({"frames": 0}, "frames must be >= 1, got 0"),
        ({"frames": 2.5}, "frames must be an integer, got 2.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"noise": "0.1"}, "noise must be a finite number, got '0.1'"),
        # below twice the 3 m corner radius the square path had a negative
        # perimeter (-1.15 m at size 1) and wandered around the origin
        ({"size": 1.0}, "size must be >= 6.0 for the square course "
                        "(twice its corner radius), got 1.0"),
        ({"shape": "square", "size": 5.99}, "size must be >= 6.0 for the square course "
                                            "(twice its corner radius), got 5.99"),
    ])
    def test_bad_spec_rejected(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_world(spec)

    def test_static_shape_produces_identical_scans(self):
        scans, poses = generate_world({"shape": "static", "frames": 2, "noise": 0.0})
        assert len(scans) == len(poses) == 2
        np.testing.assert_array_equal(scans[0].xyz, scans[1].xyz)
        assert np.allclose(poses[0].matrix(), poses[1].matrix())

    def test_square_first_and_last_pose_coincide(self):
        _, poses = generate_world(
            {"shape": "square", "frames": 40, "noise": 0.0, "size": 30.0}
        )
        d = np.linalg.norm(poses[0].translation - poses[-1].translation)
        assert d < 1e-9

    def test_smallest_square_is_a_circle(self):
        # size 6 leaves no straight edge: the path is the 3 m corner circle
        _, poses = generate_world({"shape": "square", "frames": 9, "size": 6.0})
        radii = [np.linalg.norm(p.translation) for p in poses]
        np.testing.assert_allclose(radii, 3.0, atol=1e-9)
        # size is only limited for the square course
        generate_world({"shape": "corridor", "frames": 1, "size": 1.0})

    def test_scan_count_matches_frames(self):
        scans, poses = generate_world({"shape": "corridor", "frames": 3, "noise": 0.01})
        assert len(scans) == 3 and len(poses) == 3

    def test_two_room_frames_cut_the_path_short(self):
        # the path's length is fixed by step and separation: frames cuts it
        # and never extends it
        path = two_room_path(20.0, 2.0)
        for frames, want in ((10, 10), (1000, len(path))):
            scans, poses = generate_world({"shape": "two_rooms", "separation": 20.0,
                                           "step": 2.0, "frames": frames})
            assert len(scans) == len(poses) == want
            assert all(np.array_equal(p.matrix(), q.matrix()) for p, q in zip(poses, path))
