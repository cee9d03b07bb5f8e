"""Synthetic multi-ring LiDAR simulator for desk-scale end-to-end tests.

Worlds are built from three primitive surfaces: vertical wall segments,
vertical cylinder poles, and a horizontal ground plane.  Scans are produced
by casting one ray per (ring, azimuth) cell, each wall and pole only
against the rays of its azimuth window, keeping the nearest surface hit,
and perturbing the range with Gaussian noise.  Ground-truth poses are
emitted alongside the scans, so end-pose error and loop-closure behavior
can be checked exactly.

Trajectories run at a fixed sensor height; the ground sits below the
sensor at a negative z.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from featslam.dataset_io import RawScan
from featslam.geometry import Pose


@dataclass
class Wall:
    """Vertical rectangle: segment (x0,y0)->(x1,y1) spanning z0..z1."""

    p0: tuple
    p1: tuple
    z0: float = -1.5
    z1: float = 1.0


@dataclass
class Pole:
    """Vertical cylinder."""

    center: tuple
    radius: float = 0.15
    z0: float = -1.5
    z1: float = 1.2


@dataclass
class World:
    walls: list = field(default_factory=list)
    poles: list = field(default_factory=list)
    ground_z: float | None = -1.5


@dataclass
class LidarModel:
    num_rings: int = 16
    elevation_min_deg: float = -15.0
    elevation_max_deg: float = 5.0
    points_per_ring: int = 360
    min_range: float = 1.0
    max_range: float = 90.0
    noise_std: float = 0.01

    def ray_directions(self):
        """Unit directions (R*A, 3) and their ring ids, sensor frame; read-only
        arrays shared by every model with the same ray geometry."""
        return _ray_directions(self.num_rings, self.elevation_min_deg,
                               self.elevation_max_deg, self.points_per_ring)


@functools.lru_cache(maxsize=8)
def _ray_directions(num_rings, elevation_min_deg, elevation_max_deg, points_per_ring):
    elev = np.radians(np.linspace(elevation_min_deg, elevation_max_deg, num_rings))
    azim = np.linspace(-np.pi, np.pi, points_per_ring, endpoint=False)
    e, a = np.meshgrid(elev, azim, indexing="ij")
    d = np.stack([np.cos(e) * np.cos(a), np.cos(e) * np.sin(a), np.sin(e)], axis=-1).reshape(-1, 3)
    ring = np.repeat(np.arange(num_rings), points_per_ring)
    d.flags.writeable = ring.flags.writeable = False
    return d, ring


# Each wall's and pole's azimuth window is widened by this much (rad), far
# above the rounding of arctan2 and of the hit tests: no ray left out of a
# window could hit its primitive.
_WINDOW_MARGIN = 1e-6


def _window_pairs(order, azimuth, lo, hi):
    """(primitive, ray) index pairs: primitive k with every ray whose world
    azimuth lies in [lo[k], hi[k]] (rad; each window narrower than 2 pi,
    its ends within pi of [-pi, pi]).  The part of a window past -pi or +pi
    is moved by 2 pi.  azimuth holds the sorted ray azimuths, order their
    ray indices."""
    k = np.arange(len(lo))
    below, above = lo < -np.pi, hi > np.pi
    prim = np.concatenate([k, k[below], k[above]])
    start = np.searchsorted(azimuth, np.concatenate(
        [np.maximum(lo, -np.pi), lo[below] + 2 * np.pi, np.full(above.sum(), -np.pi)]), "left")
    stop = np.searchsorted(azimuth, np.concatenate(
        [np.minimum(hi, np.pi), np.full(below.sum(), np.pi), hi[above] - 2 * np.pi]), "right")
    count = np.maximum(stop - start, 0)
    first = np.cumsum(count) - count  # each window's first pair
    pos = np.arange(count.sum()) + np.repeat(start - first, count)
    return np.repeat(prim, count), order[pos]


def _lower_to_wall_hits(t, origin, dirs, order, azimuth, walls):
    """Lower each ray's t to its nearest wall hit.

    A wall is cast against the rays in the wedge between its endpoints as
    seen from the sensor, or all rays when the sensor is on its line
    (a . n ~ 0: its distance from the line is within the margin times its
    distance from the endpoints, and the wedge could face either way).
    Per (wall, ray): the hit solves (o + t d - p0) . n = 0 with n the
    segment normal; it counts when t > 0, the segment parameter s is in
    [0, 1] and the height in [z0, z1].  Rays within 1e-12 of parallel
    miss."""
    p0 = np.array([w.p0 for w in walls], float)
    p1 = np.array([w.p1 for w in walls], float)
    u = p1 - p0
    n = np.stack([-u[:, 1], u[:, 0]], axis=1)
    a = p0 - origin[:2]
    num = (a * n).sum(axis=1)
    b = p1 - origin[:2]
    # the wedge is the short way round from one endpoint's azimuth
    alpha0, alpha1 = np.arctan2(a[:, 1], a[:, 0]), np.arctan2(b[:, 1], b[:, 0])
    width = (alpha1 - alpha0) % (2 * np.pi)
    lo = np.where(width <= np.pi, alpha0, alpha1)
    width = np.minimum(width, 2 * np.pi - width)
    reach = np.hypot(a[:, 0], a[:, 1]) + np.hypot(b[:, 0], b[:, 1])
    on_line = np.abs(num) <= _WINDOW_MARGIN * np.hypot(u[:, 0], u[:, 1]) * reach
    lo = np.where(on_line, -np.pi, lo - _WINDOW_MARGIN)
    hi = np.where(on_line, np.pi, lo + width + 2 * _WINDOW_MARGIN)
    w, r = _window_pairs(order, azimuth, lo, hi)

    dx, dy, dz = dirs[r].T
    denom = n[w, 0] * dx + n[w, 1] * dy
    good = np.abs(denom) > 1e-12
    hit = np.divide(num[w], denom, out=denom)
    good &= hit > 0
    s = (origin[0] + hit * dx - p0[w, 0]) * u[w, 0]
    s += (origin[1] + hit * dy - p0[w, 1]) * u[w, 1]
    s /= (u * u).sum(axis=1)[w]
    good &= (s >= 0.0) & (s <= 1.0)
    z = np.multiply(hit, dz, out=s)
    z += origin[2]
    good &= (z >= np.array([v.z0 for v in walls], float)[w])
    good &= (z <= np.array([v.z1 for v in walls], float)[w])
    np.minimum.at(t, r[good], hit[good])


def _lower_to_pole_hits(t, origin, dirs, order, azimuth, poles):
    """Lower each ray's t to its nearest pole hit.

    A pole at distance D is cast against the rays within asin(min(r / D, 1))
    of the azimuth of its centre.  From inside the pole that is the half
    circle facing its centre: a positive root needs d . (c - o) > 0, and
    none is positive there anyway.  Per (pole, ray): the smaller root of
    |o + t d - c|^2 = r^2 in the plane, counted when it is positive and its
    height is in [z0, z1].  Rays within 1e-12 of vertical miss."""
    oc = origin[:2] - np.array([p.center for p in poles], float)
    radius = np.array([p.radius for p in poles], float)
    c0 = (oc * oc).sum(axis=1) - radius ** 2
    centre = np.arctan2(-oc[:, 1], -oc[:, 0])
    spread = np.arcsin(np.minimum(radius / np.hypot(oc[:, 0], oc[:, 1]), 1.0)) + _WINDOW_MARGIN
    w, r = _window_pairs(order, azimuth, centre - spread, centre + spread)

    d = dirs[r]
    a = np.einsum("ni,ni->n", d[:, :2], d[:, :2])
    half = oc[w, 0] * (2.0 * d[:, 0]) + oc[w, 1] * (2.0 * d[:, 1])  # the b of b^2 - 4ac
    disc = half * half - (4.0 * a) * c0[w]
    good = (disc >= 0) & (a > 1e-12)
    root = np.sqrt(disc, out=disc)
    root += half
    np.negative(root, out=root)
    root /= 2.0 * a
    good &= root > 0
    z = np.multiply(root, d[:, 2], out=half)
    z += origin[2]
    good &= (z >= np.array([p.z0 for p in poles], float)[w])
    good &= (z <= np.array([p.z1 for p in poles], float)[w])
    np.minimum.at(t, r[good], root[good])


def _ground_hits(origin, dirs, ground_z):
    dz = dirs[:, 2]
    t = np.full(len(dirs), np.inf)
    ok = dz < -1e-12
    t[ok] = (ground_z - origin[2]) / dz[ok]
    return t


def _nearest_hits(world: World, origin, dirs):
    """Ray parameter of each ray's nearest surface hit; inf where none.

    The rays are sorted once by world azimuth; each wall and pole is then
    cast only against the rays of its azimuth window, walls in one array
    pass and poles in another."""
    t = np.full(len(dirs), np.inf)
    azimuth = np.arctan2(dirs[:, 1], dirs[:, 0])
    order = np.argsort(azimuth)
    azimuth = azimuth[order]
    # misses divide by zero and take roots of negatives; they are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        if world.walls:
            _lower_to_wall_hits(t, origin, dirs, order, azimuth, world.walls)
        if world.poles:
            _lower_to_pole_hits(t, origin, dirs, order, azimuth, world.poles)
    if world.ground_z is not None:
        np.minimum(t, _ground_hits(origin, dirs, world.ground_z), out=t)
    return t


def simulate_scan(
    world: World,
    pose: Pose,
    model: LidarModel,
    rng: np.random.Generator,
) -> RawScan:
    """Cast one scan from the given sensor pose; points in the sensor frame."""
    d_sensor, ring = model.ray_directions()
    d_world = d_sensor @ pose.rotation.T
    origin = pose.translation

    t = _nearest_hits(world, origin, d_world)

    if model.noise_std > 0:
        t = t + rng.normal(0.0, model.noise_std, size=len(t))
    keep = np.isfinite(t) & (t >= model.min_range) & (t <= model.max_range)
    return RawScan(xyz=d_sensor[keep] * t[keep, None], ring=ring[keep])


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def _yaw_pose(x, y, yaw):
    return Pose.from_rt([0.0, 0.0, yaw], [x, y, 0.0])


def straight_path(frames: int, step: float):
    return [_yaw_pose(k * step, 0.0, 0.0) for k in range(frames)]


def circle_path(frames: int, radius: float, center=(0.0, 0.0), laps: float = 1.0):
    """Counterclockwise circle, starting at the bottom heading +x."""
    out = []
    for k in range(frames):
        a = -np.pi / 2 + 2 * np.pi * laps * k / max(frames - 1, 1)
        x = center[0] + radius * np.cos(a)
        y = center[1] + radius * np.sin(a)
        out.append(_yaw_pose(x, y, a + np.pi / 2))
    return out


def rounded_square_loop(side: float, corner_radius: float):
    """Arclength parametrization of a rounded square, CCW, starting at the
    bottom-edge midpoint heading +x.  Returns (perimeter, point_at(s))."""
    h = side / 2.0
    r = corner_radius
    lstr = 2.0 * (h - r)  # full straight length per edge
    qarc = np.pi * r / 2.0
    # piece list: (length, kind, data); first/last straights are half edges
    pieces = []
    pieces.append((lstr / 2.0, "s", ((0.0, -h), 0.0)))
    centers = [(h - r, -(h - r)), (h - r, h - r), (-(h - r), h - r), (-(h - r), -(h - r))]
    start_angles = [-np.pi / 2, 0.0, np.pi / 2, np.pi]
    edge_starts = [((h, -(h - r)), np.pi / 2), ((h - r, h), np.pi), ((-h, h - r), -np.pi / 2)]
    for k in range(4):
        pieces.append((qarc, "a", (centers[k], start_angles[k])))
        if k < 3:
            pieces.append((lstr, "s", edge_starts[k]))
    pieces.append((lstr / 2.0, "s", ((-(h - r), -h), 0.0)))
    perimeter = sum(p[0] for p in pieces)

    def point_at(s):
        s = float(s) % perimeter
        for length, kind, data in pieces[:-1]:
            if s <= length + 1e-12:
                break
            s -= length
        else:  # the last piece takes the remaining arc length
            _, kind, data = pieces[-1]
        if kind == "s":
            (x0, y0), yaw = data
            return (
                x0 + s * np.cos(yaw),
                y0 + s * np.sin(yaw),
                yaw,
            )
        (cx, cy), a0 = data
        a = a0 + s / r
        return (
            cx + r * np.cos(a),
            cy + r * np.sin(a),
            a + np.pi / 2,
        )

    return perimeter, point_at


def rounded_square_path(side: float, corner_radius: float, frames: int, laps: float = 1.0):
    perimeter, point_at = rounded_square_loop(side, corner_radius)
    out = []
    for k in range(frames):
        s = laps * perimeter * k / max(frames - 1, 1)
        x, y, yaw = point_at(s)
        out.append(_yaw_pose(x, y, yaw))
    return out


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------

CORRIDOR_HALF_WIDTH = 3.0  # m, the straight corridor's and the square loop's
POLE_SPACING = 5.0  # m, between the straight corridor's poles at density 1
ROOM_HALF = 6.0  # m, half the side of each of the two rooms


def _square_walls(half: float, z0=-1.5, z1=1.0):
    c = [(-half, -half), (half, -half), (half, half), (-half, half)]
    return [Wall(c[k], c[(k + 1) % 4], z0, z1) for k in range(4)]


def corridor_world(length: float, density: float) -> World:
    w = World()
    x0, x1 = -5.0, length
    w.walls = [
        Wall((x0, -CORRIDOR_HALF_WIDTH), (x1, -CORRIDOR_HALF_WIDTH)),
        Wall((x0, CORRIDOR_HALF_WIDTH), (x1, CORRIDOR_HALF_WIDTH)),
        Wall((x1, -CORRIDOR_HALF_WIDTH), (x1, CORRIDOR_HALF_WIDTH)),
        Wall((x0, -CORRIDOR_HALF_WIDTH), (x0, CORRIDOR_HALF_WIDTH)),
    ]
    spacing = POLE_SPACING / max(density, 1e-6)
    x = x0 + 2.0
    side = 1.0
    while x < x1 - 1.0:
        w.poles.append(Pole((x, side * (CORRIDOR_HALF_WIDTH - 0.6))))
        side = -side
        x += spacing
    return w


def square_loop_world(side: float, density: float, seed: int) -> World:
    """Square-annulus corridor around the rounded-square trajectory.

    Poles are jittered by a seeded RNG so the four sides of the square do
    not alias each other in descriptor space.
    """
    rng = np.random.default_rng(seed)
    w = World()
    outer = side / 2.0 + CORRIDOR_HALF_WIDTH
    inner = side / 2.0 - CORRIDOR_HALF_WIDTH
    w.walls = _square_walls(outer) + _square_walls(inner, z1=0.8)
    n_poles = int(16 * density)
    # scatter poles inside the corridor band, away from the centerline
    count = 0
    while count < n_poles:
        p = rng.uniform(-outer + 0.6, outer - 0.6, size=2)
        radial = np.max(np.abs(p))
        if not (inner + 0.5 < radial < outer - 0.5):
            continue
        centerline = side / 2.0
        if abs(radial - centerline) < 0.9:  # keep the driving lane clear
            continue
        w.poles.append(Pole((p[0], p[1]), radius=float(rng.uniform(0.1, 0.25))))
        count += 1
    return w


def _room_walls(cx: float, cy: float, half: float, door_y):
    """Square room with door gaps over cy + door_y in the east and west walls."""
    lo, hi = door_y
    walls = [
        Wall((cx - half, cy - half), (cx + half, cy - half)),  # south
        Wall((cx - half, cy + half), (cx + half, cy + half)),  # north
    ]
    for sx in (-1, 1):  # west, east walls split around the door gap
        x = cx + sx * half
        walls.append(Wall((x, cy - half), (x, cy + lo)))
        walls.append(Wall((x, cy + hi), (x, cy + half)))
    return walls


def two_room_world(separation: float, seed: int) -> World:
    """Two geometrically identical rooms joined by a long corridor.

    Room B is room A translated by +separation in x, pole layout included,
    so descriptors of corresponding viewpoints match while the true pose
    separation stays `separation`.
    """
    rng = np.random.default_rng(seed)
    w = World()
    # wide door and corridor: walls stay beyond the feature min-range of a
    # sensor driving the y = -3 centerline, and the visible ground strip is
    # wide enough for valid plane fits
    door_y = (-5.5, -0.5)
    w.walls = _room_walls(0.0, 0.0, ROOM_HALF, door_y)
    w.walls += _room_walls(separation, 0.0, ROOM_HALF, door_y)
    w.walls.append(Wall((ROOM_HALF, -5.5), (separation - ROOM_HALF, -5.5)))
    w.walls.append(Wall((ROOM_HALF, -0.5), (separation - ROOM_HALF, -0.5)))
    layout = [(-3.5, 2.5), (2.0, 3.5), (-2.0, -4.5), (4.0, -1.0), (-4.8, -1.5)]
    for dx, dy in layout:
        w.poles.append(Pole((dx, dy)))
        w.poles.append(Pole((separation + dx, dy)))
    # corridor anchors: alternating thin bollards plus wall stubs pin the
    # along-corridor direction that two parallel walls leave unobservable
    x = ROOM_HALF + 1.0
    side = -5.0
    while x < separation - ROOM_HALF - 0.5:
        w.poles.append(Pole((x, side), radius=0.1))
        side = -1.0 if side == -5.0 else -5.0
        x += float(rng.uniform(1.5, 3.0))
    x = ROOM_HALF + 6.0
    while x < separation - ROOM_HALF - 3.0:
        w.walls.append(Wall((x, -5.5), (x, -5.0)))
        w.walls.append(Wall((x + 2.0, -0.5), (x + 2.0, -1.0)))
        x += 10.0
    return w


def two_room_path(separation: float, step: float):
    """Circle room A (3 laps), transit the corridor, circle room B."""
    radius = 3.0
    lap = 2 * np.pi * radius
    n_lap_a = int(round(3.0 * lap / step))
    poses = circle_path(n_lap_a + 1, radius, (0.0, 0.0), laps=3.0)
    # the circle ends at its start, (0, -3) heading +x; drive east to room B
    x = step
    transit = []
    while x < separation - 1e-9:
        transit.append(_yaw_pose(x, -3.0, 0.0))
        x += step
    n_lap_b = int(round(1.5 * lap / step))
    room_b = circle_path(n_lap_b + 1, radius, (separation, 0.0), laps=1.5)
    return poses + transit + room_b


# ---------------------------------------------------------------------------
# Spec-driven generation
# ---------------------------------------------------------------------------

WORLD_DEFAULTS = {
    "shape": "square",
    "frames": 400,
    "noise": 0.01,
    "seed": 0,
    "density": 1.0,
    "size": 30.0,
    "laps": 1.0,
    "step": 0.5,
    "separation": 60.0,
}

SHAPES = ("square", "corridor", "two_rooms", "static")

# corner radius (m) of the square course; a size below twice it is rejected
SQUARE_CORNER_RADIUS = 3.0

# numeric key -> (lowest value, whether the lowest value itself is allowed);
# frames and seed, integers by default, must be integers
_SPEC_LIMITS = {
    "frames": (1, True),
    "seed": (0, True),
    "noise": (0, True),
    "density": (0, True),
    "size": (0, False),
    "laps": (0, False),
    "step": (0, False),
    "separation": (0, False),
}


def check_world_spec(spec: dict) -> dict:
    """The spec with defaults filled in, after checking every key.

    Raises ValueError naming the key for an unknown key or shape, a value
    that is not a finite number (an integer for frames and seed), or one
    below its limit: frames >= 1, seed, noise, density >= 0, and size,
    laps, step, separation > 0; a square course's size must also be at
    least twice SQUARE_CORNER_RADIUS.  A two_rooms frames above its path's
    length is not an error (see generate_world)."""
    unknown = set(spec) - set(WORLD_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown world spec keys: {sorted(unknown)}")
    s = dict(WORLD_DEFAULTS, **spec)
    if s["shape"] not in SHAPES:
        raise ValueError(f"unknown world shape {s['shape']!r}")
    for key, (low, inclusive) in _SPEC_LIMITS.items():
        value = s[key]
        integral = isinstance(WORLD_DEFAULTS[key], int)
        kind = numbers.Integral if integral else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
            noun = "an integer" if integral else "a finite number"
            raise ValueError(f"{key} must be {noun}, got {value!r}")
        if not (value >= low if inclusive else value > low):
            raise ValueError(f"{key} must be {'>=' if inclusive else '>'} {low}, got {value!r}")
    if s["shape"] == "square" and s["size"] < 2 * SQUARE_CORNER_RADIUS:
        raise ValueError(f"size must be >= {2 * SQUARE_CORNER_RADIUS} for the square "
                         f"course (twice its corner radius), got {s['size']!r}")
    return s


def generate_world(spec: dict):
    """Build (scans, ground_truth_poses) from a flat spec dict.

    Keys (all optional): shape, frames, noise, seed, density, size, laps,
    step, separation; checked by check_world_spec.  The two_rooms path's
    length is set by step and separation (291 poses at the defaults), and
    frames only cuts it short: a larger frames gives fewer frames.
    """
    s = check_world_spec(spec)

    if s["shape"] == "square":
        world = square_loop_world(s["size"], density=s["density"], seed=s["seed"])
        poses = rounded_square_path(s["size"], SQUARE_CORNER_RADIUS, s["frames"], laps=s["laps"])
    elif s["shape"] == "corridor":
        length = s["frames"] * s["step"] + 10.0
        world = corridor_world(length=length, density=s["density"])
        poses = straight_path(s["frames"], s["step"])
    elif s["shape"] == "two_rooms":
        world = two_room_world(s["separation"], seed=s["seed"])
        poses = two_room_path(s["separation"], step=s["step"])[: s["frames"]]
    else:  # static
        world = corridor_world(length=20.0, density=s["density"])
        poses = [Pose.identity() for _ in range(s["frames"])]

    model = LidarModel(noise_std=s["noise"])
    rng = np.random.default_rng(s["seed"])
    scans = [simulate_scan(world, pose, model, rng) for pose in poses]
    return scans, poses
