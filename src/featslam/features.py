"""Edge/planar feature extraction from scans by local point smoothness.

Points are grouped per laser ring and ordered by azimuth.  The smoothness of
point i over a +/-half_width window is

    sigma_i = | sum_{j in window, j != i} (p_j - p_i) | / (2 half_width |p_i|)

A point whose smoothness exceeds the threshold is an edge candidate,
otherwise a planar candidate.  Selection is budgeted per ring and azimuthal
sector so features cover the whole scan.

The window's half width, the threshold, the sector count and the per-sector
budgets, the gap factor, the occlusion gap and the range limits are module
constants, fixed as LOAM fixes them.  Returns past MAX_RANGE enter no
window; returns nearer than MIN_RANGE are neighbours but are never scored.

Rings that span the full circle are treated as cyclic sequences; rings with
large azimuthal gaps (dropouts, limited geometry) are split into open
segments at the gaps, and segment endpoints are left unscored.

The whole scan is handled in one pass.  A stable sort by azimuth, then a
radix sort by ring, orders every ring; each ring's median gap is read from
its row of one table of sorted gaps.  The segments of all rings are laid
end to end, each cyclic one wrapped by half a window on either side, so
every smoothness window, occlusion test and edge suppression covers a
slice of one array.  Candidates are ordered by sigma, then by a radix sort
on their (sector, segment) group.

Edges are picked sector by sector and round by round, over the edge
candidates only, vectorised across all segments; every scan point records
suppressed_in, the first sector whose edge window covered it.  The planars
of all sectors are then picked in one pass: a planar candidate of sector s
stays while suppressed_in > s.  That is what a sector-by-sector pick sees,
as sector s picks its planars after its own edges and before the edges of
later sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from featslam.dataset_io import RawScan


@dataclass
class FeatureCloud:
    """Edge and planar feature points from one scan, in the sensor frame."""

    edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    planars: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))


NEIGHBORHOOD_HALF_WIDTH = 5
SMOOTHNESS_THRESHOLD = 0.1
MAX_EDGES_PER_SECTOR = 2
MAX_PLANARS_PER_SECTOR = 4
NUM_SECTORS = 6
# A ring is split into open segments where the azimuthal gap between
# consecutive points exceeds GAP_FACTOR x the ring's median gap.
GAP_FACTOR = 5.0
# Points on the far side of a range discontinuity (occlusion
# silhouettes) are viewpoint-dependent and excluded from selection.
OCCLUSION_GAP = 0.5
# m: returns past MAX_RANGE are dropped, those nearer than MIN_RANGE unscored
MIN_RANGE = 2.0
MAX_RANGE = 90.0


def sector_of(azimuth: np.ndarray, num_sectors: int) -> np.ndarray:
    """The sector, of num_sectors equal ones counted from -pi, of each
    azimuth (radians, in [-pi, pi]); pi wraps round to sector 0."""
    return np.floor((azimuth + np.pi) / (2 * np.pi) * num_sectors).astype(int) % num_sectors


def _argsort_ints(key: np.ndarray, top: int) -> np.ndarray:
    """Stable argsort of an integer key whose values, taken modulo 2**64,
    lie in [0, top].

    The key is cast to the narrowest unsigned dtype that holds top, which
    keeps every value (a difference that wrapped round too), and numpy's
    stable sort of 8- and 16-bit integers is a radix sort.
    """
    return np.argsort(key.astype(np.min_scalar_type(top)), kind="stable")


def _argsort_stable(values: np.ndarray) -> np.ndarray:
    """np.argsort(values, kind="stable") in less time: an unstable sort,
    then each run of equal values put back in index order by a stable sort
    of keys that are already sorted outside those runs."""
    order = np.argsort(values)
    ordered = values[order]
    key = order.copy()
    key[1:] += np.cumsum(ordered[1:] != ordered[:-1]) * len(order)
    return order[np.argsort(key, kind="stable")]


def _norms(p: np.ndarray) -> np.ndarray:
    """Row lengths of p (n x 3), as np.linalg.norm(p, axis=1) rounds them."""
    x, y, z = p.T
    return np.sqrt((x * x + y * y) + z * z)


def _ring_segments(ring: np.ndarray, azimuth: np.ndarray):
    """Order every ring by azimuth and split it into segments at gaps.

    A ring is cut after every gap wider than GAP_FACTOR x its median gap
    (the gap after its last point wraps round to its first).  A ring with
    no such gap is one cyclic segment; a cut ring becomes open segments,
    starting after its first cut.

    Returns (order, start, length, cyclic): the permutation of the points
    that lays the segments end to end in (ring, segment) order, and per
    segment its first position in that layout, its length and whether it
    is cyclic.
    """
    # by azimuth, then stably by ring: equal azimuths keep scan order
    by_azimuth = np.argsort(azimuth, kind="stable")
    low = ring.min()
    by_ring = by_azimuth[_argsort_ints((ring - low)[by_azimuth], int(ring.max()) - int(low))]
    ring, azimuth = ring[by_ring], azimuth[by_ring]
    n = len(ring)
    first = np.flatnonzero(np.r_[True, ring[1:] != ring[:-1]])
    count = np.diff(np.r_[first, n])
    ring_of = np.repeat(np.arange(len(first)), count)
    last = first + count - 1
    local = np.arange(n) - first[ring_of]

    following = np.r_[azimuth[1:], 0.0]
    following[last] = azimuth[first] + 2 * np.pi
    gaps = following - azimuth
    # each ring's gaps sorted in a row of a table padded with inf;
    # np.median's rule: the middle gap, or the mean of the middle two
    table = np.full((len(first), count.max()), np.inf)
    table[ring_of, local] = gaps
    table.sort(axis=1)
    rows = np.arange(len(first))
    median = (table[rows, (count - 1) // 2] + table[rows, count // 2]) / 2
    big = gaps > GAP_FACTOR * np.maximum(median, 1e-9)[ring_of]

    cuts = np.flatnonzero(big)
    first_cut = cuts[np.diff(ring_of[cuts], prepend=-1) != 0]
    rotate = np.zeros(len(first), dtype=int)
    rotate[ring_of[first_cut]] = first_cut - first[ring_of[first_cut]] + 1
    order = first[ring_of] + (local + rotate[ring_of]) % count[ring_of]

    ends = big[order]
    ends[last] = True
    stop = np.flatnonzero(ends) + 1
    start = np.r_[0, stop[:-1]]
    return by_ring[order], start, stop - start, rotate[ring_of[start]] == 0


def extract_features(scan: RawScan) -> FeatureCloud:
    """Classify scan points into edge and planar features.

    Per ring and azimuthal sector: candidates sorted by smoothness; up to
    MAX_EDGES_PER_SECTOR with sigma > SMOOTHNESS_THRESHOLD become edges, up
    to MAX_PLANARS_PER_SECTOR with sigma <= it become planars.  Points past
    MAX_RANGE are dropped first, as RawScan drops non-finite ones; points
    nearer than MIN_RANGE are not scored.  Points within
    NEIGHBORHOOD_HALF_WIDTH of a selected edge are suppressed from further
    selection.

    Features come out in (ring, segment, sector, pick) order.
    """
    xyz, ring, rng = scan.xyz, scan.ring, _norms(scan.xyz)
    kept = rng <= MAX_RANGE
    if not kept.all():
        xyz, ring, rng = xyz[kept], ring[kept], rng[kept]
    if len(xyz) == 0:
        return FeatureCloud()

    hw = NEIGHBORHOOD_HALF_WIDTH
    w = 2 * hw + 1
    num_sectors = NUM_SECTORS
    azimuth = np.arctan2(xyz[:, 1], xyz[:, 0])
    order, start, length, cyclic = _ring_segments(ring, azimuth)

    # lay the segments end to end, each cyclic one wrapped by half a window
    # on either side, so that every window is a slice of the layout
    pad = np.where(cyclic, hw, 0)
    span = length + 2 * pad
    num_segments = len(span)
    seg = np.repeat(np.arange(num_segments), span)
    local = np.arange(len(seg)) - np.repeat(np.cumsum(span) - span + pad, span)
    source = order[start[seg] + local % length[seg]]
    pts = xyz.take(source, axis=0)
    rng = rng.take(source)

    # window centres: every point of a cyclic segment (not its wrap copies)
    # and the interior of an open one, in segments at least a window long;
    # each is at least hw from either end of the layout
    margin = (hw - pad)[seg]
    centre = (length[seg] >= w) & (local >= margin) & (local < length[seg] - margin)
    centre &= rng >= MIN_RANGE
    if not centre.any():
        return FeatureCloud()
    # the far side of an occlusion silhouette is viewpoint-dependent: some
    # neighbour is nearer by more than the gap.  Rounded subtraction is
    # monotone, so testing the nearest neighbour decides as testing each does
    inner = len(pts) - 2 * hw
    nearest = rng[:inner]
    for k in range(1, w):
        if k != hw:
            nearest = np.minimum(nearest, rng[k : inner + k])
    centre[hw : hw + inner] &= rng[hw : hw + inner] - nearest <= OCCLUSION_GAP
    cand = np.flatnonzero(centre)

    # add each window up one neighbour at a time, in order: this rounds as
    # the per-ring loop's window sums and convolutions do, bit for bit
    window_sum = pts[:inner] + pts[1 : inner + 1]
    for k in range(2, w):
        window_sum += pts[k : inner + k]
    sigma = _norms(window_sum - w * pts[hw : hw + inner])[cand - hw] / (2 * hw * rng[cand])
    sector = sector_of(azimuth[source[cand]], num_sectors)

    # candidates grouped by (sector, segment), in ascending sigma with ties
    # in layout order
    group = sector * num_segments + seg[cand]
    by_sigma = _argsort_stable(sigma)
    by_group = by_sigma[_argsort_ints(group[by_sigma], num_sectors * num_segments - 1)]
    cand, group, sector = cand[by_group], group[by_group], sector[by_group]
    is_edge = sigma[by_group] > SMOOTHNESS_THRESHOLD

    # edges, sector by sector, one per segment a round: the highest sigma
    # not yet suppressed, ties to the later point; its window is suppressed
    # before the next.  suppressed_in holds, per scan point, the first
    # sector whose edge window covered it.
    edge = cand[is_edge]
    bounds = np.searchsorted(sector[is_edge], np.arange(num_sectors + 1))
    suppressed_in = np.full(len(xyz), num_sectors)
    window = np.arange(-hw, hw + 1)
    edges = [edge[:0]]
    for s in range(num_sectors):
        block = slice(bounds[s], bounds[s + 1])
        block_edge = edge[block]
        block_point, block_seg = source[block_edge], seg[block_edge]
        for _ in range(MAX_EDGES_PER_SECTOR):
            pick = np.flatnonzero(suppressed_in[block_point] > s)
            if len(pick) == 0:
                break
            pick = block_edge[pick[np.diff(block_seg[pick], append=-1) != 0]]
            covered = source[pick[:, None] + window]
            suppressed_in[covered] = np.minimum(suppressed_in[covered], s)
            edges.append(pick)

    # planars, all sectors at once: the lowest-sigma candidates, ties to the
    # earlier point, that no edge window of this or an earlier sector covered
    # (the planars of sector s are picked after its edges, before those of
    # later sectors)
    keep = ~is_edge & (suppressed_in[source[cand]] > sector)
    planar, group = cand[keep], group[keep]
    run = np.arange(len(planar))
    new_group = np.r_[True, group[1:] != group[:-1]]
    rank = run - np.maximum.accumulate(np.where(new_group, run, 0))
    planar = planar[rank < MAX_PLANARS_PER_SECTOR]

    def by_segment(at):
        # picks come in (sector, pick) order per segment
        return pts.take(at[_argsort_ints(seg[at], num_segments - 1)], axis=0)

    return FeatureCloud(edges=by_segment(np.concatenate(edges)), planars=by_segment(planar))
