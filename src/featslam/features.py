"""Edge/planar feature extraction from scans by local point smoothness.

Points are grouped per laser ring and ordered by azimuth.  The smoothness of
point i over a +/-half_width window is

    sigma_i = | sum_{j in window, j != i} (p_j - p_i) | / (2 half_width |p_i|)

A point whose smoothness exceeds the threshold is an edge candidate,
otherwise a planar candidate.  Selection is budgeted per ring and azimuthal
sector so features cover the whole scan.

Rings that span the full circle are treated as cyclic sequences; rings with
large azimuthal gaps (dropouts, limited geometry) are split into open
segments at the gaps, and segment endpoints are left unscored.

The whole scan is handled in one pass: one sort orders every ring, and
the segments of all rings are laid end to end, each cyclic one wrapped by
half a window on either side, so every smoothness window, occlusion test
and edge suppression covers a slice of one array.  Selection loops only
over sectors and edge rounds, vectorised across all segments.
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
    frame_index: int = 0

    def __len__(self) -> int:
        return len(self.edges) + len(self.planars)


@dataclass
class FeatureConfig:
    neighborhood_half_width: int = 5
    smoothness_threshold: float = 0.1
    min_range: float = 2.0
    max_range: float = 90.0
    max_edges_per_sector: int = 2
    max_planars_per_sector: int = 4
    num_sectors: int = 6
    # A ring is split into open segments where the azimuthal gap between
    # consecutive points exceeds gap_factor x the ring's median gap.
    gap_factor: float = 5.0
    # Points on the far side of a range discontinuity (occlusion
    # silhouettes) are viewpoint-dependent and excluded from selection.
    occlusion_gap: float = 0.5

    def __post_init__(self):
        if self.neighborhood_half_width <= 0 or self.num_sectors <= 0:
            raise ValueError("window and sector counts must be positive")
        if not (0 < self.min_range < self.max_range):
            raise ValueError("need 0 < min_range < max_range")


def _ring_segments(ring: np.ndarray, azimuth: np.ndarray, gap_factor: float):
    """Order every ring by azimuth and split it into segments at gaps.

    A ring is cut after every gap wider than gap_factor x its median gap
    (the gap after its last point wraps round to its first).  A ring with
    no such gap is one cyclic segment; a cut ring becomes open segments,
    starting after its first cut.

    Returns (order, start, length, cyclic): the permutation of the points
    that lays the segments end to end in (ring, segment) order, and per
    segment its first position in that layout, its length and whether it
    is cyclic.
    """
    by_ring = np.lexsort((azimuth, ring))  # stable: equal azimuths keep scan order
    ring, azimuth = ring[by_ring], azimuth[by_ring]
    n = len(ring)
    first = np.flatnonzero(np.r_[True, ring[1:] != ring[:-1]])
    count = np.diff(np.r_[first, n])
    ring_of = np.repeat(np.arange(len(first)), count)
    last = first + count - 1

    following = np.r_[azimuth[1:], 0.0]
    following[last] = azimuth[first] + 2 * np.pi
    gaps = following - azimuth
    by_gap = gaps[np.lexsort((gaps, ring_of))]
    # np.median's rule: the middle gap, or the mean of the middle two
    median = (by_gap[first + (count - 1) // 2] + by_gap[first + count // 2]) / 2
    big = gaps > gap_factor * np.maximum(median, 1e-9)[ring_of]

    cuts = np.flatnonzero(big)
    first_cut = cuts[np.diff(ring_of[cuts], prepend=-1) != 0]
    rotate = np.zeros(len(first), dtype=int)
    rotate[ring_of[first_cut]] = first_cut - first[ring_of[first_cut]] + 1
    local = np.arange(n) - first[ring_of]
    order = np.empty(n, dtype=int)
    order[first[ring_of] + (local - rotate[ring_of]) % count[ring_of]] = np.arange(n)

    ends = big[order]
    ends[last] = True
    stop = np.flatnonzero(ends) + 1
    start = np.r_[0, stop[:-1]]
    return by_ring[order], start, stop - start, rotate[ring_of[order[start]]] == 0


def extract_features(scan: RawScan, cfg: FeatureConfig | None = None) -> FeatureCloud:
    """Classify scan points into edge and planar features.

    Per ring and azimuthal sector: candidates sorted by smoothness; up to
    max_edges_per_sector with sigma > threshold become edges, up to
    max_planars_per_sector with sigma <= threshold become planars.  Points
    within half_width of a selected edge are suppressed from further
    selection.  Non-finite points are dropped first, as load_scan does.

    Features come out in (ring, segment, sector, pick) order.
    """
    cfg = cfg or FeatureConfig()
    finite = np.isfinite(scan.xyz).all(axis=1)
    xyz, ring = scan.xyz[finite], scan.ring[finite]
    if len(xyz) == 0:
        return FeatureCloud(frame_index=scan.timestamp_index)

    hw = cfg.neighborhood_half_width
    w = 2 * hw + 1
    azimuth = np.arctan2(xyz[:, 1], xyz[:, 0])
    order, start, length, cyclic = _ring_segments(ring, azimuth, cfg.gap_factor)

    # lay the segments end to end, each cyclic one wrapped by half a window
    # on either side, so that every window is a slice of the layout
    pad = np.where(cyclic, hw, 0)
    span = length + 2 * pad
    seg = np.repeat(np.arange(len(span)), span)
    local = np.arange(len(seg)) - np.repeat(np.cumsum(span) - span + pad, span)
    source = order[start[seg] + local % length[seg]]
    pts = xyz[source]
    rng = np.linalg.norm(pts, axis=1)

    # window centres: every point of a cyclic segment (not its wrap copies)
    # and the interior of an open one, in segments at least a window long
    margin = (hw - pad)[seg]
    centre = (length[seg] >= w) & (local >= margin) & (local < length[seg] - margin)
    centre &= (rng >= cfg.min_range) & (rng <= cfg.max_range)
    cand = np.flatnonzero(centre)
    if len(cand) == 0:
        return FeatureCloud(frame_index=scan.timestamp_index)
    # the far side of an occlusion silhouette is viewpoint-dependent
    occluded = np.zeros(len(cand), dtype=bool)
    for k in range(1, hw + 1):
        occluded |= (rng[cand] - rng[cand - k]) > cfg.occlusion_gap
        occluded |= (rng[cand] - rng[cand + k]) > cfg.occlusion_gap
    cand = cand[~occluded]

    # add each window up one neighbour at a time, in order: this rounds as
    # the per-ring loop's window sums and convolutions do, bit for bit
    inner = len(pts) - 2 * hw
    window_sum = pts[:inner]
    for k in range(1, w):
        window_sum = window_sum + pts[k : inner + k]
    diff = window_sum[cand - hw] - w * pts[cand]
    sigma = np.linalg.norm(diff, axis=1) / (2 * hw * rng[cand])
    sector = np.floor(
        (azimuth[source[cand]] + np.pi) / (2 * np.pi) * cfg.num_sectors
    ).astype(int) % cfg.num_sectors

    # candidates grouped by sector, then segment, in ascending sigma with
    # ties in segment order; each selection step works on one sector's
    # block for all segments at once
    by_sigma = np.lexsort((sigma, seg[cand], sector))
    cand, sigma = cand[by_sigma], sigma[by_sigma]
    cand_seg, cand_point = seg[cand], source[cand]
    bounds = np.searchsorted(sector[by_sigma], np.arange(cfg.num_sectors + 1))
    is_edge = sigma > cfg.smoothness_threshold
    suppressed = np.zeros(len(xyz), dtype=bool)  # by scan point
    edge_rank = np.full(len(pts), -1)
    planar_rank = np.full(len(pts), -1)
    for s in range(cfg.num_sectors):
        lo, hi = bounds[s], bounds[s + 1]
        # one edge per segment a round: the highest sigma not yet suppressed,
        # ties to the later point; its window is suppressed before the next
        for r in range(cfg.max_edges_per_sector):
            pick = lo + np.flatnonzero(is_edge[lo:hi] & ~suppressed[cand_point[lo:hi]])
            if len(pick) == 0:
                break
            pick = pick[np.diff(cand_seg[pick], append=-1) != 0]
            suppressed[source[cand[pick, None] + np.arange(-hw, hw + 1)]] = True
            edge_rank[cand[pick]] = s * cfg.max_edges_per_sector + r
        # the lowest-sigma survivors, ties to the earlier point
        pick = lo + np.flatnonzero(~is_edge[lo:hi] & ~suppressed[cand_point[lo:hi]])
        run = np.arange(len(pick))
        new_seg = np.diff(cand_seg[pick], prepend=-1) != 0
        rank = run - np.maximum.accumulate(np.where(new_seg, run, 0))
        keep = rank < cfg.max_planars_per_sector
        planar_rank[cand[pick[keep]]] = s * cfg.max_planars_per_sector + rank[keep]

    def in_pick_order(rank):
        at = np.flatnonzero(rank >= 0)
        return pts[at[np.lexsort((rank[at], seg[at]))]]

    return FeatureCloud(
        edges=in_pick_order(edge_rank),
        planars=in_pick_order(planar_rank),
        frame_index=scan.timestamp_index,
    )
