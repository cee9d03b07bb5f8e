"""Per-element reference implementations, kept as test oracles.

``features.extract_features`` and ``scan_context.descriptor_distance`` do
their work in whole-array numpy passes.  The functions here are the
straightforward loops they replace: per ring, segment, sector and candidate
for feature extraction, and per column shift for the descriptor distance.
Tests compare the two on seeded inputs; nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np

from featslam.dataset_io import RawScan
from featslam.features import FeatureCloud, FeatureConfig
from featslam.scan_context import _OCCUPIED_FLOOR as OCCUPIED_FLOOR
from featslam.scan_context import ScanContextDescriptor


def compute_smoothness(
    ring_points: np.ndarray, i: int, half_width: int, min_range: float = 0.0
):
    """Smoothness of point i in an ordered list of ring points.

    Returns None ("unscored") when the point is closer to the sensor than
    min_range.  Requires half_width <= i < len(ring_points) - half_width.
    """
    pts = np.asarray(ring_points, dtype=float)
    if not (half_width <= i < len(pts) - half_width):
        raise IndexError("window does not fit inside the ring ordering")
    p = pts[i]
    r = np.linalg.norm(p)
    if r < min_range:
        return None
    window = pts[i - half_width : i + half_width + 1]
    diff = window.sum(axis=0) - (2 * half_width + 1) * p
    return float(np.linalg.norm(diff) / (2 * half_width * r))


def segment_smoothness(pts: np.ndarray, half_width: int, cyclic: bool):
    """Vectorized smoothness over one ring segment.

    Returns (sigma, scorable) arrays; non-scorable entries hold sigma = inf.
    For open segments the first/last half_width points are unscored.
    """
    n = len(pts)
    sigma = np.full(n, np.inf)
    scorable = np.zeros(n, dtype=bool)
    w = 2 * half_width + 1
    if cyclic:
        if n < w:
            return sigma, scorable
        idx = (np.arange(n)[:, None] + np.arange(-half_width, half_width + 1)) % n
        window_sum = pts[idx].sum(axis=1)
        centers = np.arange(n)
    else:
        if n < w:
            return sigma, scorable
        kernel = np.ones(w)
        window_sum = np.stack(
            [np.convolve(pts[:, k], kernel, mode="valid") for k in range(3)], axis=1
        )
        centers = np.arange(half_width, n - half_width)
    p = pts[centers]
    r = np.linalg.norm(p, axis=1)
    diff = window_sum - w * p
    ok = r > 0
    vals = np.full(len(centers), np.inf)
    vals[ok] = np.linalg.norm(diff[ok], axis=1) / (2 * half_width * r[ok])
    sigma[centers] = vals
    scorable[centers] = ok
    return sigma, scorable


def occluded(rng: np.ndarray, half_width: int, cyclic: bool, gap: float):
    """True where some window neighbor is closer by more than gap meters:
    the point sits on the far side of an occlusion silhouette."""
    n = len(rng)
    flag = np.zeros(n, dtype=bool)
    if n < 2:
        return flag
    for k in range(1, half_width + 1):
        if cyclic:
            flag |= (rng - np.roll(rng, k)) > gap
            flag |= (rng - np.roll(rng, -k)) > gap
        else:
            flag[k:] |= (rng[k:] - rng[:-k]) > gap
            flag[:-k] |= (rng[:-k] - rng[k:]) > gap
    return flag


def ring_segments(azimuth: np.ndarray, gap_factor: float):
    """Split an azimuth-sorted ring into (indices, cyclic) segments at gaps."""
    n = len(azimuth)
    gaps = np.diff(azimuth, append=azimuth[0] + 2 * np.pi)  # cyclic gaps
    median_gap = np.median(gaps)
    big = gaps > gap_factor * max(median_gap, 1e-9)
    if not big.any():
        return [(np.arange(n), True)]
    cut_after = np.flatnonzero(big)
    segments = []
    for k in range(len(cut_after)):
        start = (cut_after[k] + 1) % n
        stop = cut_after[(k + 1) % len(cut_after)]
        if stop >= start:
            seg = np.arange(start, stop + 1)
        else:
            seg = np.concatenate([np.arange(start, n), np.arange(0, stop + 1)])
        segments.append((seg, False))
    return segments


def extract_features(scan: RawScan, cfg: FeatureConfig | None = None) -> FeatureCloud:
    """The per-ring loop that features.extract_features replaces.

    Per ring and azimuthal sector: candidates sorted by smoothness; up to
    max_edges_per_sector with sigma > threshold become edges, up to
    max_planars_per_sector with sigma <= threshold become planars.  Points
    within half_width of a selected edge are suppressed from further
    selection.
    """
    cfg = cfg or FeatureConfig()
    if len(scan) == 0:
        return FeatureCloud(frame_index=scan.timestamp_index)

    hw = cfg.neighborhood_half_width
    edges, planars = [], []
    for ring_id in np.unique(scan.ring):
        pts = scan.xyz[scan.ring == ring_id]
        if len(pts) < 2 * hw + 1:
            continue
        azimuth = np.arctan2(pts[:, 1], pts[:, 0])
        order = np.argsort(azimuth, kind="stable")
        pts = pts[order]
        azimuth = azimuth[order]

        for seg_idx, cyclic in ring_segments(azimuth, cfg.gap_factor):
            seg = pts[seg_idx]
            sigma, scorable = segment_smoothness(seg, hw, cyclic)
            rng = np.linalg.norm(seg, axis=1)
            scorable &= (rng >= cfg.min_range) & (rng <= cfg.max_range)
            scorable &= ~occluded(rng, hw, cyclic, cfg.occlusion_gap)

            sector = np.floor(
                (azimuth[seg_idx] + np.pi) / (2 * np.pi) * cfg.num_sectors
            ).astype(int) % cfg.num_sectors

            suppressed = np.zeros(len(seg), dtype=bool)
            n = len(seg)
            for s in range(cfg.num_sectors):
                cand = np.flatnonzero(scorable & (sector == s))
                if len(cand) == 0:
                    continue
                by_sigma = cand[np.argsort(sigma[cand], kind="stable")]
                picked_edges = 0
                for i in by_sigma[::-1]:
                    if picked_edges >= cfg.max_edges_per_sector:
                        break
                    if sigma[i] <= cfg.smoothness_threshold:
                        break  # descending order: no edge candidates remain
                    if suppressed[i]:
                        continue
                    edges.append(seg[i])
                    picked_edges += 1
                    lo, hi = i - hw, i + hw
                    if cyclic:
                        suppressed[np.arange(lo, hi + 1) % n] = True
                    else:
                        suppressed[max(lo, 0) : min(hi + 1, n)] = True
                picked_planars = 0
                for i in by_sigma:
                    if picked_planars >= cfg.max_planars_per_sector:
                        break
                    if sigma[i] > cfg.smoothness_threshold:
                        break
                    if suppressed[i]:
                        continue
                    planars.append(seg[i])
                    picked_planars += 1

    return FeatureCloud(
        edges=np.array(edges) if edges else np.zeros((0, 3)),
        planars=np.array(planars) if planars else np.zeros((0, 3)),
        frame_index=scan.timestamp_index,
    )


def descriptor_distance(a: ScanContextDescriptor, b: ScanContextDescriptor):
    """The per-shift loop that scan_context.descriptor_distance replaces.

    Returns (distance in [0, 1], best shift). Columns empty in both
    descriptors are skipped; if every column is skipped the distance is 1.
    """
    if a.matrix.shape != b.matrix.shape:
        raise ValueError(
            f"descriptor shapes differ: {a.matrix.shape} vs {b.matrix.shape}"
        )
    num_sectors = a.matrix.shape[1]
    a_occ = a.matrix > OCCUPIED_FLOOR
    b_occ = b.matrix > OCCUPIED_FLOOR
    av = np.where(a_occ, a.matrix, 0.0)
    bv = np.where(b_occ, b.matrix, 0.0)
    a_col_occ = a_occ.any(axis=0)
    a_norm = np.linalg.norm(av, axis=0)

    best = (1.0, 0)
    for shift in range(num_sectors):
        bs = np.roll(bv, -shift, axis=1)
        col_occ = a_col_occ | np.roll(b_occ.any(axis=0), -shift)
        if not col_occ.any():
            continue
        b_norm = np.roll(np.linalg.norm(bv, axis=0), -shift)
        dot = (av * bs).sum(axis=0)
        denom = a_norm * b_norm
        # a zero column against an occupied one carries no directional
        # information: score it as maximally distant rather than dividing
        cos = np.where(denom > 0.0, dot / np.where(denom > 0.0, denom, 1.0), 0.0)
        col_dist = 1.0 - cos
        # snap float dust to zero so shifted twins compare exactly equal
        col_dist = np.where(np.abs(col_dist) < 1e-12, 0.0, col_dist)
        d = float(np.clip(col_dist[col_occ].mean(), 0.0, 1.0))
        if d < best[0]:
            best = (d, shift)
    return best
