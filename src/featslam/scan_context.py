"""Yaw-invariant polar descriptors for place recognition.

A feature cloud is summarized as a ring x sector matrix of maximum point
heights. Matching a pair of descriptors scans all cyclic column shifts, so
the distance is invariant to the yaw at which a place is revisited. The
shifts are scored together: the dot products of every column pair are
formed once, and each shift gathers the pairs it lines up.

The database is a list in keyframe order, as in Kim & Kim (IROS 2018): a
descriptor's position in it is its keyframe index.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import FeatureCloud

EMPTY_BIN = -1000.0
_OCCUPIED_FLOOR = -999.0  # bins hold real z values (meters); never this low


@dataclass
class ScanContextConfig:
    num_rings: int = 20
    num_sectors: int = 60
    max_radius: float = 80.0
    num_candidates: int = 10
    similarity_threshold: float = 0.2
    exclude_recent: int = 50

    def __post_init__(self):
        for name in ("num_rings", "num_sectors", "num_candidates"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # descriptor distances are >= 0, so a threshold <= 0 accepts no match
        for name in ("max_radius", "similarity_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.exclude_recent >= 0:
            raise ValueError(f"exclude_recent must be >= 0, got {self.exclude_recent}")


@dataclass
class ScanContextDescriptor:
    matrix: np.ndarray  # (num_rings, num_sectors), EMPTY_BIN where no points
    ring_key: np.ndarray  # (num_rings,) occupancy ratio in [0, 1]


@dataclass
class CandidateMatch:
    candidate_keyframe_index: int
    descriptor_distance: float
    best_column_shift: int


def build_descriptor(features: FeatureCloud, cfg: ScanContextConfig) -> ScanContextDescriptor:
    """Bin edge and planar points together by (planar range, azimuth)."""
    pts = np.vstack([features.edges, features.planars])
    matrix = np.full((cfg.num_rings, cfg.num_sectors), EMPTY_BIN)
    if len(pts):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        keep = rho < cfg.max_radius
        pts, rho = pts[keep], rho[keep]
    if len(pts):
        ring = np.floor(rho / (cfg.max_radius / cfg.num_rings)).astype(int)
        ring = np.minimum(ring, cfg.num_rings - 1)  # rho just below max_radius can round up
        azimuth = np.arctan2(pts[:, 1], pts[:, 0])
        sector = np.floor(
            (azimuth + np.pi) / (2.0 * np.pi) * cfg.num_sectors
        ).astype(int) % cfg.num_sectors
        np.maximum.at(matrix, (ring, sector), pts[:, 2])
    ring_key = (matrix > _OCCUPIED_FLOOR).mean(axis=1)
    return ScanContextDescriptor(matrix, ring_key)


def shift_to_yaw(shift: int, num_sectors: int) -> float:
    """Yaw of the probe sensor relative to the matched sensor, radians.

    The minimizing column shift of descriptor_distance(probe, candidate)
    equals the probe yaw offset in sectors; shifts past half a turn wrap
    to the negative side.
    """
    if shift > num_sectors // 2:
        shift -= num_sectors
    return shift * (2.0 * np.pi / num_sectors)


def descriptor_distance(a: ScanContextDescriptor, b: ScanContextDescriptor):
    """Minimum column-wise cosine distance over all cyclic sector shifts.

    Returns (distance in [0, 1], best shift); the first of equally good
    shifts wins. Columns empty in both descriptors are skipped; if every
    column is skipped the distance is 1.
    """
    if a.matrix.shape != b.matrix.shape:
        raise ValueError(
            f"descriptor shapes differ: {a.matrix.shape} vs {b.matrix.shape}"
        )
    num_sectors = a.matrix.shape[1]
    a_occ = a.matrix > _OCCUPIED_FLOOR
    b_occ = b.matrix > _OCCUPIED_FLOOR
    a_col_occ = a_occ.any(axis=0)
    b_col_occ = b_occ.any(axis=0)
    if not (a_col_occ.any() or b_col_occ.any()):
        return (1.0, 0)
    av = np.where(a_occ, a.matrix, 0.0)
    bv = np.where(b_occ, b.matrix, 0.0)
    # row s, column j: b's column that faces a's column j at shift s
    column = np.arange(num_sectors)
    shifted = (column[:, None] + column) % num_sectors
    col_occ = a_col_occ | b_col_occ[shifted]
    # every column pair's dot product, summed over rings in ring order
    dot = (av[:, :, None] * bv[:, None, :]).sum(axis=0)[column, shifted]
    denom = np.linalg.norm(av, axis=0) * np.linalg.norm(bv, axis=0)[shifted]
    # a zero column against an occupied one carries no directional
    # information: score it as maximally distant rather than dividing
    cos = np.where(denom > 0.0, dot / np.where(denom > 0.0, denom, 1.0), 0.0)
    col_dist = 1.0 - cos
    # snap float dust to zero so shifted twins compare exactly equal
    col_dist = np.where(np.abs(col_dist) < 1e-12, 0.0, col_dist)
    mean = np.where(col_occ, col_dist, 0.0).sum(axis=1) / col_occ.sum(axis=1)
    dist = np.clip(mean, 0.0, 1.0)
    shift = int(np.argmin(dist))  # a distance of 1 at every shift gives (1.0, 0)
    return (float(dist[shift]), shift)


def query(
    database: Sequence[ScanContextDescriptor],
    probe: ScanContextDescriptor,
    cfg: ScanContextConfig,
) -> Optional[CandidateMatch]:
    """Two-stage retrieval: ring-key nearest neighbors, then full distance.

    ``database[i]`` is keyframe i's descriptor and the probe is keyframe
    ``len(database)``; the last ``exclude_recent`` keyframes are not searched.
    """
    eligible = database[: max(0, len(database) - cfg.exclude_recent)]
    if not eligible:
        return None
    keys = np.stack([d.ring_key for d in eligible])
    key_dist = np.linalg.norm(keys - probe.ring_key, axis=1)
    order = np.argsort(key_dist, kind="stable")[: cfg.num_candidates]

    best: Optional[CandidateMatch] = None
    for idx in order:
        cand = eligible[idx]
        dist, shift = descriptor_distance(probe, cand)
        if best is None or dist < best.descriptor_distance:
            best = CandidateMatch(int(idx), dist, shift)
    if best is not None and best.descriptor_distance < cfg.similarity_threshold:
        return best
    return None
