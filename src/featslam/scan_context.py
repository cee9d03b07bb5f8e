"""Yaw-invariant polar descriptors for place recognition.

A feature cloud is summarized as a ring x sector matrix of maximum point
heights: ``NUM_RINGS`` rings of equal width out to ``MAX_RADIUS``, the 20
rings and 80 m that Kim & Kim (IROS 2018) fix, by ``num_sectors`` sectors.
Matching a pair of descriptors scans all cyclic column shifts, so the
distance is invariant to the yaw at which a place is revisited. A query
scores a stack of candidates against the probe, every shift together: one
product forms the dot products of every column pair, and each shift
gathers the pairs it lines up.

The database is a list in keyframe order, as in Kim & Kim: a descriptor's
position in it is its keyframe index.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import FeatureCloud, sector_of

EMPTY_BIN = -1000.0  # bins hold real z values (meters); never this low
NUM_CANDIDATES = 10  # ring-key nearest neighbours scored by the full distance
NUM_RINGS = 20
MAX_RADIUS = 80.0  # m; points at this planar range or beyond are not binned


@dataclass
class ScanContextConfig:
    num_sectors: int = 60
    similarity_threshold: float = 0.2
    exclude_recent: int = 50

    def __post_init__(self):
        if not self.num_sectors >= 1:
            raise ValueError(f"num_sectors must be >= 1, got {self.num_sectors}")
        # descriptor distances are >= 0, so a threshold <= 0 accepts no match
        if not self.similarity_threshold > 0:
            raise ValueError(
                f"similarity_threshold must be > 0, got {self.similarity_threshold}")
        if not self.exclude_recent >= 0:
            raise ValueError(f"exclude_recent must be >= 0, got {self.exclude_recent}")


@dataclass
class ScanContextDescriptor:
    # a stack of descriptors has leading axes on both fields
    matrix: np.ndarray  # (..., NUM_RINGS, num_sectors), EMPTY_BIN where no points
    ring_key: np.ndarray  # (..., NUM_RINGS) occupancy ratio in [0, 1]


@dataclass
class CandidateMatch:
    candidate_keyframe_index: int
    descriptor_distance: float
    best_column_shift: int


def build_descriptor(features: FeatureCloud, cfg: ScanContextConfig) -> ScanContextDescriptor:
    """Bin edge and planar points together by (planar range, azimuth)."""
    pts = np.vstack([features.edges, features.planars])
    rho = np.hypot(pts[:, 0], pts[:, 1])
    keep = rho < MAX_RADIUS
    pts, rho = pts[keep], rho[keep]
    ring = np.floor(rho / (MAX_RADIUS / NUM_RINGS)).astype(int)
    ring = np.minimum(ring, NUM_RINGS - 1)  # rho just below MAX_RADIUS can round up
    azimuth = np.arctan2(pts[:, 1], pts[:, 0])
    sector = sector_of(azimuth, cfg.num_sectors)
    matrix = np.full((NUM_RINGS, cfg.num_sectors), EMPTY_BIN)
    np.maximum.at(matrix, (ring, sector), pts[:, 2])
    ring_key = (matrix > EMPTY_BIN).mean(axis=1)
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

    ``b.matrix`` may be a stack ``(..., rings, sectors)`` of candidates,
    each scored against ``a``. Returns (distance in [0, 1], best shift),
    each of the stack's leading shape; the first of equally good shifts
    wins. Columns empty in both descriptors are skipped; if every column is
    skipped the distance is 1.
    """
    if a.matrix.shape != b.matrix.shape[-2:]:
        raise ValueError(
            f"descriptor shapes differ: {a.matrix.shape} vs {b.matrix.shape}"
        )
    num_sectors = a.matrix.shape[1]
    a_occ = a.matrix > EMPTY_BIN
    b_occ = b.matrix > EMPTY_BIN
    av = np.where(a_occ, a.matrix, 0.0)
    bv = np.where(b_occ, b.matrix, 0.0)
    # row s, column j: b's column that faces a's column j at shift s
    column = np.arange(num_sectors)
    shifted = (column[:, None] + column) % num_sectors
    col_occ = a_occ.any(axis=0) | b_occ.any(axis=-2)[..., shifted]
    # every column pair's dot product
    dot = (av.T @ bv)[..., column, shifted]
    denom = np.linalg.norm(av, axis=0) * np.linalg.norm(bv, axis=-2)[..., shifted]
    # a zero column against an occupied one carries no directional
    # information: score it as maximally distant rather than dividing
    cos = np.where(denom > 0.0, dot / np.where(denom > 0.0, denom, 1.0), 0.0)
    col_dist = 1.0 - cos
    # snap float dust to zero so shifted twins compare exactly equal
    col_dist = np.where(np.abs(col_dist) < 1e-12, 0.0, col_dist)
    count = col_occ.sum(axis=-1)
    total = np.where(col_occ, col_dist, 0.0).sum(axis=-1)
    dist = np.where(count > 0, np.clip(total / np.maximum(count, 1), 0.0, 1.0), 1.0)
    return dist.min(axis=-1), dist.argmin(axis=-1)


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
    order = np.argsort(key_dist, kind="stable")[:NUM_CANDIDATES]
    dist, shift = descriptor_distance(probe, ScanContextDescriptor(
        np.stack([eligible[idx].matrix for idx in order]), keys[order]))
    best = int(np.argmin(dist))  # the first of ties
    match = CandidateMatch(int(order[best]), float(dist[best]), int(shift[best]))
    return match if match.descriptor_distance < cfg.similarity_threshold else None
