"""Digest of the bench worlds' runs, for checking that a change keeps
trajectories, loop decisions and graph solves bit for bit.

    PYTHONPATH=src python3 tests/run_digest.py > change.json
    (cd <other checkout> && PYTHONPATH=src python3 tests/run_digest.py) > parent.json
    cmp parent.json change.json

``featslam`` is imported from ``PYTHONPATH`` and the worlds and configs
are read from this checkout's ``bench/workloads.py``.  The script calls
the package's public functions, so it digests a checkout whose signatures
it was written for: when a change alters one, run each checkout's own
script against its own ``src`` and ``cmp`` the outputs.  Each script reads
its own checkout's ``bench/workloads.py``, so the two must hold the same
workloads.  Each of loop_square, aliased_rooms and
odometry_square runs at seeds 0, 1 and 2.  The output is sorted JSON: per
run, the sha256 of the stacked trajectory, odometry and keyframe-pose
matrices, of the keyframe frame indices, of each frame's registration
iterations (-1 for the unregistered first frame) and of the other per-frame
registration diagnostics (the ``frames.csv`` fields converged through
final_cost, a NaN row for the first frame), ``(from, to, accepted,
cost.hex())`` per loop attempt
and ``(iterations, final_cost.hex())`` per solve.  The iteration counts have
their own digest, so a change that moves only them shows as exactly that;
so do the attempts' Scan Context distances (``sc_distances``, one sha256
of their float64 values in attempt order), the features (one sha256
over every frame's ``extract_features`` edges and planars, with their
counts, in frame order) and the TUM writer (``tum``, the sha256 of the
file ``export_trajectory(trajectory, path, "tum")`` writes).  BLAS runs on
one thread.
"""

import os

# before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from featslam.dataset_io import export_trajectory
from featslam.features import extract_features
from featslam.pipeline import PipelineConfig, run_slam
from featslam.simulate import generate_world

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import WORKLOADS  # noqa: E402

NAMES = ("loop_square", "aliased_rooms", "odometry_square")
SEEDS = (0, 1, 2)


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _poses(poses) -> str:
    return _sha256(np.stack([p.matrix() for p in poses]))


def _iterations(registrations) -> str:
    return _sha256(np.array([-1 if reg is None else reg.iterations
                             for reg in registrations], dtype=np.int64))


def _registrations(registrations) -> str:
    rows = np.full((len(registrations), 5), np.nan)
    for row, reg in zip(rows, registrations):
        if reg is not None:
            row[:] = (reg.converged, reg.degenerate_directions,
                      reg.num_edge_matches, reg.num_plane_matches, reg.final_cost)
    return _sha256(rows)


def _features(scans) -> str:
    h = hashlib.sha256()
    for scan in scans:
        fc = extract_features(scan)
        h.update(np.array([len(fc.edges), len(fc.planars)], dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(fc.edges).tobytes())
        h.update(np.ascontiguousarray(fc.planars).tobytes())
    return h.hexdigest()


def _tum(trajectory) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory_tum.txt"
        export_trajectory(trajectory, path, "tum")
        return hashlib.sha256(path.read_bytes()).hexdigest()


def digest(name: str, seed: int) -> dict:
    w = WORKLOADS[name]
    scans = generate_world({**w.world, "seed": seed})[0]
    config = PipelineConfig.from_items({**w.config, "synthetic.seed": str(seed)})
    result = run_slam(scans, config)
    return {
        "trajectory": _poses(result.trajectory),
        "odometry": _poses(result.odometry),
        "keyframe_poses": _poses(result.keyframe_poses),
        "keyframe_frames": _sha256(np.array(result.keyframe_frames, dtype=np.int64)),
        "features": _features(scans),
        "iterations": _iterations(result.registrations),
        "registrations": _registrations(result.registrations),
        "attempts": [[e.from_keyframe, e.to_keyframe, bool(e.accepted), float(e.cost).hex()]
                     for e in result.events],
        "sc_distances": _sha256(np.array([e.sc_distance for e in result.events],
                                         dtype=np.float64)),
        "solves": [[s.report.iterations, float(s.report.final_cost).hex()]
                   for s in result.solves],
        "tum": _tum(result.trajectory),
    }


def main() -> None:
    out = {f"{name}/{seed}": digest(name, seed) for name in NAMES for seed in SEEDS}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
