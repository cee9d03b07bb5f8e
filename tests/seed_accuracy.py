"""Accuracy and digest of the bench worlds' runs over seeds 0-9.

    PYTHONPATH=src python3 tests/seed_accuracy.py > change.txt
    PYTHONPATH=<other checkout>/src python3 tests/seed_accuracy.py > parent.txt
    cmp parent.txt change.txt
    PYTHONPATH=src python3 tests/seed_accuracy.py odometry_square aliased_rooms

``featslam`` is imported from ``PYTHONPATH``; when a change alters a
public signature this script calls, run each checkout's own script on its
own ``src``.  Worlds and configs come from this checkout's
``bench/workloads.py``, ``rte_pct`` and ``final_err_m`` from the bench's
``_accuracy``.  Each named workload (default: all) runs once per seed.

First, per seed one row and per workload the median and quartiles of:
``rte_pct`` and ``final_err_m`` of the trajectory; ``step_t_m`` and
``step_r_deg``, the mean |t| and angle of ``truth_step^-1 est_step``
between consecutive odometry poses; ``iterations``, the mean registration
iterations per registered frame; ``accepted_loops`` and ``gate_rejected``.
The endpoint errors add up every step's error, so they move far more
between seeds and changes than the per-step means do.

Then one sorted JSON object of every run's digest, keyed ``workload/seed``:
the sha256 of the trajectory, odometry and keyframe poses, the keyframe
frames, every frame's features (edges, planars and their counts), its
registration iterations (-1 for the first frame) and its other
``frames.csv`` diagnostics (converged through final_cost), the Scan
Context distances and the written TUM file; ``(from, to, accepted,
cost.hex())`` per loop attempt and ``(iterations, final_cost.hex())`` per
graph solve.  Equal outputs mean bit-identical runs.  BLAS runs on one
thread.
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
from run import _accuracy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(10)
FIELDS = ("rte_pct", "final_err_m", "step_t_m", "step_r_deg", "iterations",
          "accepted_loops", "gate_rejected")


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _poses(poses) -> str:
    return _sha256(np.stack([p.matrix() for p in poses]))


def _step_errors(estimate, truth):
    """Mean |t| (m) and angle (deg) of truth_step^-1 est_step per frame step."""
    t_err, r_err = [], []
    for k in range(len(truth) - 1):
        est = estimate[k].inverse().compose(estimate[k + 1])
        true = truth[k].inverse().compose(truth[k + 1])
        err = true.inverse().compose(est)
        t_err.append(np.linalg.norm(err.translation))
        r_err.append(np.degrees(err.angle()))
    return float(np.mean(t_err)), float(np.mean(r_err))


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


def measure(name: str, seed: int):
    """The accuracy row (FIELDS and more) and the digest of one run of
    workload name at seed."""
    w = WORKLOADS[name]
    scans, truth = generate_world({**w.world, "seed": seed})
    config = PipelineConfig.from_items({**w.config, "synthetic.seed": str(seed)})
    result = run_slam(scans, config)
    regs = result.registrations
    iterations = np.array([-1 if r is None else r.iterations for r in regs], dtype=np.int64)
    diagnostics = np.array([(np.nan,) * 5 if r is None else
                            (r.converged, r.degenerate_directions, r.num_edge_matches,
                             r.num_plane_matches, r.final_cost) for r in regs])
    step_t, step_r = _step_errors(result.odometry, truth)
    row = {**_accuracy(result, truth), "step_t_m": step_t, "step_r_deg": step_r,
           "iterations": float(np.mean(iterations[iterations >= 0]))}
    digest = {
        "trajectory": _poses(result.trajectory),
        "odometry": _poses(result.odometry),
        "keyframe_poses": _poses(result.keyframe_poses),
        "keyframe_frames": _sha256(np.array(result.keyframe_frames, dtype=np.int64)),
        "features": _features(scans),
        "iterations": _sha256(iterations),
        "registrations": _sha256(diagnostics),
        "attempts": [[e.from_keyframe, e.to_keyframe, bool(e.accepted), float(e.cost).hex()]
                     for e in result.events],
        "sc_distances": _sha256(np.array([e.sc_distance for e in result.events],
                                         dtype=np.float64)),
        "solves": [[s.report.iterations, float(s.report.final_cost).hex()]
                   for s in result.solves],
        "tum": _tum(result.trajectory),
    }
    return row, digest


def main(names) -> None:
    digests = {}
    print("workload seed " + " ".join(FIELDS))
    for name in names:
        runs = [measure(name, seed) for seed in SEEDS]
        for seed, (row, digest) in zip(SEEDS, runs):
            digests[f"{name}/{seed}"] = digest
            print(f"{name} {seed} " + " ".join(f"{row[f]:.6g}" for f in FIELDS))
        for f in FIELDS:
            q1, q2, q3 = np.percentile([row[f] for row, _ in runs], [25, 50, 75])
            print(f"{name} {f}: median {q2:.6g} quartiles {q1:.6g} {q3:.6g}")
        sys.stdout.flush()
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(WORKLOADS))
