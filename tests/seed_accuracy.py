"""Accuracy of the bench worlds' runs over seeds 0-9, as median and quartiles.

    PYTHONPATH=src python3 tests/seed_accuracy.py > change.txt
    PYTHONPATH=<other checkout>/src python3 tests/seed_accuracy.py > parent.txt
    PYTHONPATH=src python3 tests/seed_accuracy.py odometry_square aliased_rooms

``featslam`` is imported from ``PYTHONPATH``, so the same script measures any
checkout; the worlds and configs are read from this checkout's
``bench/workloads.py``, and ``rte_pct`` and ``final_err_m`` are computed by
the bench's own ``_accuracy``.  Each named workload (all of them by
default) runs at seeds 0-9.  Per seed it prints one row, and per workload
the median and quartiles over the seeds of:

* ``rte_pct`` and ``final_err_m`` of the trajectory;
* ``step_t_m`` and ``step_r_deg``: the mean per-step error of the
  odometry, |t| and the angle of ``truth_step^-1 est_step`` between
  consecutive frames;
* ``iterations``: mean registration iterations per registered frame;
* ``accepted_loops`` and ``gate_rejected``.

The endpoint errors add up every step's error, so they move far more
between seeds and changes than the per-step means do.  BLAS runs on one
thread.
"""

import os

# before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

import numpy as np

from featslam.pipeline import PipelineConfig, run_slam
from featslam.simulate import generate_world

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from run import _accuracy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(10)
FIELDS = ("rte_pct", "final_err_m", "step_t_m", "step_r_deg", "iterations",
          "accepted_loops", "gate_rejected")


def _step_errors(estimate, truth):
    """Mean translation (m) and rotation (deg) error of the relative motion
    between consecutive frames."""
    t_err, r_err = [], []
    for k in range(len(truth) - 1):
        est = estimate[k].inverse().compose(estimate[k + 1])
        true = truth[k].inverse().compose(truth[k + 1])
        err = true.inverse().compose(est)
        t_err.append(np.linalg.norm(err.translation))
        r_err.append(np.degrees(err.angle()))
    return float(np.mean(t_err)), float(np.mean(r_err))


def measure(name: str, seed: int) -> dict:
    w = WORKLOADS[name]
    scans, truth = generate_world({**w.world, "seed": seed})
    config = PipelineConfig.from_items({**w.config, "synthetic.seed": str(seed)})
    result = run_slam(scans, config)
    acc = _accuracy(result, truth)
    step_t, step_r = _step_errors(result.odometry, truth)
    iterations = [reg.iterations for reg in result.registrations if reg is not None]
    return {"rte_pct": acc["rte_pct"], "final_err_m": acc["final_err_m"],
            "step_t_m": step_t, "step_r_deg": step_r,
            "iterations": float(np.mean(iterations)),
            "accepted_loops": acc["accepted_loops"],
            "gate_rejected": acc["gate_rejected"]}


def main(names) -> None:
    print("workload seed " + " ".join(FIELDS))
    for name in names:
        rows = [measure(name, seed) for seed in SEEDS]
        for seed, row in zip(SEEDS, rows):
            print(f"{name} {seed} " + " ".join(f"{row[f]:.6g}" for f in FIELDS))
        for f in FIELDS:
            q1, q2, q3 = np.percentile([row[f] for row in rows], [25, 50, 75])
            print(f"{name} {f}: median {q2:.6g} quartiles {q1:.6g} {q3:.6g}")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:] or list(WORKLOADS))
