"""The study scripts outside the suite, run on small inputs so that a
change to a public signature they call breaks a test."""

import importlib
import math

import pytest

from bench_pairs import _summary

DIGEST_FIELDS = ("trajectory", "odometry", "keyframe_poses", "keyframe_frames", "features",
                 "iterations", "registrations", "attempts", "sc_distances", "solves", "tum")


def test_seed_accuracy_measures_one_run(monkeypatch):
    # the script pins BLAS to one thread in the environment; keep that from
    # reaching the subprocesses of later tests
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    seed_accuracy = importlib.import_module("seed_accuracy")
    row, digest = seed_accuracy.measure("odometry_square", 0)
    assert all(math.isfinite(row[f]) for f in seed_accuracy.FIELDS)
    assert sorted(digest) == sorted(DIGEST_FIELDS)
    assert digest["attempts"] == digest["solves"] == []  # loop detection is off


WIDE = [0.6, 0.8, 1.0, 1.2, 1.4]  # quartiles 0.8-1.2, wider than the bound
NARROW = [0.96, 0.98, 1.0, 1.02, 1.04]  # quartiles 0.98-1.02


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", NARROW, [1.0, 1.01, 1.02, 1.03, 1.05], "no"),
    ("lower", NARROW, [1.3, 1.31, 1.32, 1.33, 1.34], "YES"),
    ("lower", WIDE, [0.7, 0.9, 1.0, 1.1, 1.3], "unresolved"),
    ("lower", WIDE, [1.3, 1.31, 1.32, 1.33, 1.34], "YES"),
    ("lower", WIDE, [0.3, 0.35, 0.4, 0.45, 0.5], "no"),  # every change run is better
    ("higher", WIDE, [1.5] * 5, "no"),
    ("higher", WIDE, WIDE, "unresolved"),
    ("higher", WIDE, [0.7] * 5, "YES"),
])
def test_bench_pairs_verdicts(better, parent, change, verdict):
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    line = _summary(metric, {"parent": parent, "change": change})
    assert line.endswith(f"worse than bound 25%: {verdict}")
