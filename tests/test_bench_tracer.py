"""The benchmark's span tracer against the package it wraps.

``bench/spans.py`` replaces 16 functions by name in the modules that call
them; a rename in ``src/featslam`` breaks ``bench/run.py --trace 1`` and
nothing else.  This runs a short front-end-only world under the tracer, as
the bench's odometry_square workload does.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from featslam.pipeline import PipelineConfig, run_slam
from featslam.simulate import generate_world

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402
from workloads import FRONT_END, LOOP_LAYERS  # noqa: E402


def test_tracer_wraps_every_front_end_layer_and_restores_it():
    scans, _ = generate_world({"shape": "square", "frames": 6, "size": 24.0,
                               "laps": 0.1, "seed": 0})
    config = PipelineConfig.from_items({"synthetic.shape": "square", "run.no_loop": "true"})
    originals = [getattr(importlib.import_module(s.module), s.attribute) for s in spans.SITES]

    untraced = run_slam(scans, config)
    with spans.Tracer() as tracer:
        traced = run_slam(scans, config)

    assert [span for span in FRONT_END if tracer.stats[span].calls == 0] == []
    assert [span for span in LOOP_LAYERS if tracer.stats[span].calls > 0] == []
    assert tracer.stats["odometry.process_frame"].calls == len(scans)
    assert [getattr(importlib.import_module(s.module), s.attribute)
            for s in spans.SITES] == originals
    for got, want in zip(traced.trajectory, untraced.trajectory):
        assert np.array_equal(got.matrix(), want.matrix())
