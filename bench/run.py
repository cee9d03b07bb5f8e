#!/usr/bin/env python3
"""featslam benchmark: seeded synthetic worlds through ``run_slam``.

    python3 bench/run.py --workload aliased_rooms --seed 0 --seconds 40 --trace 0

Run from the repository root; the sources are imported from ``src/``.  One
invocation runs one workload in a fresh process (``--workload all`` runs
each workload in its own child process, one after another).

Only the scans generated from the seed reach
``featslam.pipeline.run_slam``, which runs at least three times and again
while ``--seconds`` allow.  Set-up generates the world afresh before each of
the first three repeats (``setup_s`` is the median), so set-up is timed
across the run, like run_slam, and not only at its start.  Every repeat
must give a complete, finite trajectory, and all repeats the same
trajectory digest and loop decisions.  Per-frame times are taken from the
scan sequence as run_slam pulls each scan.  Each timing metric is computed
per repeat and the median over repeats is reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
repeat untraced and the others with wrappers around each layer's public
functions (``spans.py``), and reports the per-layer metrics including the
tracing overhead.  The last line of standard output is the result object;
the line before it is the full report: environment, accuracy, trajectory
digest, loop decisions, where the tail percentile falls, and any failed
check.  A failed check also makes the exit status 1.  BLAS runs on one
thread.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 90.0)  # percentiles tried for frame_ms_tail
TAIL_MIN_BEYOND = 10  # frames that must lie beyond the tail percentile
FALSE_LOOP_M = 20.0  # true keyframe separation of a false loop
# relative translation error above this means registration broke down
MAX_RTE_PCT = 10.0
# run_slam time outside every traced span (1-2 % on the bench worlds); more
# means a layer runs without a wrapper
MAX_PIPELINE_SELF_SHARE = 0.10


def _load_featslam():
    if not (SRC / "featslam" / "__init__.py").is_file():
        raise SystemExit(f"featslam sources not found in {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _environment(seed: int) -> Dict[str, object]:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


class TimedScans:
    """Scan sequence that records the time each scan is pulled."""

    def __init__(self, scans):
        self.scans = scans
        self.pulls: List[float] = []

    def __len__(self):
        return len(self.scans)

    def __iter__(self):
        for scan in self.scans:
            self.pulls.append(time.perf_counter())
            yield scan


def _scans_digest(scans) -> str:
    h = hashlib.sha256()
    for s in scans:
        h.update(s.xyz.tobytes())
        h.update(s.ring.tobytes())
    return h.hexdigest()


def _trajectory_digest(trajectory) -> str:
    return hashlib.sha256(
        np.stack([p.matrix() for p in trajectory]).tobytes()
    ).hexdigest()


def _finite_poses(trajectory) -> int:
    return sum(bool(np.isfinite(p.matrix()).all()) for p in trajectory)


def _run_once(scans, config, tracer=None) -> Dict[str, object]:
    """One timed run_slam call; a run that raises fails every frame."""
    from featslam.pipeline import run_slam

    seq = TimedScans(scans)
    result, error = None, None
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = run_slam(seq, config)
        except Exception as e:  # noqa: BLE001 - reported as failed frames
            error = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
    run = {"wall_s": t1 - t0, "result": result, "error": error, "tracer": tracer}
    if result is None:
        run.update(failed=len(scans), poses=0, digest=None, decisions=None,
                   intervals_ms=None)
        return run
    traj = result.trajectory
    run["poses"] = len(traj)
    run["failed"] = len(scans) - (_finite_poses(traj) if len(traj) == len(scans) else 0)
    run["digest"] = _trajectory_digest(traj) if traj else None
    run["decisions"] = [[e.from_keyframe, e.to_keyframe, bool(e.accepted)]
                        for e in result.events]
    run["intervals_ms"] = np.diff(np.array(seq.pulls + [t1])) * 1e3
    return run


def _tail_percentile(n: int) -> Optional[float]:
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return None


def _frame_classes(result, n: int, config) -> List[str]:
    """Per frame: plain, keyframe, query (a keyframe whose descriptor was
    searched), loop_attempt (loop refinement ran) or graph_solve (accepted
    loop, so the pose graph was optimized)."""
    classes = ["plain"] * n
    # the query has candidates once a keyframe is older than exclude_recent
    first_query = (len(result.keyframe_frames) if config["run.no_loop"]
                   else config["scan_context.exclude_recent"] + 1)
    for k, f in enumerate(result.keyframe_frames):
        classes[f] = "query" if k >= first_query else "keyframe"
    for e in result.events:
        f = result.keyframe_frames[e.from_keyframe]
        if e.accepted:
            classes[f] = "graph_solve"
        elif e.d <= e.d_thre:
            classes[f] = "loop_attempt"
    return classes


def _tail_population(intervals, classes, q: float) -> Dict[str, object]:
    """Where the tail percentile falls: the frame class on both sides of it
    and how many ranks separate it from the nearest change of class."""

    order = np.argsort(intervals, kind="stable")
    ranked = [classes[i] for i in order]
    pos = q / 100.0 * (len(ranked) - 1)
    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
    inside = ranked[lo] == ranked[hi]
    margin = 0
    if inside:
        while (lo - margin - 1 >= 0 and hi + margin + 1 < len(ranked)
               and ranked[lo - margin - 1] == ranked[lo]
               and ranked[hi + margin + 1] == ranked[lo]):
            margin += 1
    return {
        "class_below": ranked[lo],
        "class_above": ranked[hi],
        "inside_one_population": inside,
        "rank_margin": margin,
        "frames_per_class": {c: classes.count(c) for c in sorted(set(classes))},
    }


def _accuracy(result, truth) -> Dict[str, object]:
    from featslam.evaluation import kitti_relative_errors

    traj = result.trajectory
    # endpoint error after aligning the first poses, as the acceptance test
    align = truth[0].compose(traj[0].inverse())
    final_err = float(np.linalg.norm(
        align.compose(traj[-1]).translation - truth[-1].translation))
    report = kitti_relative_errors(traj, truth)

    def separation(e):
        a = truth[result.keyframe_frames[e.from_keyframe]].translation
        b = truth[result.keyframe_frames[e.to_keyframe]].translation
        return float(np.linalg.norm(a - b))

    events = result.events
    return {
        "final_err_m": final_err,
        "rte_pct": report.ate_percent,
        "rre_deg_per_100m": report.are_deg_per_100m,
        "false_loops": sum(1 for e in events if e.accepted and separation(e) > FALSE_LOOP_M),
        "keyframes": len(result.keyframe_frames),
        "loop_attempts": len(events),
        "gate_rejected": sum(1 for e in events if e.d > e.d_thre),
        "accepted_loops": sum(1 for e in events if e.accepted),
    }


def _span_metrics(runs, acc) -> Dict[str, float]:
    """Per-layer metrics from the traced repeats: times are medians over
    repeats, counts come from the first traced repeat (checked equal)."""
    traced = [r for r in runs if r["tracer"] is not None]
    first = traced[0]["tracer"]
    out: Dict[str, float] = {}
    for name, st in first.stats.items():
        out[f"{name}.calls"] = st.calls
        for key, value in st.counts.items():
            out[f"{name}.{key}"] = value
        for stat in ("busy_s", "self_s"):
            out[f"{name}.{stat}"] = statistics.median(
                getattr(r["tracer"].stats[name], stat) for r in traced)
    modules = sorted({name.split(".")[0] for name in first.stats})
    for module in modules:
        out[f"{module}.self_s"] = sum(
            v for k, v in out.items()
            if k.startswith(module + ".") and k.endswith(".self_s") and k.count(".") == 2)
    walls = [r["wall_s"] for r in traced]
    out["pipeline.run_slam_s"] = statistics.median(walls)
    out["pipeline.self_s"] = statistics.median(
        r["wall_s"] - r["tracer"].top_level_s for r in traced)
    out["loop_closure.attempts"] = acc["loop_attempts"]
    out["loop_closure.gate_rejected"] = acc["gate_rejected"]
    out["loop_closure.accepted"] = acc["accepted_loops"]
    return out


def _trace_checks(wl, runs, acc, frames: int, out) -> List[str]:
    """Trace guards; returns the failures."""
    failures = []
    traced = [r for r in runs if r["tracer"] is not None]
    calls = {name: st.calls for name, st in traced[0]["tracer"].stats.items()}
    for r in traced[1:]:
        if {n: s.calls for n, s in r["tracer"].stats.items()} != calls:
            failures.append("call counts differ between traced repeats")
    for name in wl.must_run:
        if calls[name] == 0:
            failures.append(f"{name} recorded no calls")
    for name in wl.must_not_run:
        if calls[name] != 0:
            failures.append(f"{name} recorded {calls[name]} calls, expected none")
    attempted = acc["loop_attempts"] - acc["gate_rejected"]
    invariants = {
        "odometry.process_frame": frames,
        "features.extract_features": frames,
        "loop_closure.is_new_keyframe": frames - 1,
        "scan_context.build_descriptor": acc["keyframes"],
        "pose_graph.add_odometry_node": acc["keyframes"],
        "pose_graph.optimize": acc["accepted_loops"],
        "pose_graph.add_loop_edge": acc["accepted_loops"],
        "loop_closure.estimate_loop_pose": attempted,
        "loop_closure.register": attempted,
    }
    if "scan_context.query" in wl.must_run:
        invariants["scan_context.query"] = acc["keyframes"]
    for name, expected in invariants.items():
        if calls[name] != expected:
            failures.append(f"{name}.calls = {calls[name]}, expected {expected}")
    if out.get("scan_context.query.matches", 0) != acc["loop_attempts"]:
        failures.append("scan_context.query.matches differs from the loop attempts")
    # The layer self times plus pipeline.self_s equal the run_slam wall time
    # by construction, so the accounting is checked against the wall clock
    # taken outside the tracer: the top-level spans must fit inside it, and
    # must cover all of it but the pipeline's own bookkeeping.
    for r in traced:
        top, wall = r["tracer"].top_level_s, r["wall_s"]
        if top > wall:
            failures.append(f"top-level spans take {top:.6f} s, "
                            f"longer than run_slam's {wall:.6f} s")
        elif wall - top > MAX_PIPELINE_SELF_SHARE * wall:
            failures.append(f"pipeline.self_s is {(wall - top) / wall:.1%} of run_slam, "
                            f"above {MAX_PIPELINE_SELF_SHARE:.0%}: a layer runs untraced")
    return failures


def _repeat(spec, config, seconds: float, trace: bool):
    """run_slam at least MIN_REPEATS times, more while time is left; when
    tracing, every repeat but the first is traced.  The world is generated
    before each of the first SETUP_REPEATS repeats.  Returns the world, the
    runs, the set-up times and whether every generated copy was identical.

    Only one world and the first repeat's SlamResult stay alive, so the
    memory held does not grow with the number of repeats."""
    from featslam.simulate import generate_world
    from spans import Tracer

    runs, setup_times, digests, world = [], [], set(), None
    start = time.perf_counter()
    while True:
        if len(setup_times) < SETUP_REPEATS:
            world = None
            t0 = time.perf_counter()
            world = generate_world(spec)
            setup_times.append(time.perf_counter() - t0)
            digests.add(_scans_digest(world[0]))
        runs.append(_run_once(world[0], config, Tracer() if trace and runs else None))
        if len(runs) > 1:
            runs[-1]["result"] = None
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_REPEATS and elapsed * (1 + 1 / len(runs)) > seconds:
            return world, runs, setup_times, len(digests) == 1


def _run_checks(runs, frames: int) -> List[str]:
    """Every repeat gives a complete, finite trajectory, and all repeats
    the same trajectory and loop decisions."""
    failures = []
    for i, r in enumerate(runs):
        if r["error"]:
            failures.append(f"repeat {i} raised {r['error']}")
        elif r["poses"] != frames:
            failures.append(f"repeat {i}: {r['poses']} poses for {frames} frames")
        elif r["failed"]:
            failures.append(f"repeat {i}: {r['failed']} non-finite poses")
    if len({r["digest"] for r in runs}) != 1:
        failures.append("trajectory digest differs between repeats")
    if len({json.dumps(r["decisions"]) for r in runs}) != 1:
        failures.append("loop decisions differ between repeats")
    return failures


def _accuracy_checks(wl, acc) -> List[str]:
    failures = []
    if acc["false_loops"]:
        failures.append(f"{acc['false_loops']} false loops accepted")
    if acc["rte_pct"] > MAX_RTE_PCT:
        failures.append(f"relative translation error {acc['rte_pct']:.3f} % "
                        f"exceeds {MAX_RTE_PCT} %")
    if acc["accepted_loops"] < wl.min_accepted_loops:
        failures.append(f"{acc['accepted_loops']} accepted loops, "
                        f"expected at least {wl.min_accepted_loops}")
    if acc["gate_rejected"] < wl.min_gate_rejections:
        failures.append(f"{acc['gate_rejected']} gate rejections, "
                        f"expected at least {wl.min_gate_rejections}")
    return failures


def _end_to_end(runs, setup_times, result, config, report) -> Dict[str, tuple]:
    """End-to-end metrics as name -> (value, unit): each timing metric is
    the median over the untraced repeats of its value in one repeat."""
    frames = len(result.trajectory)
    untraced = [r for r in runs if r["tracer"] is None]
    q = _tail_percentile(frames)
    report["untraced_repeats"] = len(untraced)
    report["frame_ms_tail_percentile"] = q
    report["frame_ms_tail_frames_beyond"] = frames * (100.0 - q) / 100.0
    report["tail_population"] = _tail_population(
        untraced[0]["intervals_ms"], _frame_classes(result, frames, config), q)

    def median(per_repeat):
        return statistics.median(per_repeat(r) for r in untraced)

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "frames_per_s": (median(lambda r: frames / r["wall_s"]), "1/s"),
        "frame_ms_p50": (median(lambda r: float(np.percentile(r["intervals_ms"], 50))), "ms"),
        "frame_ms_tail": (median(lambda r: float(np.percentile(r["intervals_ms"], q))), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    _load_featslam()
    from featslam.pipeline import PipelineConfig
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    config = PipelineConfig.from_items(wl.config)
    (scans, truth), runs, setup_times, same_world = _repeat(
        dict(wl.world, seed=seed), config, seconds, trace)
    frames = len(scans)

    attempted = frames * len(runs)
    failed = sum(r["failed"] for r in runs)
    report: Dict[str, object] = {
        "workload": name, "environment": _environment(seed), "frames": frames,
        "repeats": len(runs), "setup_repeats": SETUP_REPEATS,
        "setup_s_samples": setup_times,
        "run_slam_s_samples": [r["wall_s"] for r in runs],
    }
    failures = _run_checks(runs, frames)
    if not same_world:
        failures.append("world generation is not deterministic for this seed")
    metrics: Dict[str, float] = {}
    if not failures:
        result = runs[0]["result"]
        acc = _accuracy(result, truth)
        failures += _accuracy_checks(wl, acc)
        report["accuracy"] = dict(acc, failed_frac=failed / attempted)
        report["trajectory_sha256"] = runs[0]["digest"]
        report["loop_decisions"] = runs[0]["decisions"]
        e2e = _end_to_end(runs, setup_times, result, config, report)
        report["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        if trace:
            layers = _span_metrics(runs, acc)
            layers["simulate.generate_world.busy_s"] = statistics.median(setup_times)
            layers["simulate.generate_world.points"] = sum(len(s) for s in scans)
            layers["pipeline.trace_overhead_frames_per_s"] = (
                report["end_to_end"]["frames_per_s"] - frames / layers["pipeline.run_slam_s"])
            failures += _trace_checks(wl, runs, acc, frames, layers)
            spans, bound, kind = wl.time_share
            share = sum(layers[f"{s}.busy_s"] for s in spans) / layers["pipeline.run_slam_s"]
            report["time_share"] = {
                "spans": list(spans), "share": share, "bound": bound, "kind": kind,
                "holds": share >= bound if kind == "min" else share <= bound,
            }
            report["per_layer"] = layers
            metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["failures"] = failures
    return {"report": report,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def _layer_unit(name: str) -> str:
    if name.endswith("frames_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def _declared(kind: str) -> List[str]:
    with open(ROOT / "BENCHMARK.json") as f:
        return [m["name"] for m in json.load(f)[kind]]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return status

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    if result["correct"]:
        wanted = _declared("per_layer" if args.trace else "end_to_end")
        result["metrics"] = {k: result["metrics"][k] for k in wanted}
    for failure in out["report"]["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"report": out["report"]}, default=float))
    print(json.dumps(result, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
