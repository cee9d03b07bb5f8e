"""End-to-end runs: configuration, the SLAM loop, and output files.

A run processes scans through odometry in order and promotes keyframes.
Each keyframe becomes a pose-graph node and queries the descriptor
database; a match that passes the distance gate and loop refinement adds
the loop edge ``(loop node, node, relative pose)`` and re-optimizes the
graph, so the next keyframe's loop search reads the poses of the latest
solve.  Each loop attempt is logged once, as a ``LoopEvent``.  The
keyframe list, the graph's nodes and the descriptor database grow
together, so keyframe k is entry k of each.  Every stage is called with
the module config the run built.

Configuration is a flat ``key = value`` file with dotted keys plus
``--set key=value`` overrides.  The table of known keys is the simulator's
world defaults plus one key per field of each module config dataclass
(``_SECTIONS``); unknown keys are rejected.  ``PipelineConfig.from_items``
takes every value as text, parses it as the type of its key's default and
builds each module config once, so every value is range-checked by the
config it builds before a run starts.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .dataset_io import (
    GroundTruthTrajectory,
    RawScan,
    check_scan_file,
    export_map,
    export_trajectory,
    load_ground_truth,
    load_scan,
)
from .evaluation import kitti_relative_errors
from .features import FeatureConfig
from .geometry import Pose
from .loop_closure import (
    Keyframe,
    LoopClosureConfig,
    LoopEvent,
    adaptive_threshold,
    estimate_loop_pose,
    gate_distance,
    is_new_keyframe,
)
from .odometry import (
    OdometryConfig,
    RegistrationResult,
    Submap,
    process_frame,
)
from .pose_graph import (
    OptimizationReport,
    PoseGraph,
    PoseGraphConfig,
    add_loop_edge,
    add_odometry_node,
    optimize,
)
from .scan_context import (
    CandidateMatch,
    ScanContextConfig,
    ScanContextDescriptor,
    build_descriptor,
    query,
    shift_to_yaw,
)
from .simulate import WORLD_DEFAULTS, check_world_spec, generate_world

__all__ = [
    "PipelineConfig",
    "SlamResult",
    "parse_config_file",
    "parse_overrides",
    "run_slam",
    "run",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> the module config its keys build, one key per field
_SECTIONS = {
    "features": FeatureConfig,
    "odometry": OdometryConfig,
    "scan_context": ScanContextConfig,
    "loop": LoopClosureConfig,
    "graph": PoseGraphConfig,
}

# key -> default; a value is parsed as the type of its key's default.
_KEYS: Dict[str, object] = {
    "dataset.scans": "",
    "dataset.poses": "",
    "dataset.calib": "",
    "dataset.max_frames": 0,  # 0 = all
    **{f"synthetic.{key}": value for key, value in WORLD_DEFAULTS.items()},
    "synthetic.shape": "",  # empty = dataset mode
    "output.dir": "featslam_out",
    "run.no_loop": False,
    "run.fixed_threshold": 0.0,  # <= 0 selects the adaptive gate
    **{f"{section}.{f.name}": f.default
       for section, config_class in _SECTIONS.items()
       for f in dataclasses.fields(config_class)},
}

_PARSERS = {str: str, int: int, float: float, bool: _parse_bool}


def _coerce(key: str, text: str) -> object:
    if key not in _KEYS:
        raise ValueError(f"unknown configuration key: {key}")
    if not isinstance(text, str):
        raise ValueError(f"bad value for {key}: {text!r}")
    try:
        value = _PARSERS[type(_KEYS[key])](text)
    except ValueError as e:
        raise ValueError(f"bad value for {key}: {e}") from e
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"bad value for {key}: {value!r} is not finite")
    return value


def _section(values: Dict[str, object], prefix: str) -> Dict[str, object]:
    """``name -> value`` for the ``prefix.name`` keys of values."""
    return {
        key.split(".", 1)[1]: value
        for key, value in values.items()
        if key.startswith(prefix + ".")
    }


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError prefixed by the section."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ValueError(f"{section}: {e}") from e


@dataclass
class PipelineConfig:
    """Validated flat configuration and the module configs built from it."""

    values: Dict[str, object]
    features: FeatureConfig
    odometry: OdometryConfig
    scan_context: ScanContextConfig
    loop: LoopClosureConfig
    graph: PoseGraphConfig

    @classmethod
    def from_items(cls, items: Dict[str, str]) -> "PipelineConfig":
        """Parse the text items over the defaults and build every module
        config, so that a bad value fails before a run."""
        values = dict(_KEYS)
        for key, value in items.items():
            values[key] = _coerce(key, value)
        synthetic = values["synthetic.shape"]
        if not values["dataset.scans"] and not synthetic:
            raise ValueError(
                "no input: set dataset.scans or synthetic.shape (or --synthetic)"
            )
        if not synthetic and values["dataset.poses"] and not values["dataset.calib"]:
            raise ValueError("dataset: dataset.poses requires dataset.calib")
        configs = {
            section: _checked(section, config_class, **_section(values, section))
            for section, config_class in _SECTIONS.items()
        }
        if synthetic:
            _checked("synthetic", check_world_spec, _section(values, "synthetic"))
        return cls(values, **configs)

    def __getitem__(self, key: str):
        return self.values[key]


def parse_config_file(path) -> Dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored."""
    items: Dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            items[key.strip()] = value.strip()
    return items


def parse_overrides(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse repeated --set key=value arguments."""
    items: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        items[key.strip()] = value.strip()
    return items


# ---------------------------------------------------------------------------
# SLAM loop
# ---------------------------------------------------------------------------

@dataclass
class GraphSolve:
    """One pose-graph solve, for the run log."""

    keyframe: int  # the keyframe whose accepted loop triggered the solve
    nodes: int
    edges: int
    report: OptimizationReport
    millis: float


@dataclass
class SlamResult:
    trajectory: List[Pose]  # per frame, loop-corrected
    odometry: List[Pose]  # per frame, before loop correction
    keyframe_frames: List[int]  # frame index of each keyframe
    keyframe_poses: List[Pose]  # optimized keyframe poses
    keyframe_features: list
    events: List[LoopEvent]
    # per frame: the odometry registration (None for the first frame) and
    # the non-finite points its scan dropped
    registrations: List[Optional[RegistrationResult]]
    dropped_points: List[int]
    solves: List[GraphSolve]  # one per accepted loop


def _verify_loop(
    k: int,
    match: CandidateMatch,
    poses: Sequence[Pose],
    keyframes: Sequence[Keyframe],
    config: PipelineConfig,
    events: List[LoopEvent],
) -> Optional[Pose]:
    """Gate a descriptor match for keyframe k, then refine it by registration.

    ``poses`` holds the best-known pose of keyframes 0..k.  Logs the attempt
    in ``events`` (a gate rejection with cost inf and 0 ms) and returns
    keyframe k's pose in the loop keyframe's frame if the loop is accepted.
    """
    loop_idx = match.candidate_keyframe_index
    d = gate_distance(poses[k], poses[loop_idx])
    fixed = config["run.fixed_threshold"]
    threshold = fixed if fixed > 0.0 else adaptive_threshold(k, config.loop)
    relative, cost, millis = None, float("inf"), 0.0
    if d <= threshold:  # the boundary counts as inside; NaN does not
        yaw = shift_to_yaw(match.best_column_shift, config.scan_context.num_sectors)
        t0 = time.perf_counter()
        relative, cost = estimate_loop_pose(k, keyframes, loop_idx, poses, config.loop,
                                            config.odometry, yaw)
        millis = (time.perf_counter() - t0) * 1e3
    events.append(LoopEvent(k, loop_idx, d, threshold, match.descriptor_distance,
                            relative is not None, cost, millis))
    return relative


def run_slam(scans: Iterable[RawScan], config: PipelineConfig) -> SlamResult:
    """Process scans end to end; returns trajectories, keyframes, and events."""
    sc_cfg = config.scan_context
    graph = PoseGraph(config.graph)
    submap = Submap(config.odometry)
    keyframes: List[Keyframe] = []
    db: List[ScanContextDescriptor] = []
    events: List[LoopEvent] = []
    correction = Pose.identity()  # re-bases odometry into the optimized frame
    frame_poses: List[Pose] = []
    kf_of_frame: List[int] = []
    registrations: List[Optional[RegistrationResult]] = []
    dropped_points: List[int] = []
    solves: List[GraphSolve] = []
    for i, scan in enumerate(scans):
        features, pose, registration = process_frame(frame_poses, scan, submap,
                                                     config.odometry, config.features)
        frame_poses.append(pose)
        registrations.append(registration)
        dropped_points.append(scan.dropped)
        if not keyframes or is_new_keyframe(keyframes[-1].odometry_pose, pose):
            k = len(keyframes)
            keyframes.append(Keyframe(frame_index=i, features=features, odometry_pose=pose))
            add_odometry_node(graph, correction.compose(pose))
            descriptor = build_descriptor(features, sc_cfg)
            match = None if config["run.no_loop"] else query(db, descriptor, sc_cfg)
            db.append(descriptor)
            if match is not None:
                relative = _verify_loop(k, match, graph.nodes, keyframes, config, events)
                if relative is not None:
                    add_loop_edge(graph, match.candidate_keyframe_index, k, relative)
                    t0 = time.perf_counter()
                    report = optimize(graph)
                    millis = (time.perf_counter() - t0) * 1e3
                    solves.append(GraphSolve(k, len(graph.nodes), len(graph.edges),
                                             report, millis))
                    correction = graph.nodes[k].compose(pose.inverse())
        kf_of_frame.append(len(keyframes) - 1)

    final = list(graph.nodes)
    trajectory = [
        final[k].compose(keyframes[k].odometry_pose.inverse()).compose(pose)
        for pose, k in zip(frame_poses, kf_of_frame)
    ]
    return SlamResult(
        trajectory=trajectory,
        odometry=frame_poses,
        keyframe_frames=[kf.frame_index for kf in keyframes],
        keyframe_poses=final,
        keyframe_features=[kf.features for kf in keyframes],
        events=events,
        registrations=registrations,
        dropped_points=dropped_points,
        solves=solves,
    )


# ---------------------------------------------------------------------------
# Input, output files and the full run
# ---------------------------------------------------------------------------

def _load_input(config: PipelineConfig):
    """Returns (scans, truth).  Truth is None for a dataset without poses;
    a synthetic world's truth is in the LiDAR frame, so its calibration is
    the identity.  A dataset's scans are an iterator that loads each file
    as the run reaches it; here, before any scan is loaded, each file is
    opened and its size checked, and the truth's poses are counted."""
    if config["synthetic.shape"]:
        scans, poses = generate_world(_section(config.values, "synthetic"))
        return scans, GroundTruthTrajectory(poses, Pose.identity())

    scan_dir = Path(config["dataset.scans"])
    if not scan_dir.is_dir():
        raise OSError(f"dataset directory not found: {scan_dir}")
    limit = config["dataset.max_frames"]
    end = limit if limit > 0 else None
    paths = sorted(scan_dir.glob("*.bin"))[:end]
    if not paths:
        raise OSError(f"no .bin scans in dataset directory: {scan_dir}")
    for path in paths:
        check_scan_file(path)
    scans = map(load_scan, paths)
    if not config["dataset.poses"]:
        return scans, None
    loaded = load_ground_truth(config["dataset.poses"], config["dataset.calib"])
    truth = GroundTruthTrajectory(loaded.camera_poses[:end], loaded.calibration)
    if len(truth) != len(paths):
        raise ValueError(f"ground truth has {len(truth)} poses for {len(paths)} scans")
    return scans, truth


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """A header line, then one line per row; every line ends in LF."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_outputs(
    result: SlamResult, truth: Optional[GroundTruthTrajectory], out: Path
) -> None:
    """Write every file of a run; evaluation.json and plot.csv need truth."""
    export_trajectory(result.trajectory, out / "trajectory_kitti.txt", "kitti")
    export_trajectory(result.trajectory, out / "trajectory_tum.txt", "tum")
    export_map(zip(result.keyframe_features, result.keyframe_poses), out / "map.ply")
    # one row per loop attempt
    _write_csv(
        out / "loops.csv",
        ["from", "to", "d", "d_thre", "sc_distance", "accepted", "cost", "millis"],
        ([e.from_keyframe, e.to_keyframe, f"{e.d:.6f}", f"{e.d_thre:.6f}",
          f"{e.sc_distance:.6f}", int(e.accepted), f"{e.cost:.6f}", f"{e.millis:.3f}"]
         for e in result.events),
    )
    # one row per frame: keyframe flag, odometry registration diagnostics
    # (empty for the first frame, which is not registered) and the number of
    # non-finite points dropped from its scan
    keyframes = set(result.keyframe_frames)
    frame_rows = []
    for i, (reg, dropped) in enumerate(zip(result.registrations, result.dropped_points)):
        fields = [""] * 7
        if reg is not None:
            fields = [reg.iterations, reg.associations, int(reg.converged),
                      reg.degenerate_directions, reg.num_edge_matches,
                      reg.num_plane_matches, reg.final_cost]
        frame_rows.append([i, int(i in keyframes), *fields, dropped])
    _write_csv(
        out / "frames.csv",
        ["frame", "keyframe", "iterations", "associations", "converged",
         "degenerate_directions", "edge_matches", "plane_matches", "final_cost",
         "dropped_points"],
        frame_rows,
    )
    # one row per pose-graph solve: the keyframe that triggered it, the graph
    # size, the LM iterations and costs, and its wall time
    _write_csv(
        out / "graph.csv",
        ["keyframe", "nodes", "edges", "iterations", "initial_cost", "final_cost",
         "converged", "millis"],
        ([s.keyframe, s.nodes, s.edges, s.report.iterations, s.report.initial_cost,
          s.report.final_cost, int(s.report.converged), f"{s.millis:.3f}"]
         for s in result.solves),
    )
    if truth is None or not result.trajectory:
        return
    # KITTI errors are taken in the camera frame
    calib, calib_inv = truth.calibration, truth.calibration.inverse()
    report = kitti_relative_errors(
        [calib.compose(p).compose(calib_inv) for p in result.trajectory],
        truth.camera_poses,
    )
    # the report's fields, then the wall time (ms) of the accepted loop
    # refinements (absent when none was accepted) and the loop counts
    times = [e.millis for e in result.events if e.accepted]
    with open(out / "evaluation.json", "w") as f:
        json.dump({
            **dataclasses.asdict(report),
            "mean_loop_ms": float(np.mean(times)) if times else None,
            "median_loop_ms": float(np.median(times)) if times else None,
            "loops_accepted": len(times),
            "loops_rejected": len(result.events) - len(times),
        }, f, indent=2)
        f.write("\n")
    # planar positions in the LiDAR frame for trajectory plots; the estimate
    # starts at the identity, so it is moved into truth's frame by
    # gt_0 est_0^-1 (about the identity on KITTI, whose truth starts there)
    gt = truth.lidar_poses()
    align = gt[0].compose(result.trajectory[0].inverse())
    _write_csv(
        out / "plot.csv",
        ["frame", "est_x", "est_y", "gt_x", "gt_y"],
        ([i, *(f"{v:.6f}" for v in align.compose(est).translation[:2]),
          *(f"{v:.6f}" for v in pose.translation[:2])]
         for i, (est, pose) in enumerate(zip(result.trajectory, gt, strict=True))),
    )


def run(config: PipelineConfig) -> int:
    """Execute a full run and write all outputs; returns the exit status.

    The input is checked before the output directory is made: a synthetic
    world is generated whole, and each dataset scan file is opened and its
    size checked, but read only when the run reaches its frame, so a file
    that changes or fails to read after the check stops the run part-way.
    A stderr note says that ``dataset.poses`` is ignored for a synthetic
    world; another, when ``synthetic.frames`` is set away from its default
    and the world has fewer frames (the two_rooms path has a fixed
    length), says so; a third counts the registrations that estimated no
    direction of the pose (``degenerate_directions`` 6)."""
    scans, truth = _load_input(config)
    if config["synthetic.shape"] and config["dataset.poses"]:
        # synthetic worlds carry exact truth; an external pose file has
        # no frame correspondence with generated scans
        print("featslam: note: ignoring dataset.poses for synthetic input",
              file=sys.stderr)
    asked = config["synthetic.frames"]
    if (config["synthetic.shape"] and asked != WORLD_DEFAULTS["frames"]
            and len(scans) < asked):
        print(f"featslam: note: the {config['synthetic.shape']} world has "
              f"{len(scans)} frames, fewer than synthetic.frames = {asked}",
              file=sys.stderr)
    out = Path(config["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    result = run_slam(scans, config)
    _write_outputs(result, truth, out)
    registered = [reg for reg in result.registrations if reg is not None]
    unestimated = sum(reg.degenerate_directions == 6 for reg in registered)
    if unestimated:
        print(f"featslam: note: {unestimated} of {len(registered)} registrations "
              "estimated no direction of the pose (degenerate_directions 6 in "
              "frames.csv)", file=sys.stderr)
    return 0
