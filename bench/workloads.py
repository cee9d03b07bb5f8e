"""The benchmark's workloads: seeded synthetic worlds plus run configuration.

Each workload stresses a different part of the pipeline so that a change to
one layer has a workload that exercises it and one that bypasses it:

* ``loop_square`` is the loop back end: weakened odometry drifts, so many
  keyframes revisit mapped places and every accepted loop triggers a full
  pose-graph solve.  Scan Context queries and graph solves dominate.
* ``odometry_square`` is the front end only (loop detection off): feature
  extraction and frame-to-submap registration dominate, and no query or
  graph solve runs.  A back-end change must show no change here.
* ``aliased_rooms`` uses the loop layers the other way: two identical rooms
  produce many descriptor matches that the adaptive distance gate rejects,
  so queries are heavy and graph solves rare.  It also guards the paper's
  aliasing claim: no accepted loop may join the two rooms.

``BENCHMARK.json`` names odometry_square and aliased_rooms, whose work is
nearly the same on every seed.  loop_square runs by name only: its accepted
loop count ranges from about 13 to 30 over seeds, each graph solve costs
about 0.4 s, so its throughput differs between seeds by more than the 25 %
regression bound, and three repeats take over a minute.

Which end-to-end metric each traced layer should move, and where:

* ``simulate.generate_world`` -> ``setup_s`` on all, most on aliased_rooms.
* ``features.extract_features`` -> ``frames_per_s``, ``frame_ms_p50`` on
  odometry_square; smaller on loop_square.
* ``odometry.process_frame`` / ``register`` / ``associate`` ->
  ``frames_per_s``, ``frame_ms_p50`` on odometry_square and aliased_rooms.
* ``scan_context.build_descriptor`` / ``query`` / ``descriptor_distance`` ->
  ``frames_per_s`` on loop_square and aliased_rooms; nothing on
  odometry_square.
* ``loop_closure.estimate_loop_pose`` / ``register`` and the loop decision
  counts -> ``frames_per_s``, ``frame_ms_tail`` on loop_square.
* ``pose_graph.optimize`` / ``add_odometry_node`` / ``add_loop_edge`` ->
  ``frame_ms_tail``, ``frames_per_s`` on loop_square; nothing elsewhere.
* ``pipeline.self_s`` (per-keyframe pose snapshots, result assembly) ->
  ``frames_per_s`` on loop_square as the keyframe count grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

# Layers every workload runs; checked to record at least one call.
FRONT_END = (
    "odometry.process_frame",
    "features.extract_features",
    "odometry.register",
    "odometry.associate",
    "loop_closure.is_new_keyframe",
    "scan_context.build_descriptor",
    "pose_graph.add_odometry_node",
)
LOOP_LAYERS = (
    "scan_context.query",
    "scan_context.descriptor_distance",
    "loop_closure.gate_distance",
    "loop_closure.adaptive_threshold",
    "scan_context.shift_to_yaw",
    "loop_closure.estimate_loop_pose",
    "loop_closure.register",
    "pose_graph.add_loop_edge",
    "pose_graph.optimize",
)


@dataclass(frozen=True)
class Workload:
    name: str
    world: Dict[str, object]  # generate_world spec without the seed
    config: Dict[str, str]  # PipelineConfig items
    must_run: Tuple[str, ...]  # spans that must record calls when traced
    # traced-run property: (spans, bound, "min" or "max") on their share of
    # run_slam wall time; reported, not enforced, because timing shares move
    # with exactly the optimizations this benchmark is for
    time_share: Tuple[Tuple[str, ...], float, str]
    must_not_run: Tuple[str, ...] = ()  # spans that must record no calls
    min_accepted_loops: int = 0
    min_gate_rejections: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="loop_square",
            world=dict(shape="square", frames=307, size=24.0, laps=2.0),
            # the acceptance test's weakened odometry: drift becomes a random
            # walk that loop closure must repair
            config={
                "synthetic.shape": "square",
                "odometry.max_iterations": "2",
                "odometry.refine_iterations": "2",
                "loop.max_iterations": "80",
            },
            must_run=FRONT_END + LOOP_LAYERS,
            min_accepted_loops=1,
            time_share=(("pose_graph.optimize", "scan_context.query"), 0.5, "min"),
        ),
        Workload(
            name="odometry_square",
            world=dict(shape="square", frames=240, size=24.0, laps=1.5),
            config={"synthetic.shape": "square", "run.no_loop": "true"},
            must_run=FRONT_END,
            must_not_run=LOOP_LAYERS,
            time_share=(
                ("features.extract_features", "odometry.register"), 0.75, "min"
            ),
        ),
        Workload(
            name="aliased_rooms",
            world=dict(shape="two_rooms", separation=60.0),
            # identical rooms: loosen descriptor acceptance so the distance
            # gate is the deciding check, as in the acceptance test
            config={
                "synthetic.shape": "two_rooms",
                "scan_context.similarity_threshold": "0.5",
            },
            must_run=FRONT_END + LOOP_LAYERS,
            min_gate_rejections=1,
            time_share=(("pose_graph.optimize",), 0.05, "max"),
        ),
    )
}
