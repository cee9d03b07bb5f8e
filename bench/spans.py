"""Span tracer that wraps featslam functions where they are called.

``pipeline.py`` binds its collaborators with ``from .x import y``, so a
wrapper on ``featslam.scan_context.query`` would never run: the pipeline
calls its own ``featslam.pipeline.query`` binding.  Every wrapper here is
installed on the module that makes the call and named after the module
that defines the function, e.g. ``loop_closure.register`` is the
``odometry.register`` function as called by loop refinement.

A span's busy time is its wall duration; its self time is that minus the
durations of the spans nested directly inside it.  Spans stay in memory as
per-name totals; nothing is written while tracing.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

REGISTRATION_KEYS = (
    "iterations", "non_converged", "degenerate", "edge_matches", "plane_matches",
)


def _feature_counts(args, result) -> Dict[str, int]:
    return {"edges": len(result.edges), "planars": len(result.planars)}


def _registration_counts(args, result) -> Dict[str, int]:
    return {
        "iterations": result.iterations,
        "non_converged": int(not result.converged),
        "degenerate": int(result.degenerate),
        "edge_matches": result.num_edge_matches,
        "plane_matches": result.num_plane_matches,
    }


def _query_counts(args, result) -> Dict[str, int]:
    return {"matches": int(result is not None)}


def _optimize_counts(args, result) -> Dict[str, int]:
    return {
        "iterations": result.iterations,
        "non_converged": int(not result.converged),
        "max_nodes": len(args[0].nodes),
    }


@dataclass(frozen=True)
class Site:
    module: str  # module whose global name is replaced
    attribute: str
    span: str  # "<defining module>.<function>"
    counts: Optional[Callable] = None  # (args, result) -> {key: count}
    # keys the counts may return: summed over calls, or for "max_*" keys
    # the largest value; all start at 0
    keys: Tuple[str, ...] = ()


SITES: Tuple[Site, ...] = (
    Site("featslam.pipeline", "process_frame", "odometry.process_frame"),
    Site("featslam.odometry", "extract_features", "features.extract_features",
         _feature_counts, ("edges", "planars")),
    Site("featslam.odometry", "register", "odometry.register",
         _registration_counts, REGISTRATION_KEYS),
    Site("featslam.odometry", "associate", "odometry.associate"),
    Site("featslam.pipeline", "is_new_keyframe", "loop_closure.is_new_keyframe"),
    Site("featslam.pipeline", "build_descriptor", "scan_context.build_descriptor"),
    Site("featslam.pipeline", "query", "scan_context.query", _query_counts, ("matches",)),
    Site("featslam.scan_context", "descriptor_distance",
         "scan_context.descriptor_distance"),
    Site("featslam.pipeline", "gate_distance", "loop_closure.gate_distance"),
    Site("featslam.pipeline", "adaptive_threshold", "loop_closure.adaptive_threshold"),
    Site("featslam.pipeline", "shift_to_yaw", "scan_context.shift_to_yaw"),
    Site("featslam.pipeline", "estimate_loop_pose", "loop_closure.estimate_loop_pose"),
    Site("featslam.loop_closure", "register", "loop_closure.register",
         _registration_counts, REGISTRATION_KEYS),
    Site("featslam.pipeline", "add_odometry_node", "pose_graph.add_odometry_node"),
    Site("featslam.pipeline", "add_loop_edge", "pose_graph.add_loop_edge"),
    Site("featslam.pipeline", "optimize", "pose_graph.optimize",
         _optimize_counts, ("iterations", "non_converged", "max_nodes")),
)


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)


class TraceError(RuntimeError):
    """A name to wrap no longer exists, or is already wrapped."""


class Tracer:
    """Installs wrappers on enter, restores the original names on exit."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {
            s.span: SpanStats(counts=dict.fromkeys(s.keys, 0)) for s in SITES
        }
        self.top_level_s = 0.0  # summed duration of spans with no parent
        self._stack: List[float] = []  # child time accumulated per open span
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, site: Site, fn):
        stats = self.stats[site.span]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if site.counts is not None:
                for key, value in site.counts(args, result).items():
                    old = stats.counts[key]
                    stats.counts[key] = max(old, value) if key.startswith("max_") else old + value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__featslam_trace__ = True
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for site in SITES:
                module = importlib.import_module(site.module)
                if not hasattr(module, site.attribute):
                    raise TraceError(
                        f"cannot trace {site.span}: {site.module}.{site.attribute} "
                        "no longer exists"
                    )
                original = getattr(module, site.attribute)
                if getattr(original, "__featslam_trace__", False):
                    raise TraceError(f"{site.module}.{site.attribute} is already traced")
                self._saved.append((module, site.attribute, original))
                setattr(module, site.attribute, self._wrap(site, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)
