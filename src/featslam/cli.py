"""Command-line entry point.

    featslam run [config] [--set key=value ...] [--no-loop]
                 [--fixed-threshold M] [--synthetic SPEC]
                 [--eval GT_POSES] [--out DIR]

Precedence, lowest to highest: built-in defaults, the config file, the
dedicated flags, then --set overrides.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from .pipeline import PipelineConfig, parse_config_file, parse_overrides, run
from .simulate import WORLD_DEFAULTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featslam",
        description="Feature-based LiDAR SLAM with loop closing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="process a dataset or a synthetic world")
    runp.add_argument("config", nargs="?", help="key = value configuration file")
    runp.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override one configuration value",
    )
    runp.add_argument(
        "--no-loop", action="store_true",
        help="disable loop detection (pure odometry)",
    )
    runp.add_argument(
        "--fixed-threshold", type=float, metavar="M",
        help="accept loops within a fixed M > 0 meters instead of the adaptive gate",
    )
    runp.add_argument(
        "--synthetic", metavar="SPEC",
        help="simulate a world: SHAPE or comma-separated key=value pairs "
             f"({', '.join(WORLD_DEFAULTS)})",
    )
    runp.add_argument(
        "--eval", dest="eval_path", metavar="GT_POSES",
        help="ground-truth pose file to evaluate against",
    )
    runp.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def _synthetic_items(spec: str) -> Dict[str, str]:
    items: Dict[str, str] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, value = token.split("=", 1)
            items[f"synthetic.{key.strip()}"] = value.strip()
        else:
            items["synthetic.shape"] = token
    if "synthetic.shape" not in items:
        items["synthetic.shape"] = WORLD_DEFAULTS["shape"]
    return items


def _collect_items(args) -> Dict[str, str]:
    items: Dict[str, str] = {}
    if args.config:
        items.update(parse_config_file(args.config))
    if args.synthetic is not None:
        items.update(_synthetic_items(args.synthetic))
    if args.no_loop:
        items["run.no_loop"] = "true"
    if args.fixed_threshold is not None:
        if not args.fixed_threshold > 0.0:
            raise ValueError(f"--fixed-threshold must be > 0, got {args.fixed_threshold}")
        items["run.fixed_threshold"] = str(args.fixed_threshold)
    if args.eval_path is not None:
        items["dataset.poses"] = args.eval_path
    if args.out is not None:
        items["output.dir"] = args.out
    items.update(parse_overrides(args.overrides))
    return items


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(PipelineConfig.from_items(_collect_items(args)))
    except (ValueError, OSError) as e:
        print(f"featslam: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
