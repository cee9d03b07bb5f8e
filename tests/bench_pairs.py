"""Paired benchmark runs of this checkout against another one, for the
end-to-end metrics that ``BENCHMARK.json`` declares.

    python3 tests/bench_pairs.py PARENT_CHECKOUT
    python3 tests/bench_pairs.py ../parent --workload aliased_rooms --pairs 6

For each workload, each pair runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` once in
PARENT_CHECKOUT and once in this checkout, one run at a time; the side that
runs first alternates from pair to pair, so a drift of the host's speed
over time falls on both sides alike.  Each checkout runs its own
``bench/`` on its own ``src/`` for the ``run_seconds`` T of
``BENCHMARK.json``, and the last line of each run's output is read as its
result.  A run that exits non-zero or reports ``correct:
false`` stops the script.

One line per run is printed as it ends.  Then, per workload and metric,
in the metric's unit: each side's median and quartiles over the pairs, the
median over pairs of the ratio change / parent, the pairs the change wins
(ties count for neither side), and whether the change's median is worse
than the parent's by more than the metric's bound from ``BENCHMARK.json``:
``YES`` when it is; ``unresolved`` when it is not but the parent's
quartiles lie further apart than the bound and some change run is no
better than some parent run, so the pairs cannot tell; ``no`` otherwise.
This script is not part of the test suite.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The ``result`` object of one bench run in checkout."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench run failed in {checkout}: {' '.join(cmd)}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _summary(metric: dict, runs: dict) -> str:
    """One line on metric over the pairs of runs[side] (lists of values)."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent, change = runs["parent"], runs["change"]
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    ratio = statistics.median(c / p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worsening = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    _, p_q1, p_q3 = _quartiles(parent)
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if worsening > metric["bound"]:
        verdict = "YES"
    elif (p_q3 - p_q1) / p_med > metric["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "no"
    sides = "  ".join(
        "{} {:.4g} [{:.4g}, {:.4g}]".format(side, *_quartiles(runs[side])) for side in SIDES
    )
    return (f"  {name} ({metric['unit']}, {metric['better']} is better): {sides}  "
            f"ratio {ratio:.3f}  wins {wins}/{len(parent)}  "
            f"worse than bound {metric['bound']:.0%}: {verdict}")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to run (repeatable; default: those of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]

    for workload in workloads:
        runs = {side: {m["name"]: [] for m in metrics} for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                values = _run(checkouts[side], workload, args.seed,
                              benchmark["run_seconds"])
                for m in metrics:
                    runs[side][m["name"]].append(values[m["name"]])
                print(f"{workload} pair {pair} {side}: " + "  ".join(
                    f"{m['name']} {values[m['name']]:.4g}" for m in metrics), flush=True)
        print(f"{workload}, {args.pairs} pairs, seed {args.seed}:")
        for m in metrics:
            print(_summary(m, {side: runs[side][m["name"]] for side in SIDES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
