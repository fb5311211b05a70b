#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload explore-wide|walk-deep|serve-faults
                             --seed N --seconds S --trace 0|1

Prints the run environment, every metric by name with its unit (exact
counters apart from timings), any failed checks, and as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    END_TO_END,
    EXACT,
    PER_LAYER,
    ROOT,
    SRC,
    isolated_environment,
    read_json,
)


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and always a
    digest of the source tree (the checkout may not be a repository)."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def catalogue_problem() -> str:
    """Why BENCHMARK.json and the metric catalogue disagree, or ``''``."""
    try:
        spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError) as error:
        return f"cannot read BENCHMARK.json: {error}"
    declared = {m["name"]: m["unit"] for m in spec.get("end_to_end", [])}
    layers = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    if declared != END_TO_END or layers != PER_LAYER:
        return "BENCHMARK.json metrics differ from perfbench/common.py"
    return ""


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    exact = {k: v for k, v in metrics.items() if k in EXACT}
    other = {k: v for k, v in metrics.items() if k not in EXACT}
    for heading, group in (("exact counters", exact), ("measured", other)):
        if not group:
            continue
        print(f"{title} — {heading}:")
        for name, value in group.items():
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:<36} {shown:>14} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore-wide", "walk-deep", "serve-faults"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"perfbench: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    problem = catalogue_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    isolated_environment()
    # SIGTERM unwinds like an error, so children are stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import workloads

    expected = read_json(os.path.join(BENCH_DIR, "expected.json"))
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), expected)
    started = time.perf_counter()
    try:
        e2e, layer = {
            "explore-wide": workloads.explore_wide,
            "walk-deep": workloads.walk_deep,
            "serve-faults": workloads.serve_faults,
        }[args.workload](run)
    finally:
        run.close()
    if run.attempted:
        e2e["success_ratio"] = 1.0 - len(run.failures) / run.attempted
    units = PER_LAYER if args.trace else END_TO_END
    chosen = layer if args.trace else e2e
    missing = [name for name in units if name not in chosen]
    run.tally("metrics", ["not measured: " + ", ".join(missing)] if missing else [])

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **source_identity(),
        **run.env,
        "elapsed_s": time.perf_counter() - started,
    }
    print("environment: " + json.dumps(environment, sort_keys=True))
    print_metrics("end-to-end", e2e, END_TO_END)
    if layer:
        print_metrics("per-layer (traced run)", layer, PER_LAYER)
    for failure in run.failures:
        print(f"FAILED {failure}")
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": chosen[name], "unit": unit}
            for name, unit in units.items()
            if name in chosen
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
