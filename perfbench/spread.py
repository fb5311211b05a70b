#!/usr/bin/env python3
"""Run one workload over several seeds and report how steady it is.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds S]
                                [--trace 0|1] [--out RESULTS.json]

For every metric prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With ``--trace 1`` it also checks
that every exact counter read the same on every run.  Exits 1 when a
run failed, a spread exceeds its bound, or an exact counter differed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, EXACT, ROOT, last_json_line, read_json  # noqa: E402


def parse_seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def environment(stdout: str) -> str:
    """The unscaled median and the host-speed factor of one run."""
    for line in stdout.splitlines():
        if line.startswith("environment: "):
            env = json.loads(line[len("environment: "):])
            return (f"wall {env.get('raw_wall_s')} s, speed factor "
                    f"{env.get('speed_factor')}")
    return "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    bad = False
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        result = last_json_line(done.stdout)
        if done.returncode != 0 or not result or not result.get("correct"):
            bad = True
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}"
                  f"{done.stderr[-2000:]}")
        if result:
            results.append({"seed": seed, **result})
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"seed {seed}: " + json.dumps(values), flush=True)
            print(f"  unscaled {environment(done.stdout)}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    if len(results) < 2:
        return 1

    names = list(results[0]["metrics"])
    print(f"\n{args.workload}, {len(results)} runs of {seconds:g}s, trace {args.trace}")
    print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        mid = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        flag = ""
        if args.trace and name in EXACT and len(set(values)) > 1:
            flag = f"  DIFFERS: {sorted(set(values))}"
            bad = True
        elif bound is not None and name != "setup_s" and spread > bound:
            flag = "  OVER BOUND"
            bad = True
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of bound"
        shown_bound = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:<36} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {shown_bound:>6}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
