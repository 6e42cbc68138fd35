#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1000]
                                [--workloads lunch_rank,light_model]
                                [--trace 0] [--save set1.json]
                                [--against set0.json] [--logs DIR]

Runs perfbench/run.py --runs times per workload, each with another seed, and
prints for every metric its median, quartiles (statistics.quantiles, n=4),
the quartile spread (q3 - q1) / median and the full range
(max - min) / median. End-to-end metrics whose quartile spread exceeds
their BENCHMARK.json bound are flagged, setup_s included; with --against,
so are metrics whose median got worse than the saved set's by more than the
bound. With --logs, each run's stderr summary is kept in DIR. Exits 1 when
anything is flagged or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace, logs):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if logs else subprocess.DEVNULL,
                          text=True)
    if logs:
        with open(os.path.join(logs, "%s-%d.log" % (workload, seed)), "w") as f:
            f.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", help="write the medians to this file")
    parser.add_argument("--against", help="compare medians with a saved set")
    parser.add_argument("--logs", help="keep each run's stderr in this directory")
    args = parser.parse_args()
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)
    saved = {}
    flagged = 0
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(workload, seed, args.seconds, args.trace, args.logs)
            if result is None or not result["correct"] or result["failed"]:
                print("%s seed %d: run failed or incorrect: %s"
                      % (workload, seed, result), flush=True)
                flagged += 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        print("\n%s (%d runs)" % (workload, args.runs))
        print("  %-38s %12s %12s %12s %8s %8s  %s"
              % ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "verdict"))
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            verdict = []
            bound = bounds.get(name)
            if bound is not None and iqr > bound:
                verdict.append("SPREAD>%g" % bound)
            prev = previous.get(workload, {}).get(name)
            if bound is not None and prev:
                worse = (med - prev) / prev if better[name] == "lower" else (prev - med) / prev
                if worse > bound:
                    verdict.append("DRIFT %+.1f%%" % (100 * worse))
            if bound is not None and not verdict:
                verdict.append("ok (bound %g)" % bound)
            flagged += sum(1 for v in verdict if not v.startswith("ok"))
            print("  %-38s %12.6g %12.6g %12.6g %8.3f %8.3f  %s"
                  % (name, med, q1, q3, iqr, rng, " ".join(verdict)))
            saved.setdefault(workload, {})[name] = med
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1, sort_keys=True)
    print("\n%d flagged" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
