#!/usr/bin/env python3
"""Serving benchmark command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the BASM library from
src/ plus the basm_perfbench binary) into .bench_build/perfbench, then runs
one workload: the binary spawns the server process, drives it over loopback
and checks its slates. Progress and a human-readable summary go to stderr;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import math
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "basm_perfbench")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(args):
    workdir = os.path.join(BUILD, "run-%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Own session, so a timeout can stop the generator and the server it
    # spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log("perfbench: basm_perfbench exited with %d" % proc.returncode)
        return None
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    result = run_binary(args)
    if result is None:
        return 1

    # The printed metrics must be exactly BENCHMARK.json's list for this
    # mode, with its units, valid names and finite values.
    want = expected_metrics(args.trace)
    got = result.get("metrics", {})
    problems = []
    if set(got) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if name in want and m.get("unit") != want[name]:
            problems.append("unit of %s is %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("value of %s is not a finite number" % name)
    for p in problems:
        log("perfbench: " + p)
    result["correct"] = bool(result.get("correct")) and not problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
