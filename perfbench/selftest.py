#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny scale (about a minute in all):

    python3 perfbench/selftest.py

  * BENCHMARK.json matches the metric table in run.py.
  * Every workload, traced and untraced, exits 0 with correct=true and
    reports every named metric, finite, with its unit.
  * A corrupted read payload trips the checker (non-zero exit,
    correct=false).
  * In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SCALE = "0.02"
SECONDS = "2"
failures = []


def check(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def invoke(root, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), "--scale", SCALE] + list(extra)
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def last_json(stdout):
    try:
        return json.loads(stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        return None


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        check(json.load(f) == bench.benchmark_json(),
              "BENCHMARK.json matches run.py's metric table")

    for workload, _, _ in bench.WORKLOADS:
        for trace, table in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
            proc = invoke(bench.ROOT, workload, trace)
            result = last_json(proc.stdout)
            tag = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0 and result is not None and
                  result["correct"], tag + " exits 0 with correct=true")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], tag + " result keys")
            metrics = result["metrics"]
            for entry in table:
                name, unit = entry[0], entry[1]
                m = metrics.get(name)
                check(m is not None and m.get("unit") == unit and
                      isinstance(m.get("value"), (int, float)) and
                      math.isfinite(m["value"]),
                      "%s: %s present, finite, in %s" % (tag, name, unit))

    proc = invoke(bench.ROOT, "read_mem", 0, "--corrupt")
    result = last_json(proc.stdout)
    check(proc.returncode != 0 and result is not None and
          not result["correct"], "a corrupted payload trips the checker")

    bare = os.path.join(bench.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(bare, "read_mem", 0)
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "without the sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
