#!/usr/bin/env python3
"""Steadiness and comparison tooling for the benchmark (perfbench/run.py).

Run one workload k times, one seed each, and print every metric's median,
quartiles and spread (IQR / median), flagging spreads above the metric's
bound (and, as "noisy", above a third of it):

    python3 perfbench/steady.py runs --workload read_mem --seeds 1-10

Compare a parent checkout with a change by the rule of the choosing-metrics
guide (section 8): pairs run in alternating order on the same seed; a gain
needs the change to win at least 9 of 10 pairs and the medians to differ by
more than the parent's IQR; a regression is a median worse than the
parent's by more than the metric's bound.

    python3 perfbench/steady.py compare --parent ../parent --change . \\
        --workload read_mem --pairs 10

Both commands run the benchmark from the root of each checkout, exactly as
a driver would, and store raw results under .bench_build/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (the metric table lives in run.py)

BOUNDS = {n: bound for n, _, _, bound in bench.END_TO_END}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode,
                                                       " ".join(cmd)))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def save(name, data):
    out = os.path.join(bench.BUILD, "steady")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w") as f:
        json.dump(data, f, indent=1)


def cmd_runs(args):
    results = []
    for seed in parse_seeds(args.seeds):
        start = time.time()
        r = run_once(bench.ROOT, args.workload, seed, args.seconds, args.trace)
        results.append(r)
        print("seed %d: correct=%s failed=%d wall=%.1fs" % (
            seed, r["correct"], r["failed"], time.time() - start), flush=True)
    save("%s-trace%d.json" % (args.workload, args.trace), results)
    names = list(results[0]["metrics"])
    flagged = 0
    print("%-34s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3",
                                            "spread", "bound"))
    for n in names:
        vals = [r["metrics"][n]["value"] for r in results]
        q1, med, q3 = quartiles(vals)
        s = spread(vals) if med else 0.0
        bound = BOUNDS.get(n)
        mark = ""
        if bound is not None and s > bound:
            mark = "  OVER BOUND"
            flagged += 1
        elif bound is not None and s > bound / 3:
            mark = "  noisy (> bound/3)"
        print("%-34s %14.4f %14.4f %14.4f %8.3f %6s%s" % (
            n, q1, med, q3, s, "-" if bound is None else bound, mark))
    return 1 if flagged else 0


def cmd_compare(args):
    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        pair = {}
        for side, root in order:
            pair[side] = run_once(root, args.workload, seed, args.seconds, 0)
        pairs.append(pair)
        print("pair %d (seed %d, %s first) done" % (i + 1, seed, order[0][0]),
              flush=True)
    save("compare-%s.json" % args.workload, pairs)
    print("%-16s %12s %12s %12s %6s  %s" % ("metric", "parent", "change",
                                            "parent_iqr", "wins", "verdict"))
    regressions = 0
    for n, _, better, bound in bench.END_TO_END:
        p = [pr["parent"]["metrics"][n]["value"] for pr in pairs]
        c = [pr["change"]["metrics"][n]["value"] for pr in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        pq1, pmed, pq3 = quartiles(p)
        cmed = statistics.median(c)
        gap = sign * (cmed - pmed)
        worse_share = -gap / abs(pmed) if pmed else 0.0
        every_run_better = all(sign * (b - a) > 0 for b in c for a in p)
        if wins >= 0.9 * len(pairs) and abs(cmed - pmed) > (pq3 - pq1):
            verdict = "gain"
        elif worse_share > bound:
            verdict = "REGRESSION"
            regressions += 1
        elif spread(p) > bound and not every_run_better:
            verdict = "unresolved (spread > bound)"
        else:
            verdict = "no regression"
        print("%-16s %12.4f %12.4f %12.4f %3d/%d  %s" % (
            n, pmed, cmed, pq3 - pq1, wins, len(pairs), verdict))
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs", help="k runs of one workload, spread per metric")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=bench.RUN_SECONDS)
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c = sub.add_parser("compare", help="parent vs change, alternating pairs")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=101)
    c.add_argument("--seconds", type=int, default=bench.RUN_SECONDS)
    args = p.parse_args()
    return cmd_runs(args) if args.cmd == "runs" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
