#!/usr/bin/env python3
"""The repository benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload read_mem --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds the driver (perfbench/CMakeLists.txt,
which compiles the library from src/) into .bench_build/, runs the named
workload, and prints a metrics table followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The exit code is non-zero
when any output was wrong or the benchmark could not be built or run.

    python3 perfbench/run.py --write-benchmark-json

regenerates BENCHMARK.json from the metric table below, which is the single
definition of names, units and regression bounds.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_SECONDS = 12
RUN_TIMEOUT_S = 170

# name, why, gated. Gated workloads are listed in BENCHMARK.json. disk_scan
# runs and self-tests like the others but is not gated: its fsync-bound
# figures (write_p50_us, capacity_kqps, split_ms) spread 0.5 of their median
# across ten runs on a shared VM, twice the largest bound allowed.
WORKLOADS = [
    ("read_mem", "fits in memory: zipfian point reads on PGM over 2M osm keys; "
                 "index lookup, router and shard queue do the work", True),
    ("write_drift", "key-shift drift, 40% inserts, on FITing-tree-buf with "
                    "background retraining: insert path, SMOs and retrains",
     True),
    ("repl_semisync", "YCSB-A on ALEX with semi-sync replication: the only "
                      "workload with the replication ack on the write path",
     True),
    ("disk_scan", "larger than the cache: paged file with a pool of 3% of data "
                  "pages, 15% scans; buffer pool, io engine and fsyncs", False),
]

# name, unit, better, bound (end-to-end metrics; bound = share of the
# parent's median by which a change may worsen the metric).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("read_p50_us", "us", "lower", 0.25),
    ("write_p50_us", "us", "lower", 0.25),
    ("capacity_kqps", "kops/s", "higher", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
]

# name, unit, better (per-layer metrics from the traced run).
PER_LAYER = [
    ("router.submit_ns_per_req", "ns", "lower"),
    ("router.blocked_frac", "ratio", "lower"),
    ("shard.queue_wait_us.p50", "us", "lower"),
    ("shard.queue_wait_us.p99", "us", "lower"),
    ("shard.exec_us.p50", "us", "lower"),
    ("shard.exec_us.p99", "us", "lower"),
    ("shard.reqs_per_batch", "count", "higher"),
    ("shard.read_run_len", "count", "higher"),
    ("shard.busy_frac", "ratio", "higher"),
    ("shard.load_imbalance", "ratio", "lower"),
    ("store.get_ns_per_key", "ns", "lower"),
    ("store.self_ns_per_op", "ns", "lower"),
    ("store.put_us.p50", "us", "lower"),
    ("store.put_us.p99", "us", "lower"),
    ("store.scan_us.p50", "us", "lower"),
    ("store.barriers_per_put", "count", "lower"),
    ("store.bytes_written_per_user_byte", "ratio", "lower"),
    ("pool.hit_rate", "ratio", "higher"),
    ("pool.fetches_per_lookup", "count", "lower"),
    ("pool.evictions_per_op", "count", "lower"),
    ("pool.dedup_waits", "count", "lower"),
    ("pool.all_pinned", "count", "lower"),
    ("io.waits_per_batch", "count", "lower"),
    ("io.max_inflight", "count", "higher"),
    ("io.errors", "count", "lower"),
    ("readahead.hit_frac", "ratio", "higher"),
    ("readahead.wasted_frac", "ratio", "lower"),
    ("commit.group_size", "count", "higher"),
    ("index.get_ns", "ns", "lower"),
    ("index.getbatch_ns_per_key", "ns", "lower"),
    ("index.window_keys.mean", "count", "lower"),
    ("index.insert_ns.p50", "ns", "lower"),
    ("index.insert_ns.p99", "ns", "lower"),
    ("index.scan_ns_per_key", "ns", "lower"),
    ("index.depth", "count", "lower"),
    ("index.bytes_per_key", "bytes", "lower"),
    ("index.retrains", "count", "lower"),
    ("index.retrain_ms", "ms", "lower"),
    ("index.moved_keys_per_insert", "count", "lower"),
    ("maint.collect_us.mean", "us", "lower"),
    ("maint.prepare_ms.mean", "ms", "lower"),
    ("maint.publish_us.p99", "us", "lower"),
    ("maint.published", "count", "higher"),
    ("maint.abort_frac", "ratio", "lower"),
    ("repl.ack_wait_us.p50", "us", "lower"),
    ("repl.ack_wait_us.p99", "us", "lower"),
    ("repl.apply_us.p50", "us", "lower"),
    ("repl.lag_records.mean", "count", "lower"),
    ("repl.records_per_batch", "count", "higher"),
    ("repl.ack_failures", "count", "lower"),
    ("recover.rebuild_ms.max", "ms", "lower"),
    ("failover.rebuild_ms", "ms", "lower"),
    ("failover.drain_ms", "ms", "lower"),
    ("loadgen.late_us.p99", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("e2e.scan_p50_us", "us", "lower"),
    ("e2e.read_p99_us", "us", "lower"),
    ("e2e.write_p99_us", "us", "lower"),
    ("e2e.scan_p99_us", "us", "lower"),
    ("e2e.recover_ms", "ms", "lower"),
    ("e2e.split_ms", "ms", "lower"),
    ("e2e.failover_ms", "ms", "lower"),
]


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why}
                      for n, why, gated in WORKLOADS if gated],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path or None."""
    os.makedirs(BUILD, exist_ok=True)
    cmake_dir = os.path.join(BUILD, "cmake")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                log("perfbench: build failed: " + " ".join(cmd))
                if "-S" in cmd:
                    # A failed configure must not leave a cache that skips it.
                    shutil.rmtree(cmake_dir, ignore_errors=True)
                return None
    exe = os.path.join(cmake_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def filesystem_of(path):
    """(mount point, fs type) of the filesystem holding `path`."""
    path = os.path.realpath(path)
    best = ("", "unknown")
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best[0]):
                    best = (mnt, parts[2])
    except OSError:
        pass
    return best


def source_commit():
    """The git commit, or a content hash of src/ and perfbench/ when the
    checkout is not a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def run(args):
    exe = build()
    if exe is None:
        return 2
    data_root = os.path.join(BUILD, "data")
    data_dir = os.path.join(data_root, "run-%d" % os.getpid())
    spans_dir = os.path.join(BUILD, "spans")
    results_dir = os.path.join(BUILD, "results")
    for d in (data_dir, spans_dir, results_dir):
        os.makedirs(d, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(spans_dir, tag + ".csv")]
    if args.scale != 1.0:
        cmd += ["--scale", repr(args.scale)]
    if args.corrupt:
        cmd.append("--corrupt")
    mount, fstype = filesystem_of(data_dir)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(proc.stdout[-2000:])
        log("perfbench: driver exited %d without a result" % proc.returncode)
        return proc.returncode or 4

    want = END_TO_END if args.trace == 0 else PER_LAYER
    metrics = result["metrics"]
    names = [m[0] for m in want]
    missing = [n for n in names if n not in metrics]
    bad = [n for n in names if n in metrics and
           not math.isfinite(metrics[n]["value"])]
    if missing or bad:
        log("perfbench: metrics missing %s, not finite %s" % (missing, bad))
        return 5

    env = dict(result.get("info", {}))
    env.update({"nproc": str(len(os.sched_getaffinity(0))),
                "kernel": platform.release(),
                "data_fs": "%s on %s" % (fstype, mount),
                "commit": source_commit(),
                "seconds": str(args.seconds)})
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1, sort_keys=True)

    for line in lines[:-1]:
        print(line)
    for k in sorted(env):
        print("# %s: %s" % (k, env[k]))
    final = {"correct": bool(result["correct"]),
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": {n: metrics[n] for n in names}}
    print(json.dumps(final), flush=True)
    if proc.returncode != 0 or not final["correct"]:
        return proc.returncode or 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w for w, _, _ in WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink data and rates (self-test only)")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one read payload (self-test only)")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="regenerate BENCHMARK.json and exit")
    args = p.parse_args()
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
