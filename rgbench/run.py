#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 rgbench/run.py --workload point_lookup --seed 1 --seconds 20 --trace 0
    python3 rgbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 rgbench/run.py --self-test

It builds the server (examples/resp_server) and the load generator from
source into .bench_build/rgbench, runs one workload against a real
server over loopback RESP, checks every answer, and prints each metric
by name with its unit and sample count.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where
metrics holds BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1, the traced run with the layer ladder).

Workload constants (input, nominal rate, latency limit) live in
rgbench/workloads.json.  Full per-run detail, including metrics that
only some workloads have, is kept in .bench_build/results/.
See rgbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "rgbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally.  Output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target",
         "rgbench", "rgbench_selftest", "resp_server"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "rgbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def stop_group(proc):
    """Kill the run's whole process group (servers included); wait until
    every member has gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(args, workloads, bench):
    params = workloads["workloads"][args.workload]["params"]
    workdir = os.path.join(BUILD_ROOT, "run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(BUILD, "rgbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "repo", "examples", "resp_server"),
           "--workdir", workdir, "--source-id", source_id()]
    for key, value in params.items():
        if isinstance(value, bool):
            value = int(value)
        cmd += ["--param", f"{key}={value}"]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            stop_group(proc)

    detail = result = None
    for line in out.splitlines():
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        elif line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if detail is None or result is None:
        log(f"rgbench exited {proc.returncode} without a result")
        return 1

    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"command": cmd, "exit": proc.returncode, **result, **detail},
                  f, indent=1, sort_keys=True)
    spans = os.path.join(workdir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.copyfile(spans, os.path.join(results, stem + ".spans.jsonl"))

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = detail["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            log(f"metric {m['name']} missing from the {args.workload} run")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]) and proc.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    if proc.returncode != 0:
        log(f"rgbench exited {proc.returncode}: wrong answer or invalid run")
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        with open(os.path.join(HERE, "workloads.json")) as f:
            workloads = json.load(f)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log(f"set-up failed: {e}")
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "rgbench_selftest")]).returncode
    if args.workload == "all":
        # Every workload in turn, gated or not; the worst exit code wins.
        codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": w}),
                              workloads, bench)
                 for w in workloads["workloads"]]
        return max(codes)
    if args.workload not in workloads["workloads"]:
        log(f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads['workloads'])} or 'all'")
        return 2
    return run_workload(args, workloads, bench)


if __name__ == "__main__":
    sys.exit(main())
