#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it configures and builds the
optimized perfbench program from the library sources under .bench_build/,
runs the named workload in one single-threaded process, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. The line before it records provenance: seed,
CPU, compiler, build type and git commit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# End-to-end metrics a workload does not measure. Every run must print
# every metric, and end-to-end values must never be 0, so these carry a
# fixed value that no measurement produces on that workload: the fleets
# have no paper reference point. Per-layer metrics of a layer a workload
# does not exercise read 0.
NOT_MEASURED = {"paper_gflops_err_pct": 100.0}

# Hang guard for the measuring process; a normal run takes well under it.
RUN_TIMEOUT_S = 600


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; nothing to benchmark")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    trace = args.trace == "1"
    wanted = spec["per_layer" if trace else "end_to_end"]

    exe = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / "results").mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if trace:
        cmd += ["--trace-out", str(BUILD / "results" / f"{tag}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with {done.returncode}", 3)
    out = json.loads(lines[-1])

    got = out["metrics"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(got) - names)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}", 3)
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in got:
            value = got[name]
        elif trace:
            value = 0.0
        elif name in NOT_MEASURED:
            value = NOT_MEASURED[name]
        else:
            fail(f"{args.workload} did not report {name}", 3)
        metrics[name] = {"value": value, "unit": m["unit"]}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "repetitions": out["reps"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": out["build"]["compiler"],
        "build_type": out["build"]["build_type"],
        "commit": git_commit(),
    }
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    with open(BUILD / "results" / f"{tag}.json", "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
