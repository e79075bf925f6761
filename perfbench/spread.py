#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads single_gtx ...]

Runs run.py once per workload and seed, one run at a time, and prints for
each end-to-end metric its median and its interquartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound
in BENCHMARK.json. A spread under a third of its bound is steady; setup_s
is exempt from the spread bound. The raw values are written to
.bench_build/perfbench/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    for w in workloads:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(f"{w} seed {seed}: exit {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        out = ROOT / ".bench_build" / "perfbench" / f"spread-{w}.json"
        out.write_text(json.dumps({"seeds": args.seeds, "values": values}))
        print(f"{w} ({len(args.seeds)} seeds)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            share = (q[2] - q[0]) / med if med else 0.0
            ok = m["name"] == "setup_s" or share < m["bound"] / 3
            steady = steady and ok
            print(f"  {m['name']:22s} median {med:<12.6g} spread "
                  f"{share:7.2%}  bound {m['bound']:.2f}"
                  f"{'' if ok else '  NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
