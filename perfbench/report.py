#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric with its unit.

    python3 perfbench/report.py                      # every workload, seeds 1-10, both kinds of run
    python3 perfbench/report.py --workloads local-cnr-variants --seeds 1-5 --trace 0
    python3 perfbench/report.py --baseline perfbench/baseline.json

For each workload and metric it prints the median, the first and third
quartiles (Python's statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median. End-to-end metrics come from
`--trace 0` runs, per-layer metrics from one `--trace 1` run on the first
seed. The exit code is 1 if any run failed or reported correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        sys.stderr.write(proc.stderr[-4000:])
    result_file = next((l.split(" result file ", 1)[1] for l in lines if " result file " in l), None)
    return result, wall, result_file


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1", "both"], default="both")
    ap.add_argument("--baseline", help="write medians, quartiles and manifests to this JSON file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    kinds = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    ok = True
    out = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = out["workloads"].setdefault(workload, {})
        for trace in kinds:
            seeds = args.seeds if trace == 0 else args.seeds[:1]
            values, units, walls, manifest = {}, {}, [], None
            for seed in seeds:
                result, wall, result_file = run(workload, seed, args.seconds, trace)
                walls.append(wall)
                if result is None or not result["correct"] or result["failed"]:
                    ok = False
                    print("%s seed %d trace %d: FAILED %s" % (workload, seed, trace, result), flush=True)
                    continue
                if manifest is None and result_file:
                    with open(result_file) as f:
                        manifest = json.load(f)["manifest"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                print("%s seed %d trace %d: %.0f s wall, attempted %d, failed %d" % (
                    workload, seed, trace, wall, result["attempted"], result["failed"]), flush=True)
            kind = "end_to_end" if trace == 0 else "per_layer"
            stats = {name: dict(summary(v), unit=units[name]) for name, v in values.items()}
            entry[kind] = stats
            entry[kind + "_wall_s"] = summary(walls) if walls else None
            entry.setdefault("manifest", manifest)
            print("\n%s (%s, seeds %s)" % (workload, kind, ",".join(map(str, seeds))))
            print("  %-34s %-6s %14s %14s %14s %8s" % ("metric", "unit", "median", "q1", "q3", "spread"))
            for name, s in stats.items():
                flag = ""
                if name in bounds and s["spread"] > bounds[name] / 3:
                    flag = "  above a third of the bound %.2f" % bounds[name]
                print("  %-34s %-6s %14.4f %14.4f %14.4f %8.3f%s" % (
                    name, s["unit"], s["median"], s["q1"], s["q3"], s["spread"], flag))
            print(flush=True)
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(out, f, indent=1, sort_keys=False)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
