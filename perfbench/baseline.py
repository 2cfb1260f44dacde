#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records medians and spreads.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

For every workload and every end-to-end metric it records the median of
the runs, the first and third quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
The host stamp and each run's work ledger come from the lines the
benchmark prints before its result. A spread of setup_s is recorded but
not held to its bound: set-up time is judged by its median alone.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    extra = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag in ("host", "ledger"):
            extra[tag] = json.loads(body)
    return json.loads(lines[-1]), extra, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="defaults to run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    defs = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    doc = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "run_seconds": seconds, "runs": args.runs, "trace": args.trace,
           "workloads": {}}
    worst = 0.0
    for name in names:
        values = {d["name"]: [] for d in defs}
        ledgers, walls, failed = [], [], 0
        for i in range(args.runs):
            seed = args.first_seed + i
            res, extra, wall = run_once(name, seed, seconds, args.trace)
            walls.append(round(wall, 1))
            doc["host"] = extra.get("host")
            led = extra.get("ledger", {})
            led.pop("attribution", None)
            ledgers.append(led)
            failed += res["failed"]
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect ({res['failed']} failed)")
            for d in defs:
                values[d["name"]].append(res["metrics"][d["name"]]["value"])
        rows = {}
        print(f"== {name}: {args.runs} runs, wall {walls}")
        for d in defs:
            v = values[d["name"]]
            med = statistics.median(v)
            row = {"unit": d["unit"], "median": med, "values": v}
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / abs(med) if med else 0.0
                row.update(q1=q1, q3=q3, spread=spread)
                bound = d.get("bound")
                if bound is not None:
                    row["bound"] = bound
                    flag = ""
                    if d["name"] != "setup_s":
                        worst = max(worst, spread / bound)
                        flag = " <-- above bound/3" if spread > bound / 3 else ""
                    print(f"  {d['name']:34s} median {med:12.4f} {d['unit']:6s} "
                          f"spread {spread:6.3f} bound {bound}{flag}")
            rows[d["name"]] = row
        doc["workloads"][name] = {"metrics": rows, "failed_ops": failed,
                                  "ledgers": ledgers, "wall_s": walls}
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
