#!/usr/bin/env python3
"""Run the benchmark several times per workload and report how steady each
end-to-end metric is: median, quartiles, and the interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json. The
timed per-layer metrics that untraced runs print (`per-layer name = value`)
are reported the same way, without a bound.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --seed 1
    python3 perfbench/steadiness.py --runs 5 --workloads htap --seed 100

Each run gets its own seed (seed, seed+1, ...). Results are also appended as
JSON lines to perfbench/work/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs("perfbench/work", exist_ok=True)
    log = open("perfbench/work/steadiness.jsonl", "a")
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        timed = {}
        for i in range(args.runs):
            seed = args.seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall, "result": result}) + "\n")
            log.flush()
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            for line in proc.stdout.splitlines():
                if line.startswith("failure:"):
                    print(f"{w} seed {seed}: {line}")
                if line.startswith("per-layer "):
                    name, _, rest = line[len("per-layer "):].partition(" = ")
                    timed.setdefault(name, []).append(float(rest.split()[0]))
            print(f"{w} seed {seed} ({wall:.1f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{w}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
        rows = [(m["name"], values[m["name"]], m["bound"]) for m in bench["end_to_end"]]
        rows += [(name, xs, None) for name, xs in timed.items()]
        for name, xs, bound in rows:
            if len(xs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            if bound is None:
                flag, bound = "  (per-layer)", ""
            else:
                flag = "" if spread < bound / 3 else (" > bound/3" if spread < bound else " > BOUND")
            print(f"  {name:<34} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.3f} {bound:>6}{flag}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
