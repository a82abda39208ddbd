#!/usr/bin/env python3
"""Runs perfbench on several seeds and reports how steady each metric is.

Run from the repository root:

    python3 perfbench/steady.py --workload live-blas --seeds 1-10
    python3 perfbench/steady.py --workload cluster-serve --seeds 1-5 --trace 1

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the minimum and maximum, and
the spread: the distance between the quartiles as a share of the median.
An end-to-end spread must stay below a third of the metric's bound in
BENCHMARK.json. With --trace 1 the traced end-to-end figures are compared
with the medians of the untraced runs saved by an earlier call, which gives
the tracing overhead. Raw results and each run's report are kept under
.bench_build/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace, log):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    with open(log, "w") as f:
        f.write(out.stdout + out.stderr)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: incorrect result {res['failed']}/{res['attempted']}")
    # The report lines "end-to-end <name> <nominal> at nominal host speed,
    # <raw> as measured" give the figures before normalization.
    res["raw"] = {}
    for line in lines:
        f = line.split()
        if f[:1] == ["end-to-end"] and f[-2:] == ["as", "measured"]:
            res["raw"][f[1]] = float(f[-3])
        if line.startswith("host speed "):
            # "host speed scalar <factor> (...) kernel <factor> (...)"
            for name, value in zip(f[2:], f[3:]):
                if name in ("scalar", "kernel") and "host_speed." + name not in res["raw"]:
                    res["raw"]["host_speed." + name] = float(value)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    outdir = os.path.join(".bench_build", "steady")
    os.makedirs(outdir, exist_ok=True)
    raw = os.path.join(outdir, f"{args.workload}-trace{args.trace}.jsonl")

    results = []
    with open(raw, "w") as f:
        for s in seeds(args.seeds):
            log = os.path.join(outdir, f"{args.workload}-trace{args.trace}-seed{s}.log")
            res = run(args.workload, s, bench["run_seconds"], args.trace, log)
            f.write(json.dumps({"seed": s, **res}) + "\n")
            results.append(res)
            print(f"seed {s}: ok, {res['attempted']} attempted", flush=True)

    table = [(n, [r["metrics"][n]["value"] for r in results]) for n in results[0]["metrics"]]
    table += [("raw." + n, [r["raw"][n] for r in results]) for n in sorted(results[0]["raw"])]
    print(f"\n{args.workload} trace={args.trace}, {len(results)} runs")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound/3':>8}")
    medians = {}
    for n, vals in table:
        med = statistics.median(vals)
        medians[n] = med
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(n)
        flag = ""
        if b is not None:
            flag = f"{b / 3:8.4f}" + ("  TOO NOISY" if spread >= b / 3 and n != "setup_s" else "")
        print(f"{n:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} {max(vals):12.6g} {spread:8.4f} {flag}")

    summary = os.path.join(outdir, f"{args.workload}-trace{args.trace}-medians.json")
    with open(summary, "w") as f:
        json.dump(medians, f, indent=1)
    if args.trace == 1:
        untraced = os.path.join(outdir, f"{args.workload}-trace0-medians.json")
        if os.path.exists(untraced):
            with open(untraced) as f:
                base = json.load(f)
            print("\ntracing overhead (traced median vs untraced median):")
            for n, v in medians.items():
                if n.startswith("traced.") and base.get(n[len("traced."):]):
                    b = base[n[len("traced."):]]
                    print(f"  {n[len('traced.'):]:16} untraced {b:.6g}  traced {v:.6g}  ({100 * (v - b) / b:+.2f}%)")


if __name__ == "__main__":
    main()
