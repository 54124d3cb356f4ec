#!/usr/bin/env python3
"""Steadiness report for the wall-clock benchmark.

Runs every workload (or the ones named) several times, each run with
its own seed, through the command in BENCHMARK.json, and prints for
each end-to-end metric its median, quartiles and spread (distance
between the quartiles as a share of the median) next to the bound that
BENCHMARK.json fixes. With --sets 2 it repeats the whole series and
also reports how far the second median moved from the first, in the
metric's worse direction. Runs are interleaved across workloads so a
drift of the machine lands on all of them alike.

    python3 wallbench/steadiness.py --runs 10 --out wallbench/STEADINESS.md

Run from the repository root. Builds into .bench_build (unless
CARGO_TARGET_DIR says otherwise). Exits 1 when a run fails its checks
or a spread or median shift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return result, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_share(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def render(values, workloads, metrics, header):
    """The markdown table for values[set][workload][metric], and whether
    every spread and median shift is within its bound."""
    sets = len(values)
    out = [
        "# Benchmark steadiness",
        "",
        header,
        "Spread = (Q3 − Q1) / median of the run values "
        "(`statistics.quantiles(values, n=4)`); \"worse by\" is how far the "
        "second set's median moved from the first in the metric's worse direction.",
        "",
        "| workload | metric | unit | median | Q1 | Q3 | spread | bound | spread/bound"
        + (" | 2nd median | 2nd spread | worse by |" if sets > 1 else " |"),
        "|---|---|---|---|---|---|---|---|---" + ("|---|---|---|" if sets > 1 else "|"),
    ]
    ok = True
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, q1, q3, spread = summarize(values[0][w][name])
            row = (f"| {w} | {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                   f"| {spread:.4f} | {bound} | {spread / bound:.2f}")
            if spread > bound:
                ok = False
                row += " (over)"
            for s in range(1, sets):
                med2, _, _, spread2 = summarize(values[s][w][name])
                shift = worse_share(med, med2, m["better"])
                row += f" | {med2:.6g} | {spread2:.4f} | {shift:+.4f}"
                if shift > bound or spread2 > bound:
                    ok = False
                    row += " (over)"
            out.append(row + " |")
    return "\n".join(out) + "\n", ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="independent series to compare")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--out", help="also write the report (markdown) here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    # values[set][workload][metric] -> list of run values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    walls = []
    for s in range(args.sets):
        for r in range(args.runs):
            seed = args.seed_base + s * args.runs + r
            for w in workloads:
                result, wall = run_once(bench, w, seed, seconds)
                walls.append(wall)
                for m in metrics:
                    values[s][w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: {wall:.1f}s", file=sys.stderr)

    header = (f"{args.runs} runs per workload per set, {args.sets} set(s), seeds from "
              f"{args.seed_base}, {seconds} s measured per run, nproc = {os.cpu_count()}; "
              f"mean wall time per run {statistics.mean(walls):.1f} s.")
    report, ok = render(values, workloads, metrics, header)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
            f.write("\n## Raw values\n\n```json\n")
            f.write(json.dumps(values, indent=1))
            f.write("\n```\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
