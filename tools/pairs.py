#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized per metric.

    python3 tools/pairs.py --parent ../parent --change . --workload reopt \
        --pairs 10 --seed 701 --seconds 25 [--log runs.jsonl]
    python3 tools/pairs.py --summarize runs.jsonl

Runs `python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`
in the two checkouts, one run at a time. Pair i uses seed `--seed + i` on
both sides; the parent goes first in even pairs and the change in odd ones.
Each run's result line (the last line of its standard output) is parsed
and, with `--log`, appended to a JSON-lines file that `--summarize` reads
back.

For each workload and end-to-end metric it prints both sides' medians and
quartiles, how many pairs the change won (ties count for neither side),
and whether a gain may be claimed: the change wins at least nine tenths of
the pairs, and its median is better than the parent's by more than the
parent's interquartile range. Which direction is better comes from the
`end_to_end` list of the change's `BENCHMARK.json`.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; its result object, or None if the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def better_directions(checkout):
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summarize(records, better):
    """Print one table per workload from the logged runs."""
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        pairs = {}
        for r in runs:
            pairs.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r["result"]
        complete = [p for _, p in sorted(pairs.items())
                    if all(p.get(s) is not None for s in SIDES)]
        broken = len(pairs) - len(complete)
        health = [(s, p[s]) for p in complete for s in SIDES]
        print(f"\n{workload}: {len(complete)} complete pairs"
              + (f", {broken} with a failed run" if broken else ""))
        unhealthy = [s for s, r in health if not r.get("correct") or r.get("failed", 0) != 0]
        print("  run health: " + ("correct and 0 failed in every run" if not unhealthy
                                  else f"{len(unhealthy)} runs incorrect or with failures"))
        if not complete:
            continue
        print(f"  {'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
              f" {'ratio':>7} {'wins':>7}  claim")
        for metric, direction in better.items():
            vals = {s: [p[s]["metrics"][metric]["value"] for p in complete
                        if metric in p[s]["metrics"]] for s in SIDES}
            if len(vals["parent"]) != len(complete) or len(vals["change"]) != len(complete):
                continue
            sign = 1 if direction == "lower" else -1
            wins = sum(1 for a, b in zip(vals["parent"], vals["change"]) if sign * (b - a) < 0)
            med = {s: statistics.median(vals[s]) for s in SIDES}
            qs = {s: quartiles(vals[s]) for s in SIDES}
            iqr = qs["parent"][1] - qs["parent"][0]
            gain = sign * (med["parent"] - med["change"])
            holds = wins * 10 >= 9 * len(complete) and gain > iqr
            ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
            cell = {s: f"{med[s]:.6g} [{qs[s][0]:.6g}, {qs[s][1]:.6g}]" for s in SIDES}
            print(f"  {metric:<14} {cell['parent']:>32} {cell['change']:>32}"
                  f" {ratio:>7.3f} {wins:>3}/{len(complete):<3}  {'holds' if holds else 'no'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", action="append", help="workload name; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--log", help="append each run's record to this JSON-lines file")
    ap.add_argument("--summarize", metavar="LOG", help="summarize a log instead of running")
    args = ap.parse_args()

    if args.summarize:
        records = [json.loads(l) for l in Path(args.summarize).read_text().splitlines() if l.strip()]
        summarize(records, better_directions(args.change or "."))
        return
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required unless --summarize is given")

    checkouts = {"parent": args.parent, "change": args.change}
    records = []
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                rec = {"workload": workload, "pair": i, "seed": seed, "side": side, "result": result}
                records.append(rec)
                status = "failed" if result is None else " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"{workload} pair {i} seed {seed} {side}: {status}", file=sys.stderr, flush=True)
                if args.log:
                    with open(args.log, "a") as f:
                        f.write(json.dumps(rec) + "\n")
    summarize(records, better_directions(args.change))


if __name__ == "__main__":
    main()
