#!/usr/bin/env python3
"""Compares the repository benchmark on two source trees, in interleaved pairs.

    python3 tools/perf_ab.py --parent <tree> --change <tree> [--pairs 10] \
        [--seconds 15] [--workloads a,b] [--seed-base N] \
        [--claim workload:metric ...] [--out runs.json]
    python3 tools/perf_ab.py --load runs.json [--claim workload:metric ...]

Before the first pair it prints the line count of the .cpp and .hpp files
under src/ in both trees and their difference (the change's net line delta).

Each pair runs `python3 perfbench/run.py --trace 0` once in each tree, on
one fresh seed shared by both sides, and swaps which tree runs first from
one pair to the next.  Within a pair every workload runs, so drift of the
host hits both sides of a pair alike.

For every workload and end-to-end metric of BENCHMARK.json (read from the
change tree) it prints both sides' median and quartiles, the parent's
spread (IQR/median), the ratio change/parent of the medians and the pairs
the change won (ties count for neither side).  It flags a metric whose
median is worse than the parent's by more than its bound, and every run
that was not correct.  A claim names a workload and metric; it is met when
at least 10 pairs ran, the change won at least 9 of every 10 of them, and
the medians differ, in the better direction, by more than the parent's
IQR.

Exit status: 0 when nothing is flagged and every claim is met, else 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds, size="full"):
    """One perfbench run; returns its result line (a dict)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--size", size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def src_lines(tree):
    """Lines of the .cpp and .hpp files under tree/src."""
    return sum(len(path.read_bytes().splitlines())
               for path in Path(tree, "src").rglob("*")
               if path.suffix in (".cpp", ".hpp"))


def collect(args, spec):
    trees = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    for side in SIDES:  # builds each tree once, outside any timed pair
        print(f"building {side}: {trees[side]}", file=sys.stderr, flush=True)
        run_once(trees[side], workloads[0], 0, 1, size="tiny")
    runs = []
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "workload": workload, "result": result})
                value = result["metrics"].get("items_per_s", {}).get("value")
                print(f"pair {pair} seed {seed} {workload:12s} {side:6s} "
                      f"correct={result['correct']} items_per_s={value}",
                      file=sys.stderr, flush=True)
                if args.out:  # after every run: a cut session keeps its data
                    Path(args.out).write_text(json.dumps(
                        {"spec": spec, "runs": runs}, indent=1))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def analyse(runs, spec, claims):
    metrics = spec["end_to_end"]
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    flags = []
    for r in runs:
        if not r["result"]["correct"]:
            flags.append(f"incorrect run: {r['workload']} {r['side']} "
                         f"seed {r['seed']}")
    print("| workload | metric | parent median [Q1, Q3] | change median "
          "[Q1, Q3] | parent IQR/median | change/parent | change wins |")
    print("|---|---|---|---|---|---|---|")
    verdicts = {}
    for workload in workloads:
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for p in pairs.values() if len(p) == 2]
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [p[side]["metrics"][name]["value"]
                             for p in complete
                             if name in p[side]["metrics"]]
                      for side in SIDES}
            if not values["parent"] or not values["change"]:
                continue
            med = {s: statistics.median(values[s]) for s in SIDES}
            quart = {s: quartiles(values[s]) for s in SIDES}
            iqr = quart["parent"][1] - quart["parent"][0]
            wins = 0
            for p in complete:
                a = p["parent"]["metrics"].get(name, {}).get("value")
                b = p["change"]["metrics"].get(name, {}).get("value")
                if a is None or b is None or a == b:
                    continue
                wins += (b > a) == higher
            ratio = med["change"] / med["parent"] if med["parent"] else math.nan
            worse = ratio < 1 - metric["bound"] if higher \
                else ratio > 1 + metric["bound"]
            if worse:
                flags.append(f"{workload} {name}: change/parent {ratio:.3f} "
                             f"is worse than its bound {metric['bound']}")
            gap = med["change"] - med["parent"]
            verdicts[(workload, name)] = (
                len(complete) >= 10 and
                wins >= math.ceil(0.9 * len(complete)) and
                (gap if higher else -gap) > iqr, wins, len(complete))
            spread = iqr / med["parent"] if med["parent"] else math.nan
            print(f"| {workload} | {name} | {med['parent']:.4g} "
                  f"[{quart['parent'][0]:.4g}, {quart['parent'][1]:.4g}] | "
                  f"{med['change']:.4g} [{quart['change'][0]:.4g}, "
                  f"{quart['change'][1]:.4g}] | {spread:.1%} | {ratio:.3f} | "
                  f"{wins}/{len(complete)} |")
    ok = not flags
    for claim in claims:
        workload, name = claim.split(":")
        met, wins, total = verdicts.get((workload, name), (False, 0, 0))
        print(f"claim {workload} {name}: {'met' if met else 'NOT met'} "
              f"({wins}/{total} wins; rule: >= 10 pairs, >= 9 wins in 10 "
              f"and a gap larger than the parent's IQR)")
        ok = ok and met
    for flag in flags:
        print(f"FLAG {flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seed-base", type=int,
                        default=int.from_bytes(os.urandom(3), "big"))
    parser.add_argument("--claim", action="append", default=[],
                        help="workload:metric that the change claims")
    parser.add_argument("--out", help="write the raw runs here (JSON)")
    parser.add_argument("--load", help="analyse saved runs; run nothing")
    args = parser.parse_args()

    if args.load:
        saved = json.loads(Path(args.load).read_text())
        spec, runs = saved["spec"], saved["runs"]
    else:
        if not args.parent or not args.change:
            parser.error("--parent and --change are required unless --load")
        spec = json.loads(
            (Path(args.change) / "BENCHMARK.json").read_text())
        lines = {side: src_lines(getattr(args, side)) for side in SIDES}
        print(f"src .cpp/.hpp lines: parent {lines['parent']}, change "
              f"{lines['change']}, change - parent "
              f"{lines['change'] - lines['parent']:+d}", flush=True)
        print(f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}",
              file=sys.stderr, flush=True)
        runs = collect(args, spec)
    sys.exit(0 if analyse(runs, spec, args.claim) else 1)


if __name__ == "__main__":
    main()
