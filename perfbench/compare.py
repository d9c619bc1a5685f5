#!/usr/bin/env python3
"""Collect and compare result sets of the end-to-end overlay benchmark.

Standard library only. From the repository root:

    # two sets of ten untraced runs per workload, made side by side: run i
    # of set A (seed i) and run i of set B (seed 10 + i) follow each other,
    # in alternating order, so a change of host speed hits both sets alike
    python3 perfbench/compare.py collect --out a.jsonl --out-b b.jsonl --runs 10

    # set B from another checkout (say the parent commit), on set A's seeds
    python3 perfbench/compare.py collect --out new.jsonl --out-b old.jsonl \
        --root-b ../parent

    # medians and quartiles per workload and metric, checked against the
    # bounds in BENCHMARK.json
    python3 perfbench/compare.py compare a.jsonl [b.jsonl]

`compare` checks, for every end-to-end metric of every workload, that each
set's quartile spread (q3 - q1) / median stays within the metric's bound,
and, given two sets, that the second median is not worse than the first by
more than the bound and that the share of failed operations is the same. It
exits nonzero when a check fails. For two sets collected side by side it
also prints the paired shift, the median over i of B_i / A_i - 1: a shift
of the medians that the paired shift does not share came from the host
changing speed between runs, not from the code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, name, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", name, "--seed", str(seed), "--seconds", seconds,
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    print("%s %s seed %d: exit %d" % (root, name, seed, proc.returncode),
          file=sys.stderr)
    return {"workload": name, "seed": seed, "exit": proc.returncode,
            "result": json.loads(lines[-1]) if lines else None}


def collect(args):
    bench = load_benchmark()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = str(args.seconds or bench["run_seconds"])
    sets = [(ROOT, args.out, 0)]
    if args.out_b:
        # Two checkouts run the same seeds, so each pair differs only in
        # code; two sets of one checkout take distinct seeds.
        sets.append((os.path.abspath(args.root_b or ROOT), args.out_b,
                     0 if args.root_b else args.runs))
    files = [open(path, "a") for _, path, _ in sets]
    try:
        for i in range(args.runs):
            for name in names:
                # Alternate which set goes first, so neither always runs
                # right after the other's build or warm-up.
                order = list(range(len(sets)))
                if i % 2:
                    order.reverse()
                for k in order:
                    root, _, offset = sets[k]
                    record = run_once(root, name, args.first_seed + offset + i,
                                      seconds)
                    record["pair"] = i
                    files[k].write(json.dumps(record) + "\n")
                    files[k].flush()
    finally:
        for f in files:
            f.close()
    return 0


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0], None, values[0])
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def paired_shift(per_set, name):
    """Median over pairs of B_i / A_i - 1, or None without pair indices."""
    value = [{r["pair"]: r["result"]["metrics"][name]["value"]
              for r in runs if r["result"] and "pair" in r}
             for runs in per_set]
    ratios = [value[1][i] / value[0][i] for i in value[0]
              if i in value[1] and value[0][i]]
    return statistics.median(ratios) - 1 if ratios else None


def compare(args):
    bench = load_benchmark()
    sets = [read_set(path) for path in args.sets]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        per_set = [s.get(workload, []) for s in sets]
        print("== %s (%s runs)" % (workload,
                                   " / ".join(str(len(r)) for r in per_set)))
        if any(not runs for runs in per_set):
            print("   missing runs")
            ok = False
            continue
        shares = []
        for runs in per_set:
            if any(r["exit"] != 0 or r["result"] is None for r in runs):
                print("   a run failed or printed no result")
                ok = False
            done = [r["result"] for r in runs if r["result"]]
            shares.append(sum(r["failed"] for r in done) /
                          max(1, sum(r["attempted"] for r in done)))
        if len(set(shares)) > 1:
            print("   failed share differs between sets: %s" % shares)
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = "   %-24s" % name
            medians = []
            for runs in per_set:
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs if r["result"]]
                median, q1, q3, spread = summary(values)
                medians.append(median)
                held = spread <= bound
                ok = ok and held
                line += " | median %12.4f q1 %12.4f q3 %12.4f spread %6.2f%%%s" % (
                    median, q1, q3, 100 * spread, "" if held else " OVER")
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                held = worse <= bound
                ok = ok and held
                line += " | shift %+6.2f%% (bound %.0f%%)%s" % (
                    100 * change, 100 * bound, "" if held else " WORSE")
                paired = paired_shift(per_set, name)
                if paired is not None:
                    line += " | paired %+6.2f%%" % (100 * paired)
            print(line + " %s" % metric["unit"])
    print("all checks held" if ok else "some checks failed")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True, help="set A, from this checkout")
    c.add_argument("--out-b", help="set B, collected side by side with A")
    c.add_argument("--root-b", help="checkout that set B runs from; "
                   "default this one")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--seconds", type=int, default=0,
                   help="run length; default run_seconds of BENCHMARK.json")
    c.add_argument("--workloads", nargs="*")
    m = sub.add_parser("compare")
    m.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.command == "compare" and len(args.sets) > 2:
        parser.error("compare takes one or two result sets")
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
