#!/usr/bin/env python3
"""Build and run the end-to-end overlay benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (which compiles ../src
itself) into .bench_build/perfbench under the repository root; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. `--workload all` runs every workload
named in BENCHMARK.json in turn, for its run_seconds unless --seconds is
given, and prints each metric by name with its unit. The exit code is nonzero when the build fails, when any operation
fails the delivery oracle, or when a run exceeds its time limit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "overlay_bench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, out


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def run_all(args):
    """Runs every workload of BENCHMARK.json and prints its metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    common = ["--seed", option(args, "--seed", "1"),
              "--seconds", option(args, "--seconds",
                                  str(bench["run_seconds"])),
              "--trace", option(args, "--trace", "0")]
    status = 0
    for name in names:
        code, out = run_binary(["--workload", name] + common)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            status = status or code or 1
            print("%s: FAILED (exit %d)" % (name, code))
            continue
        result = json.loads(lines[-1])
        print("%s: attempted %d, failed %d, correct %s" %
              (name, result["attempted"], result["failed"], result["correct"]))
        for metric, m in result["metrics"].items():
            print("  %-42s %18.6f %s" % (metric, m["value"], m["unit"]))
    return status


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    if option(args, "--workload", None) == "all":
        return run_all(args)
    code, out = run_binary(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
