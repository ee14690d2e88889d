#!/usr/bin/env python3
"""Build the simulator and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result.  `--workload all`
runs every workload in turn and prints each end-to-end metric by name.
"""
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ["report", "replay", "mutators", "serve"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("run.py: run from the root of a regions-repro checkout",
              file=sys.stderr)
        return False
    # The shared dune cache lives outside the checkout: keep it out.
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/bench.exe", "./bin/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return False
    return r.returncode == 0


BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
REPRO = os.path.join(BUILD_DIR, "default", "bin", "main.exe")


def expected_metrics(argv):
    """The metric names and units BENCHMARK.json asks of this run."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_one(argv):
    """Run bench.exe, pass its output through, and refuse a result line
    that does not hold exactly the metrics BENCHMARK.json names."""
    out = subprocess.run([BENCH, "--repro", REPRO] + argv,
                         stdout=subprocess.PIPE, text=True)
    lines = out.stdout.rstrip("\n").splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        return out.returncode or 1
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    try:
        got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        print("run.py: unreadable result line: %s" % e, file=sys.stderr)
        return 1
    want = expected_metrics(argv)
    if got != want:
        print("run.py: result metrics differ from BENCHMARK.json: missing %s, "
              "unexpected %s, units differ %s" % (
                  sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                  sorted(k for k in set(want) & set(got) if want[k] != got[k])),
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


def run_all(argv):
    status = 0
    for w in WORKLOADS:
        out = subprocess.run([BENCH, "--repro", REPRO, "--workload", w] + argv,
                             stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("%-9s FAILED (exit %d)" % (w, out.returncode))
            status = 1
            continue
        res = json.loads(lines[-1])
        print("%-9s correct=%s attempted=%d failed=%d" %
              (w, res["correct"], res["attempted"], res["failed"]))
        for name, v in res["metrics"].items():
            print("  %-28s %16.6g %s" % (name, v["value"], v["unit"]))
    return status


def main():
    argv = sys.argv[1:]
    if not build():
        return 2
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            return run_all(argv[:i] + argv[i + 2:])
    return run_one(argv)


if __name__ == "__main__":
    sys.exit(main())
