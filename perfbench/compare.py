#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them against BENCHMARK.json.

    python3 perfbench/compare.py collect DIR [--workloads report,serve]
                                 [--seeds 1-10]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py compare BASE DIR

`collect` runs each workload once per seed from the root of a checkout,
untraced, and keeps each run's standard output and standard error as
DIR/<workload>-<seed>.out and .err.
`spread` prints, per workload and end-to-end metric, the median and the
quartile spread (Q3 - Q1 as a share of the median) next to a third of
the metric's bound.  `compare` compares two sets metric by metric: a
metric is WORSE when DIR's median is worse than BASE's by more than its
bound, and UNRESOLVED when either set's spread exceeds the bound.  Sets
whose host fingerprints differ (CPU model, nproc, or calibration loop
time by more than 25%) are never compared.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def collect(args):
    b = spec()
    os.makedirs(args.dir, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in b["workloads"]]
    for w in workloads:
        for s in parse_seeds(args.seeds):
            cmd = b["command"] + ["--workload", w, "--seed", str(s),
                                  "--seconds", str(b["run_seconds"]),
                                  "--trace", "0"]
            base = os.path.join(args.dir, "%s-%d" % (w, s))
            with open(base + ".err", "w") as err:
                r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                   text=True)
            path = base + ".out"
            with open(path, "w") as f:
                f.write(r.stdout)
            last = r.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("%s seed %d exit %d: %s" % (w, s, r.returncode, last[0][:160]),
                  flush=True)


def load(d):
    """{workload: [(fingerprint, result), ...]} from a directory of runs."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(d, "*.out"))):
        w = os.path.basename(path).rsplit("-", 1)[0]
        fp, res = None, None
        with open(path) as f:
            lines = f.read().strip().splitlines()
        for line in lines:
            if line.startswith("fingerprint "):
                fp = json.loads(line[len("fingerprint "):])
        if lines:
            try:
                res = json.loads(lines[-1])
            except ValueError:
                res = None
        runs.setdefault(w, []).append((fp, res))
    return runs


def fingerprint(runs):
    fps = [fp for rs in runs.values() for fp, _ in rs if fp]
    if not fps:
        return None
    keys = {(fp["cpu"], fp["nproc"]) for fp in fps}
    if len(keys) != 1:
        return "mixed"
    cpu, nproc = keys.pop()
    return {"cpu": cpu, "nproc": nproc,
            "calibration_ms": statistics.median(fp["calibration_ms"] for fp in fps)}


def same_host(a, b):
    if not isinstance(a, dict) or not isinstance(b, dict):
        return False
    if (a["cpu"], a["nproc"]) != (b["cpu"], b["nproc"]):
        return False
    ratio = a["calibration_ms"] / b["calibration_ms"]
    return 0.8 <= ratio <= 1.25


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, (q3 - q1) / med if med else float("inf")


def metric_values(rs, name):
    return [r["metrics"][name]["value"] for _, r in rs
            if r and name in r.get("metrics", {})]


def failed_share(rs):
    return [(r["failed"], r["attempted"]) for _, r in rs if r]


def spread(args):
    b = spec()
    runs = load(args.dir)
    print("fingerprint:", json.dumps(fingerprint(runs)))
    worst = 0
    for w, rs in sorted(runs.items()):
        bad = [i for i, (_, r) in enumerate(rs) if not r or not r.get("correct")]
        print("%s: %d runs, %d without a correct result, failed/attempted %s" %
              (w, len(rs), len(bad), sorted(set(
                  "%.6f" % (f / a) for f, a in failed_share(rs)))))
        for m in b["end_to_end"]:
            vals = metric_values(rs, m["name"])
            if not vals:
                continue
            med, spr = stats(vals)
            limit = m["bound"] / 3
            flag = "" if spr <= limit else "  > bound/3"
            if flag:
                worst = 1
            print("  %-14s n=%-2d median %14.6g %-6s spread %6.3f%%  (bound/3 %5.2f%%)%s" %
                  (m["name"], len(vals), med, m["unit"], 100 * spr, 100 * limit, flag))
    return worst


def compare(args):
    b = spec()
    base, new = load(args.base), load(args.dir)
    fa, fb = fingerprint(base), fingerprint(new)
    if not same_host(fa, fb):
        print("different host fingerprints; not compared:\n  %s\n  %s" %
              (json.dumps(fa), json.dumps(fb)))
        return 2
    status = 0
    for w in sorted(set(base) & set(new)):
        print(w)
        for m in b["end_to_end"]:
            va, vb = metric_values(base[w], m["name"]), metric_values(new[w], m["name"])
            if not va or not vb:
                continue
            ma, sa = stats(va)
            mb, sb = stats(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if sa > m["bound"] or sb > m["bound"]:
                verdict = "UNRESOLVED (spread above bound)"
                status = max(status, 1)
            elif worse > m["bound"]:
                verdict = "WORSE"
                status = 3
            else:
                verdict = "ok"
            print("  %-14s base %12.6g  new %12.6g %-6s worse by %+7.2f%% (bound %4.1f%%, "
                  "spreads %.2f%%/%.2f%%)  %s" %
                  (m["name"], ma, mb, m["unit"], 100 * worse, 100 * m["bound"],
                   100 * sa, 100 * sb, verdict))
        sa, sb = sorted(set(f / a for f, a in failed_share(base[w]))), sorted(
            set(f / a for f, a in failed_share(new[w])))
        if sa != sb:
            print("  failed share differs: %s vs %s" % (sa, sb))
            status = 3
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("dir")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("dir")
    args = p.parse_args()
    return {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
