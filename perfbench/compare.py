#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them against BENCHMARK.json.

Collect runs (each line of the output file is one run: its workload, seed,
trace mode, host record, phase accounting and result):

    python3 perfbench/compare.py collect --out runs.jsonl --seeds 1-10
    python3 perfbench/compare.py collect --out runs.jsonl --seeds 1-5 --workloads plan --trace 1

Summarize one set (median, quartiles and spread per workload and metric,
undeclared metrics included, flagging end-to-end spreads wider than a third
of the metric's bound):

    python3 perfbench/compare.py summary runs.jsonl

Compare a base set with a changed set. For each (workload, metric) pair it
prints both medians and quartiles and a verdict against the metric's bound:

  worse      the changed median is worse than the base median by more than
             the bound (or every changed run is worse than every base run)
  better     the changed median is better by more than the bound and by
             more than the base set's own spread (or every changed run is
             better than every base run)
  unresolved a set's spread is wider than the bound, so no verdict holds
  unchanged  otherwise

    python3 perfbench/compare.py compare base.jsonl changed.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    bench = load_bench()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                lines = [json.loads(l) for l in proc.stdout.decode().splitlines() if l.strip()]
                rec = {"workload": w, "seed": seed, "trace": args.trace, "exit": proc.returncode}
                for l in lines[:-1]:
                    rec.update(l)
                rec["result"] = lines[-1] if lines else None
                out.write(json.dumps(rec) + "\n")
                out.flush()
                res = rec["result"] or {}
                print("%-12s seed %-3d exit %d correct %s failed %s" % (
                    w, seed, proc.returncode, res.get("correct"), res.get("failed")), file=sys.stderr)


def load_runs(path):
    """{(workload, trace): {metric: [values]}} from a collected file."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            res = rec.get("result") or {}
            key = (rec["workload"], rec["trace"])
            metrics = runs.setdefault(key, {})
            measured = dict(rec.get("undeclared_metrics", {}))
            measured.update(res.get("metrics", {}))
            for name, m in measured.items():
                metrics.setdefault(name, []).append(m["value"])
            if not res.get("correct"):
                metrics.setdefault("(failed runs)", []).append(1)
    return runs


def stats(values):
    """Median, first and third quartile, and the spread (IQR / median)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def metric_info(bench):
    info = {m["name"]: m for m in bench["end_to_end"]}
    info.update({m["name"]: m for m in bench["per_layer"]})
    return info


def summary(args):
    info = metric_info(load_bench())
    runs = load_runs(args.runs)
    status = 0
    for (w, trace), metrics in sorted(runs.items()):
        print("\n%s (trace %d)" % (w, trace))
        print("  %-30s %5s %14s %14s %14s %8s" % ("metric", "runs", "median", "q1", "q3", "spread"))
        for name, values in sorted(metrics.items()):
            med, q1, q3, spread = stats(values)
            flag = ""
            bound = info.get(name, {}).get("bound")
            if bound is not None:
                if spread > bound:
                    flag, status = "OVER BOUND %.3g" % bound, 1
                elif spread > bound / 3:
                    flag = "over a third of bound %.3g" % bound
            print("  %-30s %5d %14.6g %14.6g %14.6g %8.4f %s" % (name, len(values), med, q1, q3, spread, flag))
    sys.exit(status)


def verdict(base, changed, better, bound):
    mb, _, _, sb = stats(base)
    mc, _, _, sc = stats(changed)
    sign = 1 if better == "higher" else -1
    if all(sign * c > sign * b for c in changed for b in base):
        return "better"
    if all(sign * c < sign * b for c in changed for b in base):
        return "worse"
    if bound is None:
        return "n/a"
    if max(sb, sc) > bound:
        return "unresolved"
    gain = sign * (mc - mb) / abs(mb) if mb else 0.0
    if gain < -bound:
        return "worse"
    if gain > bound and gain > sb:
        return "better"
    return "unchanged"


def compare(args):
    bench = load_bench()
    info = metric_info(bench)
    base, changed = load_runs(args.base), load_runs(args.changed)
    print("%-12s %-30s %12s %25s %12s %25s  %s" % (
        "workload", "metric", "base med", "base q1..q3", "new med", "new q1..q3", "verdict"))
    worse = False
    for key in sorted(set(base) & set(changed)):
        for name in sorted(set(base[key]) & set(changed[key])):
            b, c = base[key][name], changed[key][name]
            m = info.get(name, {})
            v = verdict(b, c, m.get("better", "lower"), m.get("bound"))
            worse |= v == "worse" and "bound" in m
            mb, qb1, qb3, _ = stats(b)
            mc, qc1, qc3, _ = stats(c)
            print("%-12s %-30s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g  %s" % (
                key[0], name, mb, qb1, qb3, mc, qc1, qc3, v))
    sys.exit(1 if worse else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append the runs to a file")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    c.add_argument("--workloads", help="comma-separated (default: every workload in BENCHMARK.json)")
    c.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("summary", help="median, quartiles and spread of one set")
    s.add_argument("runs")
    p = sub.add_parser("compare", help="verdicts of a changed set against a base set")
    p.add_argument("base")
    p.add_argument("changed")
    args = ap.parse_args()
    {"collect": collect, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
