#!/usr/bin/env python3
"""Compares two checkouts on one benchmark workload by alternating runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fig9_dense \\
        --seed 1 --seconds 20 --pairs 10

Each pair runs `benchmark/run.py` once in each checkout, and the side that
goes first alternates from pair to pair, so drift on a shared host falls on
both sides alike. For every end-to-end metric that CHANGE_DIR's
BENCHMARK.json declares, it prints each side's median and quartiles and how
many pairs the change won (strictly better in the metric's direction),
then one verdict word:

  claim-ok      the change won at least 9 pairs in 10 and its median beats
                the parent's by more than the parent's IQR (Q3 - Q1);
  worse         the change's median is worse than the parent's by more than
                the metric's BENCHMARK.json bound (a share of the median);
  within-bound  the change's worse quartile (Q3 when lower is better, Q1
                when higher is) stays inside that bound;
  unresolved    anything else: the median is inside the bound but the
                quartile is not, or the metric has no bound.

Every run's values go to stderr as it finishes. This script times nothing
itself: every number is what run.py printed. Each
checkout builds its own harness on its first run (see benchmark/README.md).
"""
import argparse
import json
import os
import subprocess
import sys


def run_once(tree, workload, seed, seconds):
    """Runs the benchmark in `tree`; returns its final JSON object."""
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"bench_pairs: run.py failed in {tree} "
                         f"(exit {p.returncode})")
    return json.loads(lines[-1])


def quantile(sorted_xs, q):
    """Linear-interpolated quantile of an ascending list."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def summary(xs):
    s = sorted(xs)
    return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)


def verdict(metric, parent, change, wins, pairs):
    """The verdict word for one metric (see the module docstring)."""
    lower = metric["better"] == "lower"
    p_q1, p_med, p_q3 = summary(parent)
    c_q1, c_med, c_q3 = summary(change)
    gain = p_med - c_med if lower else c_med - p_med
    if 10 * wins >= 9 * pairs and gain > p_q3 - p_q1:
        return "claim-ok"
    bound = metric.get("bound")
    if bound is None:
        return "unresolved"
    limit = p_med * (1 + bound) if lower else p_med * (1 - bound)

    def past(x):
        return x > limit if lower else x < limit

    if past(c_med):
        return "worse"
    if not past(c_q3 if lower else c_q1):
        return "within-bound"
    return "unresolved"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            out = run_once(sides[side], args.workload, args.seed,
                           args.seconds)
            runs[side].append(out)
            values = " ".join(
                f"{m['name']}={out['metrics'][m['name']]['value']:.6g}"
                for m in metrics)
            print(f"pair {i + 1}/{args.pairs} {side}: correct="
                  f"{out.get('correct')} failed={out.get('failed')} {values}",
                  file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, --seconds {args.seconds}, "
          f"{args.pairs} pairs; median [q1, q3]")
    for side in ("parent", "change"):
        bad = sum(1 for r in runs[side] if not r.get("correct"))
        failed = sum(r.get("failed", 0) for r in runs[side])
        print(f"  {side}: {bad} incorrect runs, {failed} failed operations")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]]
                for s in runs}
        wins = sum(1 for a, b in zip(vals["parent"], vals["change"])
                   if (b < a if lower else b > a))
        cols = []
        for side in ("parent", "change"):
            q1, med, q3 = summary(vals[side])
            cols.append(f"{side} {med:.6g} [{q1:.6g}, {q3:.6g}]")
        word = verdict(m, vals["parent"], vals["change"], wins, args.pairs)
        print(f"  {name} ({m['unit']}, {m['better']} is better): "
              f"{'  '.join(cols)}  change wins {wins}/{args.pairs}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
