#!/usr/bin/env python3
"""Interleaved A/B runs of the pipeline benchmark.

  python3 pipebench/ab.py --workload churn_exact --runs 10
  python3 pipebench/ab.py --a ../parent --b . --workload use_dense --runs 10

Runs pipebench/run.py in two checkouts (by default both are this one: a
same-code A/B that shows how steady the benchmark is) as interleaved
pairs. Pair i runs both sides on seed --seed + i, A first on even pairs
and B first on odd ones. For every metric it prints each set's median and
quartiles and the spread (interquartile range over median), and flags

  NOISY   a set whose spread exceeds a third of the metric's bound
  SPREAD  a set whose spread exceeds the bound
  WORSE   B's median worse than A's by more than the bound

with the bounds and directions from BENCHMARK.json. Exits 1 if any pair of
sets is flagged SPREAD or WORSE, or any run failed a correctness check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def run_side(root, target, workload, seed, seconds, trace):
    env = dict(os.environ)
    if target:
        env["CARGO_TARGET_DIR"] = target
    p = subprocess.run(
        [sys.executable, os.path.join("pipebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True)
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": p.stderr.strip()[-500:]}


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", default=ROOT, help="checkout A (default: this)")
    ap.add_argument("--b", default=ROOT, help="checkout B (default: this)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's result here (JSON)")
    args = ap.parse_args()

    a, b = os.path.abspath(args.a), os.path.abspath(args.b)
    spec = load_spec(a)
    with open(os.path.join(a, "BENCHMARK.json")) as f:
        seconds = args.seconds or json.load(f)["run_seconds"]
    base = os.environ.get("CARGO_TARGET_DIR")
    if a == b:
        targets = {"A": base, "B": base}
    else:  # separate builds; each side's default is inside its checkout
        targets = {"A": base and os.path.join(base, "ab-a"),
                   "B": base and os.path.join(base, "ab-b")}
    roots = {"A": a, "B": b}

    log = []
    bad = False
    for workload in args.workload:
        results = {"A": [], "B": []}
        for i in range(args.runs):
            seed = args.seed + i
            for side in (("A", "B") if i % 2 == 0 else ("B", "A")):
                r = run_side(roots[side], targets[side], workload, seed,
                             seconds, args.trace)
                r.update(side=side, workload=workload, seed=seed)
                results[side].append(r)
                log.append(r)
                print("  %s %s seed %d: %s" % (
                    workload, side, seed,
                    "ok" if r["correct"] else "FAILED %s" % r.get("error", "")),
                    file=sys.stderr, flush=True)
        failed = {s: sum(r["failed"] for r in results[s]) for s in results}
        attempted = {s: sum(r["attempted"] for r in results[s])
                     for s in results}
        print("== %s: %d pairs, %g s runs; fail ratio A %d/%d, B %d/%d" % (
            workload, args.runs, seconds, failed["A"], attempted["A"],
            failed["B"], attempted["B"]))
        bad |= failed["A"] > 0 or failed["B"] > 0
        print("%-24s %-38s %-38s %8s  %s" % (
            "metric", "A median [q1, q3] spread", "B median [q1, q3] spread",
            "B/A-1", "flags"))
        names = [n for n in spec
                 if any(n in r["metrics"] for r in results["A"])]
        for name in names:
            m = spec[name]
            bound = m.get("bound")
            cells, flags = [], []
            meds = {}
            for side in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[side]
                        if name in r["metrics"]]
                if not vals:
                    cells.append("-")
                    continue
                med, q1, q3, spread = summarize(vals)
                meds[side] = med
                cells.append("%.5g [%.5g, %.5g] %.3f" % (med, q1, q3, spread))
                if bound is not None:
                    if spread > bound:
                        flags.append("SPREAD(%s)" % side)
                        bad = True
                    elif spread > bound / 3:
                        flags.append("NOISY(%s)" % side)
            delta = ""
            if "A" in meds and "B" in meds and meds["A"]:
                d = meds["B"] / meds["A"] - 1
                delta = "%+.2f%%" % (100 * d)
                worse = d if m["better"] == "lower" else -d
                if bound is not None and worse > bound:
                    flags.append("WORSE")
                    bad = True
            print("%-24s %-38s %-38s %8s  %s" % (
                name, cells[0], cells[1] if len(cells) > 1 else "-", delta,
                " ".join(flags)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(log, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
