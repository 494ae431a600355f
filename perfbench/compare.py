#!/usr/bin/env python3
"""Compare two sets of perfbench result records.

    python3 perfbench/compare.py BASE NEW [--trace 0|1]

BASE and NEW are result-record files or directories of them (run.py writes
one per run under .bench_out/results/). For every workload and metric the
tool prints each side's median and quartiles over its runs and the change of
the medians. Against the metric's bound in BENCHMARK.json it marks:

  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  either side's spread (quartile distance over median) exceeds
              the bound, unless every NEW run beats every BASE run;
  ok          otherwise.

Per-layer metrics (--trace 1) have no bound; they are listed with their
change only. Comparing untraced runs (BASE) with traced runs (NEW) of the
same seeds gives the tracing overhead. Exits 1 when any metric is worse or
unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths, trace, section):
    """{workload: {metric: [values]}} over the records in `paths`."""
    out = {}
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
        for f in files:
            rec = json.loads(f.read_text())
            if rec.get("schema") != "perfbench-result" or rec["trace"] != trace:
                continue
            per = out.setdefault(rec["workload"], {})
            for name, m in rec.get(section, {}).items():
                per.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = summary(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(metric, base, new):
    bound, higher = metric["bound"], metric["better"] == "higher"
    b, n = summary(base)[1], summary(new)[1]
    worse_by = (b - n) / abs(b) if higher else (n - b) / abs(b)
    if worse_by > bound:
        return "worse"
    new_always_better = (min(new) > max(base)) if higher else (max(new) < min(base))
    if max(spread(base), spread(new)) > bound and not new_always_better:
        return "unresolved"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    config = json.loads(CONFIG.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = config[section]
    base = load([args.base], args.trace, section)
    new = load([args.new], args.trace, section)
    bad = 0
    for workload in sorted(set(base) & set(new)):
        nb = len(next(iter(base[workload].values()), []))
        nn = len(next(iter(new[workload].values()), []))
        print(f"{workload}  (base runs {nb}, new runs {nn})")
        print(f"  {'metric':<30} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
              f"{'delta':>8} {'spread b/n':>13}  verdict")
        for m in metrics:
            bv, nv = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not bv or not nv:
                print(f"  {m['name']:<30} missing")
                bad += 1
                continue
            bs, ns = summary(bv), summary(nv)
            delta = (ns[1] - bs[1]) / abs(bs[1]) if bs[1] else float("nan")
            v = verdict(m, bv, nv) if "bound" in m else "-"
            bad += v in ("worse", "unresolved")
            fmt = lambda s: "/".join(f"{x:.4g}" for x in s)  # noqa: E731
            print(f"  {m['name']:<30} {fmt(bs):>32} {fmt(ns):>32} {100 * delta:>+7.1f}% "
                  f"{100 * spread(bv):>5.1f}/{100 * spread(nv):<5.1f}%  {v}"
                  + (f" (bound {100 * m['bound']:.0f}%)" if "bound" in m else ""))
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'base' if workload in base else 'new'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
