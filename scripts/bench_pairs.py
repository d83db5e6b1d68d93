#!/usr/bin/env python3
"""Compare one workload of the benchmark between two checkouts, in pairs.

    python3 scripts/bench_pairs.py --workload alternating_lshape \\
        --parent ../parent-tree --pairs 10

Pair k runs ``perfbench/run.py --trace 0 --seed k`` (k = 1 .. pairs) once
in the parent checkout and once in this one, one run at a time; the parent
runs first on odd seeds and second on even ones.  The run length is the
``run_seconds`` of this checkout's ``BENCHMARK.json``.  Each pair prints
one line with both sides' metrics and failed counts, so a failed run names
its seed and side.  For every end-to-end metric the script prints each side's median and quartiles, the
pairs the change wins (ties count for neither side), and whether a gain may
be claimed: the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.  A change
whose median is worse than the parent's by more than the metric's bound is
marked as a regression.  A metric whose parent interquartile range exceeds
the bound times the parent's median cannot resolve the bound, and is marked
unresolved unless every change run beats every parent run.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import ROOT, run_once


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(metric, parent, change):
    """Lines comparing the per-pair values of one metric."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = (pm - cm) if lower else (cm - pm)
    claim = wins >= 0.9 * len(parent) and gain > p3 - p1
    beats_all = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if p3 - p1 > metric["bound"] * pm and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "REGRESSION" if -gain > metric["bound"] * pm else "no"
    rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    return (f"{metric['name']} [{metric['unit']}]: parent median {pm:.4g} "
            f"(quartiles {p1:.4g}-{p3:.4g}), change median {cm:.4g} "
            f"(quartiles {c1:.4g}-{c3:.4g}), {rel}; change wins "
            f"{wins}/{len(parent)}; gain claimable: {'yes' if claim else 'no'}"
            f"; beyond the {metric['bound']:g} bound: {verdict}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    values = {side: {m["name"]: [] for m in spec["end_to_end"]}
              for side in sides}
    failed = {side: [] for side in sides}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed,
                              seconds)["result"]
            failed[side].append(result["failed"])
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {values['parent'][name][-1]:.4g} -> "
            f"{values['change'][name][-1]:.4g}"
            for name in values["parent"])
            + f", failed {failed['parent'][-1]} -> {failed['change'][-1]}",
            flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {seconds:g} s runs; "
          f"failed: parent {sum(failed['parent'])}, "
          f"change {sum(failed['change'])}")
    for metric in spec["end_to_end"]:
        print(summary(metric, values["parent"][metric["name"]],
                      values["change"][metric["name"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
