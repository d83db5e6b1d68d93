#!/usr/bin/env python3
"""Self-test of the benchmark, run at a small mesh size.

    python3 perfbench/selftest.py

Checks, for every workload, that the same seed gives identical inputs and
identical traced counts (calls, iterations, nodes, unknowns, bytes), that
another seed gives other inputs, and that every output check passes.  Also
checks that the tracer wraps a function in every namespace that binds it,
reports a missing name as absent, restores the originals on exit, and knows
a rule for every per-layer metric of BENCHMARK.json.  Exits 1 on a failure.
"""
import hashlib
import json
import sys
import warnings

import run  # pins the BLAS threads before numpy is imported

insulopt = run.import_checkout()

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import SMALL_H, WORKLOADS  # noqa: E402


def fingerprint(draws):
    digest = hashlib.sha256()

    def feed(item):
        if isinstance(item, (list, tuple)):
            for sub in item:
                feed(sub)
        else:
            digest.update(np.asarray(item, dtype=float).tobytes())

    feed(draws)
    return digest.hexdigest()


def traced_run(workload, seed, out_dir):
    """Inputs fingerprint, per-function stats and check problems."""
    panel = workload.setup(np.random.default_rng(seed), SMALL_H, out_dir)
    problems = []
    with tr.Tracer() as tracer:
        for inst in panel:
            found, _ = workload.check(inst, workload.solve(inst))
            problems += found
    return (fingerprint([inst["draws"] for inst in panel]),
            tr.layer_stats(tracer.spans), problems)


def counts(stats):
    return {name: {k: v for k, v in entry.items() if k != "self_s"}
            for name, entry in stats.items()}


def main():
    warnings.simplefilter("ignore", insulopt.NonUniqueWarning)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]
                   if not m["name"].startswith("trace.")]
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names every workload")

    original = insulopt.fem.solve_spd
    tr.LAYERS["fem"] += ("no_such_function",)
    try:
        with tr.Tracer() as tracer:
            wrapped = {ns: getattr(insulopt, ns).solve_spd for ns in
                       ("fem", "robin_solver", "layer_solver",
                        "reduced_solver")}
            expect(all(f is not original and f.__wrapped__ is original
                       for f in wrapped.values()),
                   "solve_spd is wrapped in every namespace that binds it")
        expect(tracer.absent == ["fem.no_such_function"],
               "a missing function is reported absent")
    finally:
        tr.LAYERS["fem"] = tr.LAYERS["fem"][:-1]
    expect(all(getattr(insulopt, ns).solve_spd is original
               for ns in wrapped), "the tracer restores the originals")

    for name, workload in WORKLOADS.items():
        out_dir = run.HERE / "out" / f"selftest-{name}"
        out_dir.mkdir(parents=True, exist_ok=True)
        fp0, stats, problems0 = traced_run(workload, 0, out_dir)
        fp0b, stats_b, problems0b = traced_run(workload, 0, out_dir)
        fp1, _, problems1 = traced_run(workload, 1, out_dir)
        expect(fp0 == fp0b, f"{name}: same seed, same inputs")
        expect(counts(stats) == counts(stats_b),
               f"{name}: same seed, same counts")
        expect(fp0 != fp1, f"{name}: another seed, other inputs")
        problems = problems0 + problems0b + problems1
        expect(not problems, f"{name}: output checks pass {problems}")
        try:
            for metric in layer_names:
                tr.layer_metric(stats, metric)
        except KeyError as exc:
            expect(False, f"{name}: per-layer metric {exc}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
