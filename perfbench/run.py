#!/usr/bin/env python3
"""Benchmark of insulopt: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload limit_fine --seed 0 --seconds 20 --trace 0

The program is imported from the ``src`` directory of the checkout that
holds this file.  The seed draws the workload's inputs; geometry and mesh
size are fixed.  One run:

1. solves the workload once at a small mesh size, untimed, so that lazy
   imports and BLAS set-up finish before timing;
2. builds the inputs at least five times, and for at least a second where
   that takes up to 2000 builds, and reports the median as ``setup_s``;
3. solves the inputs (a panel of one or more instances) pass after pass
   for ``--seconds`` (half of it with ``--trace 1``) and reports as
   ``solve_s`` the median over passes of the mean time per instance;
4. with ``--trace 1``, spends the other half on traced passes (set-up and
   solve, with a span around every call into a listed insulopt function),
   reports the per-layer metrics, each the median over traced passes of
   its value for one pass over the whole panel, and writes the spans to
   ``perfbench/out/<workload>-<seed>/trace.json``.

Every output, the warm-up's included, is checked; a solve that raises or
fails a check counts in ``failed``, and ``failed / attempted`` is the
failure fraction.  The last
line of stdout is the result: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
is a detail record: environment, work counts, samples and failures.
"""
import os

# One BLAS thread: the default pool made the first solve in a process twice
# as slow as the later ones.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 2000


def import_checkout():
    """Import insulopt from this checkout, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import insulopt
    except ImportError as exc:
        sys.exit(f"cannot import insulopt from {src}: {exc}")
    if not Path(insulopt.__file__).resolve().is_relative_to(src):
        sys.exit(f"insulopt was imported from {insulopt.__file__}, not {src}")
    return insulopt


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def timed_passes(budget, one_pass):
    """Call ``one_pass`` until the next call would likely end after
    ``budget`` seconds; at least once."""
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        one_pass()
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > budget:
            return


class Run:
    """Inputs, solves and the failure tally of one workload and seed."""

    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def inputs(self, h):
        return self.workload.setup(np.random.default_rng(self.seed), h,
                                   self.out_dir)

    def solve_panel(self, panel, tracer=None):
        """Solve and check every instance.

        Returns the mean solve time per instance (None when a solve raised)
        and the work counts of each instance (None where it failed).
        """
        times, counts = [], []
        for inst in panel:
            self.attempted += 1
            span = tracer.span("solve") if tracer else contextlib.nullcontext()
            try:
                t0 = time.perf_counter()
                with span:
                    out = self.workload.solve(inst)
                times.append(time.perf_counter() - t0)
                problems, work = self.workload.check(inst, out)
            except Exception as exc:  # a failed run is counted, not fatal
                problems, work = [f"{type(exc).__name__}: {exc}"], None
            if problems:
                self.failed += 1
                self.failures.extend(problems)
            counts.append(work)
        mean = statistics.fmean(times) if len(times) == len(panel) else None
        return mean, counts


def build_inputs(run, h):
    """Build the inputs repeatedly; returns the last panel and the times."""
    times = []
    while (len(times) < SETUP_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS
               and len(times) < SETUP_MAX_REPEATS)):
        t0 = time.perf_counter()
        panel = run.inputs(h)
        times.append(time.perf_counter() - t0)
    return panel, times


def traced_layers(run, seconds, tracer):
    """Traced passes of set-up and solve for ``seconds``.

    Returns (solve time per instance, per-function stats) of each pass.
    """
    passes = []

    def traced_pass():
        first = len(tracer.spans)
        with tracer.span("pass"):
            with tracer.span("setup"):
                panel = run.inputs(run.workload.h)
            t, _ = run.solve_panel(panel, tracer)
        if t is not None:
            passes.append((t, tr.layer_stats(tracer.spans[first:])))

    timed_passes(seconds, traced_pass)
    return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    insulopt = import_checkout()
    from workloads import SMALL_H, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # the L-shape is fully insulated: uniqueness warnings are expected
    warnings.simplefilter("ignore", insulopt.NonUniqueWarning)
    out_dir = HERE / "out" / f"{workload.name}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.seed, out_dir)

    run.solve_panel(run.inputs(SMALL_H))
    panel, setup_times = build_inputs(run, workload.h)
    solve_times, work = [], []

    def untraced_pass():
        t, counts = run.solve_panel(panel)
        if t is not None:
            solve_times.append(t)
        if not work:
            work.extend(counts)

    timed_passes(args.seconds / 2 if args.trace else args.seconds,
                 untraced_pass)
    solve_s = statistics.median(solve_times) if solve_times else 0.0
    detail = {"workload": workload.name, "seed": args.seed,
              "env": environment(), "setup_samples": setup_times,
              "solve_samples": solve_times, "work": work}

    if args.trace:
        del panel
        with tr.Tracer() as tracer:
            passes = traced_layers(run, args.seconds / 2, tracer)
        trace_path = out_dir / "trace.json"
        tracer.write(trace_path, workload=workload.name, seed=args.seed)
        traced_s = statistics.median(t for t, _ in passes) if passes else 0.0
        values = {"trace.solve_s": traced_s,
                  "trace.overhead": traced_s / solve_s if solve_s else 0.0}
        for m in spec["per_layer"]:
            if m["name"] not in values:
                values[m["name"]] = statistics.median(
                    tr.layer_metric(stats, m["name"]) for _, stats in passes
                ) if passes else 0.0
        metrics = spec["per_layer"]
        detail.update(trace_id=tracer.trace_id, trace_file=str(trace_path),
                      traced_samples=[t for t, _ in passes],
                      absent=tracer.absent)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = spec["end_to_end"]

    detail.update(attempted=run.attempted, failed=run.failed,
                  fail_frac=run.failed / run.attempted,
                  failures=run.failures[:10])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
