#!/usr/bin/env python3
"""Record the benchmark of one checkout as ``BENCH_<tag>.json``.

    python3 scripts/bench_record.py --tag mychange
    python3 scripts/bench_record.py --tag base --checkout ../other-tree

Runs ``perfbench/run.py --trace 0`` of the checkout (this one by default)
once per workload and seed (``SEEDS``), one run at a time, and writes
``BENCH_<tag>.json`` in this tree: the checkout's git revision, the
environment, every run's detail and result lines, and per workload the
median over seeds of each end-to-end metric and the failure tally.  The
workloads, metrics and run length come from the checkout's
``BENCHMARK.json``.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def git_revision(checkout):
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n"
                         f"{out.stderr[-2000:]}")
    return {"seed": seed, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def medians(runs):
    names = runs[0]["result"]["metrics"]
    return {
        "metrics": {name: {
            "median": statistics.median(
                r["result"]["metrics"][name]["value"] for r in runs),
            "unit": runs[0]["result"]["metrics"][name]["unit"]}
            for name in names},
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="tree whose perfbench/run.py is run")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(checkout, name, seed, seconds)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}"
                for k, v in run["result"]["metrics"].items())
                + f", failed={run['result']['failed']}", flush=True)
            runs.append(run)
        workloads[name] = {"runs": runs, **medians(runs)}
    record = {
        "tag": args.tag,
        "revision": git_revision(checkout),
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "environment": {"platform": platform.platform(),
                        "machine": platform.machine(),
                        "nproc": os.cpu_count(),
                        "python": platform.python_version()},
        "command": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
        "seeds": list(SEEDS),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
