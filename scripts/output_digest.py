#!/usr/bin/env python3
"""Digest every output of the benchmark's workloads, one hash per leaf.

    python3 scripts/output_digest.py
    python3 scripts/output_digest.py --parent ../parent-tree --seeds 1 11

For every workload of ``perfbench/workloads.py``, at its own mesh size h and
at ``SMALL_H``, and for every seed, the script runs the workload's set-up and
solve once and prints one line per output leaf:

    workload h seed instance path sha256

A leaf is an array, a number or a string of the output: report terms and
diagnostics, sweep rows, the arrays of every glued mesh, every file the CLI
writes (``file/<name>``) and the captured stdout.  Each checkout runs in one
subprocess of its own with its ``src`` and ``perfbench`` directories first
on the path, one BLAS thread and warnings ignored; ``perfbench`` is only
read, and the CLI writes into a temporary directory.

With ``--parent DIR`` the same runs are made in the checkout DIR, and only
the leaves whose hashes differ (or that one side lacks) are printed, with
both values and their distance in units in the last place for scalars,
followed by the count of differing leaves.  Exits 1 when any leaf differs.
"""
import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# attributes that hold a solve's inputs, not its outputs
INPUTS = ("domain", "field")


def leaves(obj, path):
    """(path, sha256, scalar value or None) of every leaf of ``obj``."""
    import numpy as np

    def digest(tag, data):
        return hashlib.sha256(tag.encode() + b"\0" + data).hexdigest()

    if obj is None:
        yield path, digest("none", b""), None
    elif isinstance(obj, (bool, int, np.integer)):
        yield path, digest("int", str(int(obj)).encode()), None
    elif isinstance(obj, (float, np.floating)):
        yield path, digest("float", np.float64(obj).tobytes()), float(obj)
    elif isinstance(obj, str):
        yield path, digest("str", obj.encode()), None
    elif isinstance(obj, bytes):
        yield path, digest("bytes", obj), None
    elif isinstance(obj, np.ndarray):
        tag = f"array {obj.dtype.str} {obj.shape}"
        yield path, digest(tag, np.ascontiguousarray(obj).tobytes()), None
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}/{i}")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.compare and f.name not in INPUTS:
                yield from leaves(getattr(obj, f.name), f"{path}/{f.name}")
    elif hasattr(obj, "__dict__"):
        for key, value in vars(obj).items():
            if key not in INPUTS:
                yield from leaves(value, f"{path}/{key}")
    else:
        raise TypeError(f"no digest rule for {type(obj).__name__} at {path}")


def files_written(directory):
    """Every file under ``directory`` by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def worker(checkout, seeds):
    """Digest lines of ``checkout`` as a JSON list (runs in a subprocess)."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    warnings.simplefilter("ignore")
    import numpy as np
    from workloads import SMALL_H, WORKLOADS

    rows = []
    for name, workload in WORKLOADS.items():
        for h in (SMALL_H, workload.h):
            for seed in seeds:
                with tempfile.TemporaryDirectory() as tmp:
                    panel = workload.setup(np.random.default_rng(seed), h,
                                           Path(tmp))
                    for i, inst in enumerate(panel):
                        out = {"output": workload.solve(inst)}
                        if "out" in inst:  # the directory the CLI writes
                            out["file"] = files_written(inst["out"])
                        for path, sha, value in leaves(out, ""):
                            rows.append([name, f"1/{round(1 / h)}", seed, i,
                                         path[1:], sha, value])
    return rows


def run_checkout(checkout, seeds):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(checkout), "--seeds",
         *map(str, seeds)], capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"digest of {checkout} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def ulps(a, b):
    """Distance of two floats in units in the last place of the larger."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path,
                    help="checkout to compare with; print only differences")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker.resolve(), args.seeds)))
        return 0

    change = run_checkout(ROOT, args.seeds)
    if args.parent is None:
        for *key, sha, _ in change:
            print(*key, sha)
        return 0
    parent = {tuple(r[:5]): r[5:] for r in run_checkout(args.parent.resolve(),
                                                        args.seeds)}
    ours = {tuple(r[:5]): r[5:] for r in change}
    differ = 0
    for key in list(parent) + [k for k in ours if k not in parent]:
        (p_sha, p_val), (c_sha, c_val) = (parent.get(key, (None, None)),
                                          ours.get(key, (None, None)))
        if p_sha == c_sha:
            continue
        differ += 1
        line = " ".join(map(str, key)) + f" {p_sha} -> {c_sha}"
        if p_val is not None and c_val is not None:
            line += f" ({p_val!r} -> {c_val!r}, {ulps(p_val, c_val):g} ulp)"
        print(line)
    print(f"{differ} of {len(set(parent) | set(ours))} leaves differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
