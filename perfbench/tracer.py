"""In-memory span tracer that measures insulopt's layers from outside.

Every function listed in ``LAYERS`` is replaced, in each ``insulopt.*``
namespace that binds that same function object, by a wrapper that records
one span per call: an id, the id of the enclosing span, the layer name, the
start and end times and, for a few functions, work counts read from the
arguments or the return value.  A name missing from its module (deleted by a
refactor) is listed in ``Tracer.absent`` and traced as never called.  Spans
stay in memory until ``write`` dumps them; all spans of one tracer share
``trace_id``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import time
import uuid
from collections import defaultdict

LAYERS = {
    "meshing": ("triangulate_bulk", "insulated_chain", "extrude_layer"),
    "fem": ("assemble_stiffness", "assemble_mass", "assemble_boundary_mass",
            "apply_dirichlet", "solve_spd", "eval_E_limit", "eval_E_eps",
            "eval_I"),
    "robin_solver": ("solve_limit", "robin_operator"),
    "layer_solver": ("solve_eps", "equicoercivity_norms",
                     "poincare_fiber_check"),
    "reduced_solver": ("solve_reduced", "prox_squared_l1",
                       "estimate_spectral_norm"),
    "thickness": ("reconstruct_distribution", "profile_table"),
    "convergence": ("gamma_sweep", "recovery_sequence"),
    "geometry": ("layer_area", "transversal_mass"),
    "config": ("parse_config",),
    "cli": ("main",),
    "vtk_io": ("write_csv", "write_vtk", "write_boundary_vtk"),
}


def _written_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


# Work counts recorded on the span, computed from (args, kwargs, result).
COUNTERS = {
    "meshing.triangulate_bulk": lambda a, k, out: {"nodes": len(out.nodes)},
    "meshing.extrude_layer": lambda a, k, out: {"nodes": len(out.nodes)},
    "fem.solve_spd": lambda a, k, out: {"unknowns": len(out),
                                        "nnz": int(a[0].nnz)},
    "reduced_solver.solve_reduced": lambda a, k, out: {
        "iterations": int(out[1].diagnostics["iterations"])},
    "vtk_io.write_csv": _written_bytes,
    "vtk_io.write_vtk": _written_bytes,
    "vtk_io.write_boundary_vtk": _written_bytes,
}


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans = []     # (id, parent id or 0, name, start, end, counts)
        self.absent = []
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []  # (namespace, attribute, original)

    def __enter__(self):
        for short, names in LAYERS.items():
            try:
                module = importlib.import_module(f"insulopt.{short}")
            except ImportError:
                self.absent.extend(f"{short}.{n}" for n in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{short}.{name}")
                    continue
                self._install(f"{short}.{name}", original)
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()
        return False

    def _install(self, name, original):
        wrapper = self._wrap(name, original)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "insulopt"
                                      or modname.startswith("insulopt.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter:  # the span just closed is the last one recorded
                self.spans[-1][5] = counter(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block, as a child of the open span."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append([sid, parent, name, start, end, None])

    def write(self, path, **meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, **meta,
                       "absent": self.absent,
                       "fields": ["id", "parent", "name", "start", "end",
                                  "counts"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_stats(spans):
    """Per span name: calls, self time and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        child_time[parent] += end - start
    stats = defaultdict(lambda: defaultdict(float))
    for sid, _, name, start, end, counts in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[sid]
        for key, value in (counts or {}).items():
            entry[key] += value
    return stats


_ALIASES = {
    "meshing.bulk_nodes": ("meshing.triangulate_bulk", "nodes"),
    "meshing.glued_nodes": ("meshing.extrude_layer", "nodes"),
    "reduced_solver.iterations": ("reduced_solver.solve_reduced",
                                  "iterations"),
}


def layer_metric(stats, metric):
    """Value of a per-layer metric named in BENCHMARK.json.

    ``<module>.<function>.<key>`` reads ``key`` (calls, self_s or a count)
    of that function's spans; ``.per_mesh`` divides calls by the meshes
    built (bulk triangulations plus layer extrusions).  A function that was
    never called reads 0.
    """
    if metric in _ALIASES:
        name, key = _ALIASES[metric]
        return float(stats.get(name, {}).get(key, 0.0))
    if metric == "reduced_solver.prox_per_iter":
        iters = stats.get("reduced_solver.solve_reduced", {}).get(
            "iterations", 0.0)
        calls = stats.get("reduced_solver.prox_squared_l1", {}).get(
            "calls", 0.0)
        return calls / iters if iters else 0.0
    name, _, key = metric.rpartition(".")
    if name.split(".")[0] not in LAYERS:
        raise KeyError(f"no rule for per-layer metric {metric!r}")
    if key == "per_mesh":
        meshes = sum(stats.get(n, {}).get("calls", 0.0) for n in
                     ("meshing.triangulate_bulk", "meshing.extrude_layer"))
        calls = stats.get(name, {}).get("calls", 0.0)
        return calls / meshes if meshes else 0.0
    return float(stats.get(name, {}).get(key, 0.0))
