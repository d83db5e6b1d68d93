"""The benchmark's workloads: seeded inputs, the timed calls, output checks.

Every workload fixes its geometry and mesh size ``h``; the seed draws only
the data.  ``setup`` builds a list of instances (a panel) from a
``numpy.random.Generator``, ``solve`` runs the calls into insulopt that are
timed, and ``check`` returns the problems found in one output (empty when
correct) with the work counts read from it.

Library calls go through the ``insulopt`` namespaces (``insulopt.solve_limit``,
``cli.main``) at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import insulopt
from insulopt import cli

LSHAPE = [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
TOL = 1e-10
KNOTS = 16             # equispaced knots of the seeded thickness profile
SANDWICH_SLACK = 1e-12
SMALL_H = 1 / 16       # mesh size of the warm-up and of the self-test


@dataclass
class Workload:
    name: str
    h: float            # the benchmark's mesh size
    setup: Callable     # (rng, h, out_dir) -> list of instance dicts
    solve: Callable     # (instance) -> output
    check: Callable     # (instance, output) -> (problems, counts)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _lshape():
    domain = insulopt.PolygonalDomain(LSHAPE, ["insulated"] * 6)
    return domain, insulopt.build_transversal_field(domain, "bisector")


def _thickness(field, rng):
    """Piecewise-linear d through KNOTS equispaced knots, values in [0.5, 1.5]."""
    arcs = np.arange(KNOTS) * field.domain.perimeter / KNOTS
    values = rng.uniform(0.5, 1.5, KNOTS)
    return insulopt.InsulationDistribution.from_arc_samples(field, arcs,
                                                             values)


# --- limit_fine: one large SPD Robin solve --------------------------------

def setup_limit(rng, h, out_dir):
    domain, field = _lshape()
    dist = _thickness(field, rng)
    mesh = insulopt.triangulate_bulk(domain, h)
    return [{"mesh": mesh, "field": field, "dist": dist,
             "data": insulopt.ProblemData(f=1.0),
             "draws": dist.component_values}]


def solve_limit(inst):
    return insulopt.solve_limit(inst["mesh"], inst["field"], inst["dist"],
                                inst["data"], tol=TOL)


def check_limit(inst, out):
    # discrete Euler-Lagrange identity u.(K+M)u = b.u
    terms = out[1].terms
    lhs = 2.0 * (terms["grad"] + terms["interface"])
    rhs = terms["source"] + terms["neumann"]
    rel = _rel(lhs, rhs)
    problems = []
    if not rel <= 1e-9:
        problems.append(f"Euler-Lagrange identity off by {rel:.2e} relative")
    return problems, {"bulk_nodes": len(inst["mesh"].nodes)}


# --- sweep_lshape: the eps sweep of scripts/run_gamma_lshape.py ---------------

def setup_sweep(rng, h, out_dir):
    domain, field = _lshape()
    dist = _thickness(field, rng)
    return [{"domain": domain, "field": field, "dist": dist,
             "data": insulopt.ProblemData(f=1.0), "h": h,
             "draws": dist.component_values}]


def solve_sweep(inst):
    h = inst["h"]
    return insulopt.gamma_sweep(inst["domain"], inst["field"], inst["dist"],
                                inst["data"], [8 * h, 4 * h, 2 * h, h], h=h,
                                n_t=4, tol=TOL, keep_fields=True)


def check_sweep(inst, report):
    problems = []
    if len(report.rows) != 4:
        problems.append(f"{len(report.rows)} sweep rows, expected 4")
    for r in report.rows:
        if not r.energy_solution <= r.energy_recovery + SANDWICH_SLACK:
            problems.append(f"sandwich E_sol <= E_rec fails at eps={r.eps}")
    # E_sol - E_limit changes sign along the sweep for a rough d, so the
    # gap that must shrink is the larger of the two ends of the sandwich.
    gaps = [max(r.gap_solution, r.gap_recovery) for r in report.rows]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gaps to E_limit do not shrink: {gaps}")
    glued = [g for _, g, _ in report.fields]
    return problems, {"bulk_nodes": glued[0].n_bulk_nodes if glued else 0,
                      "glued_nodes": [len(g.nodes) for g in glued],
                      "n_eps": len(report.rows)}


# --- reconstruct_square: the CLI path with a closed-form oracle -------------

# The seed draws the Dirichlet temperature u_D, not the mass, and h is 1/32:
# the proximal gradient iteration count is erratic in m (10k-40k at h=1/64
# for m in [0.5, 2]).  Scaling the solution by u_D changes it through
# rounding alone, by up to 2% at h=1/32 but 10% at h=1/64.
SQUARE_MASS = 1.0


def setup_reconstruct(rng, h, out_dir):
    m = SQUARE_MASS
    u_d = float(rng.uniform(0.5, 2.0))
    out = out_dir / "reconstruct"
    config = {
        "domain": {"vertices": [list(v) for v in SQUARE],
                   "facets": [{"vertices": [i, (i + 1) % 4], "label": lab}
                              for i, lab in enumerate(
                                  ["neumann", "insulated", "neumann",
                                   "dirichlet"])]},
        "field_mode": "facet_normal",
        "mass": m,
        "data": {"f": 0.0, "g": 0.0, "u_D": u_d},
        "solver": {"h": h},
        "output": {"directory": str(out)},
    }
    return [{"config": json.dumps(config),
             "path": out_dir / "reconstruct.json",
             "m": m, "u_D": u_d, "out": out, "draws": u_d}]


def solve_reconstruct(inst):
    # Writing the configuration belongs to the user's CLI path; it is timed
    # here, not in setup_s, because its latency varies threefold between
    # runs while it costs under 1 ms of a 1.4 s solve.
    inst["path"].write_text(inst["config"], encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["reconstruct", "--config", str(inst["path"])])
    return code, buf.getvalue()


def _terms(stdout):
    terms = {}
    for line in stdout.splitlines():
        if line.startswith("TERM="):
            name, _, value = line[5:].partition(" VALUE=")
            terms[name] = float(value)
    return terms


def check_reconstruct(inst, out):
    code, stdout = out
    m = inst["m"]
    if code != 0:
        return [f"CLI exit code {code}"], {}
    problems = []
    energy = _terms(stdout).get("E_REDUCED")
    exact = inst["u_D"] ** 2 / (2.0 * (1.0 + m))
    if energy is None or not _rel(energy, exact) <= 1e-9:
        problems.append(f"E_REDUCED={energy} but u_D^2/(2(1+m))={exact!r}")
    # read and remove the outputs, so that a later run cannot pass on them
    csv_path = inst["out"] / "reconstruct.csv"
    vtk_path = inst["out"] / "reduced.vtk"
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    with open(vtk_path, encoding="utf-8") as fh:
        points = next(line for line in fh if line.startswith("POINTS"))
    csv_path.unlink()
    vtk_path.unlink()
    counts = {"bulk_nodes": int(points.split()[1]),
              "profile_nodes": len(rows) - 1}
    if not rows or rows[-1][0] != "MASS":
        return problems + ["reconstruct.csv has no MASS row"], counts
    d = np.array([float(r[1]) for r in rows[:-1]])
    if len(d) == 0 or not np.all(np.abs(d - m) <= 1e-8 * m):
        problems.append("column d differs from m")
    if not _rel(float(rows[-1][1]), m) <= 1e-10:
        problems.append(f"MASS row {rows[-1][1]} differs from m={m!r}")
    return problems, counts


# --- alternating_lshape: alternating minimization, then reconstruction ------

# The passes of the alternating method fall smoothly with m and vary with
# the draw of f by about 14% at m = 1 and 9% at m = 2, so each run solves a
# panel of PANEL instances, masses stratified over [M_LOW, 2] with an
# independent f each.  Masses below M_LOW are left out: the passes vary more
# with f there, and at m = 0.5 the method stops converging on some draws
# (NoConvergence).
PANEL = 12
M_LOW = 1.5


def setup_alternating(rng, h, out_dir):
    domain, field = _lshape()
    mesh = insulopt.triangulate_bulk(domain, h)
    panel = []
    for i in range(PANEL):
        m = M_LOW + (2.0 - M_LOW) * (i + float(rng.uniform())) / PANEL
        f = rng.uniform(0.5, 1.5, mesh.n_bulk_tris)
        panel.append({"mesh": mesh, "field": field, "m": m,
                      "data": insulopt.ProblemData(f=f), "draws": (m, f)})
    return panel


def solve_alternating(inst):
    u, report = insulopt.solve_reduced(inst["mesh"], inst["m"], inst["data"],
                                       method="alternating", tol=TOL)
    dist = insulopt.reconstruct_distribution(inst["mesh"], u, inst["m"],
                                             inst["field"])
    return report, dist


def check_alternating(inst, out):
    report, dist = out
    problems = []
    terms = report.terms
    lhs = 2.0 * (terms["grad"] + terms["boundary_l1_sq"])
    rhs = terms["source"] + terms["neumann"]
    rel = _rel(lhs, rhs)
    if not rel <= 1e-8:
        problems.append(f"optimality identity off by {rel:.2e} relative")
    if not _rel(dist.mass, inst["m"]) <= 1e-10:
        problems.append(f"reconstructed mass {dist.mass!r} != m={inst['m']!r}")
    return problems, {"bulk_nodes": len(inst["mesh"].nodes),
                      "iterations": int(report.diagnostics["iterations"])}


WORKLOADS = {w.name: w for w in [
    Workload("limit_fine", 1 / 128,
             setup_limit, solve_limit, check_limit),
    Workload("sweep_lshape", 1 / 64,
             setup_sweep, solve_sweep, check_sweep),
    Workload("reconstruct_square", 1 / 32,
             setup_reconstruct, solve_reconstruct, check_reconstruct),
    Workload("alternating_lshape", 1 / 64,
             setup_alternating, solve_alternating, check_alternating),
]}
