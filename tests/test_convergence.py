import os
import subprocess
import sys

import numpy as np
import pytest

import insulopt
from insulopt.convergence import (
    boundary_integral,
    gamma_sweep,
    layer_integral,
    lebesgue_limit_check,
    recovery_sequence,
)
from insulopt.errors import (
    ConvergenceCheckFailure,
    MeshMismatch,
    NonInjectiveLayer,
    NonpositiveWeight,
    SolverError,
)
from insulopt.fem import ProblemData
from insulopt.geometry import (
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
    transversal_mass,
)
from insulopt.layer_solver import solve_eps
from insulopt.meshing import extrude_layer, insulated_chain, triangulate_bulk
from insulopt.robin_solver import solve_limit

from conftest import LSHAPE, NOTCHED, pseudo1d_setup


def test_recovery_values_along_fiber():
    domain, field, mesh, data = pseudo1d_setup(h=0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, eps=0.2, n_t=2)
    u, _ = solve_limit(mesh, field, dist, data, tol=1e-12)
    v = recovery_sequence(u, glued)
    ext = glued.extrusion
    for row in ext.fibers:
        base = u[row[0]]
        assert v[row[0]] == base                      # t = 0 copies u
        assert v[row[1]] == pytest.approx(base / 2)   # mid layer, n_t = 2
        assert v[row[2]] == 0.0                       # outer boundary


def test_recovery_needs_glued_mesh():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    with pytest.raises(MeshMismatch):
        recovery_sequence(np.zeros(len(mesh.nodes)), mesh)


@pytest.mark.parametrize("c,scale", [(1.0, 1.0), (1.0, 2.0)])
def test_gamma_sweep_pseudo1d_gaps_vanish(c, scale):
    # analytic eps-independence: every gap is at solver-roundoff level
    domain, field, mesh, data = pseudo1d_setup()
    dist = InsulationDistribution.constant(field, scale * c)
    report = gamma_sweep(domain, field, dist, data,
                         [0.2, 0.1, 0.05, 0.025], h=1 / 8, n_t=4, tol=1e-12)
    exact = 1 / (2 * (1 + scale * c))
    assert report.energy_limit == pytest.approx(exact, abs=1e-11)
    for row in report.rows:
        assert row.gap_solution <= 1e-9
        assert row.gap_recovery <= 1e-9
        assert row.energy_solution <= row.energy_recovery + 1e-12


def test_gamma_sweep_rejects_nondecreasing_eps():
    domain, field, mesh, data = pseudo1d_setup(h=0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    for eps_list in ([0.1, 0.2], []):
        with pytest.raises(ValueError):
            gamma_sweep(domain, field, dist, data, eps_list, h=0.25, n_t=2)


def test_gamma_sweep_noninjective_eps_propagates():
    domain = PolygonalDomain(NOTCHED, ["insulated"] * 6)
    field = build_transversal_field(domain, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    data = ProblemData(f=1.0, g=0.0, u_D=0.0)
    with pytest.raises(NonInjectiveLayer):
        gamma_sweep(domain, field, dist, data, [2.5, 1.25], h=0.5, n_t=2)


def test_measure_convergence_table(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    rows = lebesgue_limit_check(None, None, dist, field,
                                [0.1, 0.05, 0.025, 0.0125], p=1)
    limit = transversal_mass(field, dist)
    assert rows[0][2] == pytest.approx(limit, rel=1e-12)
    errs = [r[3] for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_lebesgue_zero_field_all_zero(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    rows = lebesgue_limit_check(lambda pts: np.zeros(len(pts)), None, dist,
                                field, [0.2, 0.1], p=2)
    for eps, val, limit, err in rows:
        assert val == 0.0 and limit == 0.0 and err == 0.0


def test_lebesgue_flat_facet_exact_for_every_eps():
    # k = n on a straight facet, profile constant along fibers:
    # the scaled layer integral equals the boundary integral exactly
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    dist = InsulationDistribution.constant(field, 1.0)

    def v(pts):
        return np.sin(3.0 * pts[:, 1])  # depends on y only; fibers go in x

    limit = boundary_integral(field, dist, p=2, v=v)
    for eps in (0.3, 0.1, 0.04):
        val = layer_integral(field, dist, eps, p=2, v=v)
        assert val == pytest.approx(limit, rel=1e-13)


def test_lebesgue_weighted_p1(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)

    def a(s):
        return 1.0 + 0.5 * np.sin(s)

    def v(pts):
        return 1.0 + pts[:, 0] * pts[:, 1]

    rows = lebesgue_limit_check(v, a, dist, field, [0.08, 0.04, 0.02], p=1)
    errs = [r[3] for r in rows]
    assert all(a1 > b1 for a1, b1 in zip(errs, errs[1:]))


HARNESS_CHECK_RUN = """
import sys
import numpy as np
import insulopt.convergence as conv
from insulopt import ConvergenceCheckFailure, InsulationDistribution
from insulopt import PolygonalDomain, ProblemData, build_transversal_field

assert not __debug__, "expected python -O"
setattr(conv, sys.argv[1], float(sys.argv[2]))
square = [(0, 0), (1, 0), (1, 1), (0, 1)]
try:
    if sys.argv[1] == "MIN_LEBESGUE_ORDER":
        domain = PolygonalDomain(square, ["insulated"] * 4)
        field = build_transversal_field(domain, "bisector")
        dist = InsulationDistribution.constant(field, 1.0)
        conv.lebesgue_limit_check(lambda p: 1.0 + p[:, 0] * p[:, 1], None,
                                  dist, field, [0.08, 0.04], p=1)
    else:
        domain = PolygonalDomain(
            square, ["neumann", "insulated", "neumann", "dirichlet"])
        field = build_transversal_field(domain, "facet_normal")
        dist = InsulationDistribution.constant(field, 1.0)
        conv.gamma_sweep(domain, field, dist, ProblemData(u_D=1.0),
                         [0.2, 0.1], h=0.25, n_t=2)
except ConvergenceCheckFailure as exc:
    print("raised", exc)
"""


@pytest.mark.parametrize("name,value", [
    ("SANDWICH_SLACK", -1), ("EQUICOERCIVITY_FACTOR", 0),
    ("MIN_LEBESGUE_ORDER", 100)])
def test_harness_checks_survive_python_O(name, value):
    # each check must raise a typed error even with asserts stripped
    src = os.path.dirname(os.path.dirname(insulopt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", HARNESS_CHECK_RUN, name, str(value)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised"), proc.stdout
    assert issubclass(ConvergenceCheckFailure, SolverError)  # CLI exit code 3


@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
def test_optimal_design_with_zeros_runs_the_whole_pipeline():
    # reduce -> reconstruct -> extrude -> thin-layer solve on the
    # all-insulated L-shape, whose optimal thickness has exact zeros
    domain = PolygonalDomain(LSHAPE, ["insulated"] * 6)
    field = build_transversal_field(domain, "bisector")
    data = ProblemData(f=1.0)
    h, m = 1 / 32, 0.5
    mesh = triangulate_bulk(domain, h)
    u, rep = insulopt.solve_reduced(mesh, m, data, method="proxgrad")
    d = insulopt.reconstruct_distribution(mesh, u, m, field)
    assert np.count_nonzero(insulated_chain(mesh).thickness(d) == 0) == 9
    # the double-min identity E_lim,lumped(d*) = I(u*)
    limit = insulopt.eval_E_limit(mesh, u, field, d, data, interface="lumped")
    assert limit.total == pytest.approx(rep.total, rel=1e-12, abs=0)
    # and E_eps(d*) -> I(u*) at first order as eps -> 0 at fixed h
    gaps = []
    for eps in h * np.array([8, 4, 2, 1, 0.5, 0.25]):
        glued = extrude_layer(mesh, field, d, eps, 4)
        _, rep_eps = solve_eps(glued, eps, data)
        gaps.append(abs(rep_eps.total - rep.total))
    assert min(a / b for a, b in zip(gaps, gaps[1:])) >= 1.7
    # the sweep's consistent limit still needs d > 0
    with pytest.raises(NonpositiveWeight):
        gamma_sweep(domain, field, d, data, [8 * h, h], h, 4)
