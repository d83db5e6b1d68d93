import numpy as np
import pytest
import scipy.sparse as sp

from insulopt.errors import MeshMismatch, NonpositiveWeight
from insulopt.fem import ProblemData, eval_E_limit, solve_spd
from insulopt.geometry import InsulationDistribution, build_transversal_field
from insulopt.layer_solver import poincare_fiber_check, solve_eps
from insulopt.meshing import extrude_layer, triangulate_bulk
from insulopt.robin_solver import solve_limit

from conftest import pseudo1d_setup


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_limit_pseudo1d_exact(c):
    domain, field, mesh, data = pseudo1d_setup(h=1 / 16)
    dist = InsulationDistribution.constant(field, c)
    u, rep = solve_limit(mesh, field, dist, data, tol=1e-13)
    exact = 1.0 - mesh.nodes[:, 0] / (1 + c)
    assert np.abs(u - exact).max() <= 1e-11
    assert rep.total == pytest.approx(1 / (2 * (1 + c)), abs=1e-12)


def test_limit_zero_data_gives_zero():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    data = ProblemData(f=0.0, g=0.0, u_D=0.0)
    dist = InsulationDistribution.constant(field, 1.0)
    u, rep = solve_limit(mesh, field, dist, data)
    assert np.abs(u).max() == 0.0
    assert rep.total == 0.0


def test_limit_large_thickness_approaches_neumann():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 16)
    dist = InsulationDistribution.constant(field, 1e8)
    u, rep = solve_limit(mesh, field, dist, data, tol=1e-13)
    assert rep.terms["interface"] <= 1e-6
    assert np.abs(u - 1.0).max() <= 1e-6


def test_limit_rejects_zero_thickness():
    domain, field, mesh, data = pseudo1d_setup(h=0.25)
    dist = InsulationDistribution.constant(field, 0.0)
    with pytest.raises(NonpositiveWeight):
        solve_limit(mesh, field, dist, data)


def test_limit_rejects_glued_mesh():
    domain, field, mesh, data = pseudo1d_setup(h=0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, 0.1, 2)
    with pytest.raises(MeshMismatch):
        solve_limit(glued, field, dist, data)


def test_limit_symmetry_group_of_mesh(square_all_insulated):
    # f=1, uniform d, all-boundary insulation: the solution inherits the
    # symmetries that also preserve the triangulation (both diagonal
    # reflections of the square and their composition)
    field = build_transversal_field(square_all_insulated, "bisector")
    mesh = triangulate_bulk(square_all_insulated, 1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    data = ProblemData(f=1.0, g=0.0, u_D=0.0)
    u, _ = solve_limit(mesh, field, dist, data, tol=1e-12)
    index = {(round(x, 12), round(y, 12)): i
             for i, (x, y) in enumerate(mesh.nodes)}
    for mapping in (lambda x, y: (y, x), lambda x, y: (1 - y, 1 - x)):
        for (x, y), i in index.items():
            j = index[tuple(round(v, 12) for v in mapping(x, y))]
            assert u[i] == pytest.approx(u[j], abs=1e-10)


def test_limit_discrete_minimality(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    mesh = triangulate_bulk(square_all_insulated, 0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    data = ProblemData(f=1.0, g=0.0, u_D=0.0)
    u, rep = solve_limit(mesh, field, dist, data, tol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(20):
        delta = 1e-3 * rng.standard_normal(len(u))
        pert = eval_E_limit(mesh, u + delta, field, dist, data)
        assert rep.total <= pert.total + 1e-12


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_eps_pseudo1d_energy_independent_of_eps(c, eps):
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    dist = InsulationDistribution.constant(field, c)
    glued = extrude_layer(mesh, field, dist, eps, 4)
    u, rep = solve_eps(glued, eps, data, tol=1e-13)
    assert rep.total == pytest.approx(1 / (2 * (1 + c)), rel=1e-11)


def test_eps_zero_trace_exact():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, 0.1, 3)
    u, rep = solve_eps(glued, 0.1, data, tol=1e-12)
    assert rep.diagnostics["zero_trace_violation"] == 0.0


def test_eps_trivial_zero():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    data = ProblemData(f=0.0, g=0.0, u_D=0.0)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, 0.1, 2)
    u, rep = solve_eps(glued, 0.1, data)
    assert np.abs(u).max() == 0.0
    assert rep.total == 0.0


def test_eps_skipped_facet_reduces_to_dirichlet():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    dist = InsulationDistribution.constant(field, 0.0)
    glued = extrude_layer(mesh, field, dist, 1.0, 2)
    u, rep = solve_eps(glued, 1.0, data, tol=1e-13)
    # layer skipped entirely: pure Dirichlet problem u = 1 - x
    exact = 1.0 - glued.nodes[:, 0]
    assert np.abs(u - exact).max() <= 1e-11


def test_eps_wrong_epsilon_mismatch():
    domain, field, mesh, data = pseudo1d_setup(h=0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, 0.1, 2)
    with pytest.raises(MeshMismatch):
        solve_eps(glued, 0.2, data)


def test_eps_poincare_fiber_inequality_holds():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    for eps in (0.2, 0.1):
        glued = extrude_layer(mesh, field, dist, eps, 4)
        _, rep = solve_eps(glued, eps, data, tol=1e-12)
        assert rep.diagnostics["poincare_max_ratio"] <= 1.05


def test_poincare_fiber_check_matches_per_fiber_loop(lshape_all_insulated):
    field = build_transversal_field(lshape_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    mesh = triangulate_bulk(lshape_all_insulated, 1 / 8)
    glued = extrude_layer(mesh, field, dist, 0.05, 3)
    ext = glued.extrusion

    def reference(u):
        worst = 0.0
        for fibers in ext.fiber_nodes:
            for row in fibers:
                vals, ts = u[row], ext.layer_t[row]
                slopes = np.diff(vals) / np.diff(ts)
                tail = np.cumsum((slopes**2 * np.diff(ts))[::-1])[::-1]
                for i in range(len(row) - 1):
                    rhs = (ts[-1] - ts[i]) * tail[i]
                    if rhs <= 0:
                        if abs(vals[i]) > 1e-14:
                            worst = np.inf
                        continue
                    worst = max(worst, vals[i] ** 2 / rhs)
        return worst

    u = np.random.default_rng(7).standard_normal(len(glued.nodes))
    row = ext.fiber_nodes[0][3]
    u[row] = 0.0  # zero tail energy and zero value: no constraint
    expected = reference(u)
    assert np.isfinite(expected)
    assert poincare_fiber_check(glued, u) == expected
    u[row] = 0.7  # non-zero constant fiber: the ratio is unbounded
    assert poincare_fiber_check(glued, u) == reference(u) == np.inf


def test_eps_equicoercivity_bounded_over_sweep(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    mesh = triangulate_bulk(square_all_insulated, 1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    data = ProblemData(f=1.0, g=0.0, u_D=0.0)
    values = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        glued = extrude_layer(mesh, field, dist, eps, 4)
        _, rep = solve_eps(glued, eps, data, tol=1e-11)
        values.append(rep.diagnostics["equicoercivity"])
    assert max(values) <= 10.0 * values[0]


def test_two_component_insulation_solves():
    from insulopt.geometry import PolygonalDomain
    domain = PolygonalDomain(
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        ["insulated", "neumann", "insulated", "dirichlet"])
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    data = ProblemData(f=0.0, g=0.0, u_D=1.0)
    u, rep = solve_limit(mesh, field, dist, data, tol=1e-12)
    assert np.isfinite(rep.total) and 0 < u.max() <= 1.0 + 1e-12
    glued = extrude_layer(mesh, field, dist, 0.1, 3)
    u_eps, rep_eps = solve_eps(glued, 0.1, data, tol=1e-12)
    assert rep_eps.diagnostics["poincare_max_ratio"] <= 1.05
    # energies of the two formulations are close at this layer scale
    assert rep_eps.total == pytest.approx(rep.total, rel=0.1)


def test_every_solve_takes_the_constrained_path_once(monkeypatch):
    from insulopt import fem, layer_solver, reduced_solver, robin_solver
    from insulopt.reduced_solver import solve_reduced

    calls = []

    def spy(mesh, *args, **kwargs):
        calls.append(mesh)
        return fem.solve_constrained(mesh, *args, **kwargs)

    for module in (robin_solver, layer_solver, reduced_solver):
        monkeypatch.setattr(module, "solve_constrained", spy)
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    for quadrature in ("consistent", "lumped"):
        calls.clear()
        solve_limit(mesh, field, dist, data, robin_quadrature=quadrature)
        assert calls == [mesh]
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=2)
    calls.clear()
    solve_eps(glued, 0.1, data)
    assert calls == [glued]
    calls.clear()
    _, rep = solve_reduced(mesh, 1.0, data, method="alternating")
    assert rep.diagnostics["iterations"] >= 2
    assert calls == [mesh] * rep.diagnostics["iterations"]


@pytest.mark.parametrize("max_iter", [0, -1])
def test_linear_solves_reject_a_max_iter_below_one(max_iter):
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=2)
    for solve in (lambda: solve_limit(mesh, field, dist, data,
                                      max_iter=max_iter),
                  lambda: solve_eps(glued, 0.1, data, max_iter=max_iter),
                  lambda: solve_spd(sp.identity(3, format="csr"), np.ones(3),
                                    max_iter=max_iter)):
        with pytest.raises(ValueError, match="max_iter"):
            solve()
