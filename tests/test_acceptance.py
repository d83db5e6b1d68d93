"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""
import time

import numpy as np
import pytest

from insulopt.convergence import gamma_sweep
from insulopt.fem import ProblemData, eval_E_limit
from insulopt.geometry import (
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
    layer_area,
    transversal_mass,
)
from insulopt.layer_solver import solve_eps
from insulopt.meshing import extrude_layer, insulated_chain, triangulate_bulk
from insulopt.reduced_solver import prox_squared_l1, solve_reduced
from insulopt.robin_solver import solve_limit
from insulopt.thickness import reconstruct_distribution

from conftest import LSHAPE, SQUARE, pseudo1d_setup
from test_reduced import prox_bisection_oracle


def _stamp(cid, started, budget, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{cid} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {cid} PASS ({elapsed:.2f}s): {detail}")


def test_c1_pseudo1d_limit_problem():
    started = time.perf_counter()
    domain, field, mesh, data = pseudo1d_setup(h=1 / 32)
    worst_u, worst_e = 0.0, 0.0
    for c in (0.5, 1.0, 2.0):
        dist = InsulationDistribution.constant(field, c)
        u, rep = solve_limit(mesh, field, dist, data, tol=1e-13)
        exact = 1.0 - mesh.nodes[:, 0] / (1 + c)
        worst_u = max(worst_u, float(np.abs(u - exact).max()))
        worst_e = max(worst_e, abs(rep.total - 1 / (2 * (1 + c))))
    assert worst_u <= 1e-10
    assert worst_e <= 1e-10
    _stamp("C1", started, 1.0,
           f"limit solver node-wise {worst_u:.1e}, energy {worst_e:.1e}")


def test_c2_pseudo1d_eps_problem():
    started = time.perf_counter()
    domain, field, _, data = pseudo1d_setup()
    eps_list = [0.2, 0.1, 0.05, 0.025]
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        dist = InsulationDistribution.constant(field, c)
        report = gamma_sweep(domain, field, dist, data, eps_list,
                             h=1 / 8, n_t=4, tol=1e-12)
        exact = 1 / (2 * (1 + c))
        for row in report.rows:
            worst = max(worst, abs(row.energy_solution - exact) / exact)
            # sandwich asserted inside gamma_sweep as well
            assert row.energy_solution <= row.energy_recovery + 1e-12
    assert worst <= 1e-9
    _stamp("C2", started, 5.0,
           f"eps-independent energies, worst relative error {worst:.1e}")


def test_c3_pseudo1d_reduced_problem():
    started = time.perf_counter()
    domain, field, mesh, data = pseudo1d_setup(h=1 / 32)
    worst_obj, worst_d, worst_agree = 0.0, 0.0, 0.0
    for m in (0.5, 1.0, 2.0):
        u_pg, rep_pg = solve_reduced(mesh, m, data, method="proxgrad",
                                     tol=1e-11)
        u_alt, rep_alt = solve_reduced(mesh, m, data, method="alternating",
                                       tol=1e-12)
        exact = 1 / (2 * (1 + m))
        worst_obj = max(worst_obj, abs(rep_pg.total - exact),
                        abs(rep_alt.total - exact))
        worst_agree = max(worst_agree,
                          abs(rep_pg.total - rep_alt.total) / abs(exact))
        dist = reconstruct_distribution(mesh, u_alt, m, field)
        for vals in dist.component_values:
            worst_d = max(worst_d, float(np.abs(vals - m).max()))
    assert worst_obj <= 1e-8
    assert worst_d <= 1e-8
    assert worst_agree <= 1e-6
    _stamp("C3", started, 10.0,
           f"objective {worst_obj:.1e}, thickness {worst_d:.1e}, "
           f"method agreement {worst_agree:.1e}")


def test_c4_prox_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        z = rng.uniform(-10, 10, n)
        w = rng.uniform(0.1, 2.0, n)
        alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        v, _ = prox_squared_l1(z, w, alpha)
        v_ref, _ = prox_bisection_oracle(z, w, alpha)
        worst = max(worst, float(np.abs(v - v_ref).max()))
    assert worst <= 1e-8
    _stamp("C4", started, 10.0,
           f"1000 instances, worst componentwise gap {worst:.1e}")


def test_c5_measure_convergence():
    started = time.perf_counter()
    domain = PolygonalDomain(SQUARE, ["insulated"] * 4)
    field = build_transversal_field(domain, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    limit = transversal_mass(field, dist)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    errs = [abs(layer_area(field, dist, e) / e - limit) for e in eps_list]
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 0.9
    _stamp("C5", started, 1.0,
           f"layer measure orders {['%.3f' % o for o in orders]}")


def test_c6_gamma_convergence_lshape():
    started = time.perf_counter()
    domain = PolygonalDomain(LSHAPE, ["insulated"] * 6)
    field = build_transversal_field(domain, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    data = ProblemData(f=1.0, g=0.0, u_D=0.0)
    finals = {}
    for h in (1 / 64, 1 / 128):
        # the eps-halving sweep scales with the resolved layer width
        eps_list = [8 * h, 4 * h, 2 * h, h]
        report = gamma_sweep(domain, field, dist, data, eps_list,
                             h=h, n_t=4, tol=1e-10)
        gs = [r.gap_solution for r in report.rows]
        gr = [r.gap_recovery for r in report.rows]
        assert all(a > b for a, b in zip(gs, gs[1:])), gs
        assert all(a > b for a, b in zip(gr, gr[1:])), gr
        scale = abs(report.energy_limit)
        assert gs[-1] / scale < 0.05
        assert gr[-1] / scale < 0.05
        finals[h] = (gs[-1], gr[-1], scale)
    assert finals[1 / 128][0] < finals[1 / 64][0]
    assert finals[1 / 128][1] < finals[1 / 64][1]
    _stamp("C6", started, 300.0,
           "monotone gaps, final relative "
           f"{finals[1/128][0]/finals[1/128][2]:.2e} (solution) and "
           f"{finals[1/128][1]/finals[1/128][2]:.2e} (recovery), "
           "both shrink at h=1/128")


def test_c7_double_min_identity():
    started = time.perf_counter()
    domain, field, mesh, data = pseudo1d_setup(h=1 / 32)
    m = 1.0
    tol = 1e-13
    u, rep = solve_reduced(mesh, m, data, method="alternating", tol=tol)
    d_u = reconstruct_distribution(mesh, u, m, field)
    limit_rep = eval_E_limit(mesh, u, field, d_u, data, interface="lumped")
    gap = abs(rep.total - limit_rep.total)
    assert gap <= 1e-10 * (1 + abs(rep.total))
    u2, _ = solve_limit(mesh, field, d_u, data, tol=tol,
                        robin_quadrature="lumped")
    drift = float(np.abs(u2 - u).max())
    assert drift <= 10 * tol * float(np.abs(u).max())
    _stamp("C7", started, 30.0,
           f"objective identity gap {gap:.1e}, fixed-point drift {drift:.1e}")


# Dunavant 6-point degree-4 triangle quadrature (barycentric)
_BARY = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459]])
_QW = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def _ustar(x, y):
    return np.exp(-(x - 0.5) ** 2 - (y - 0.5) ** 2)


def _errors_vs_manufactured(mesh, u):
    p = mesh.nodes[mesh.tris]
    areas = mesh.areas
    x = p[:, :, 0] @ _BARY.T
    y = p[:, :, 1] @ _BARY.T
    uh = u[mesh.tris] @ _BARY.T
    b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1],
                  p[:, 0, 1] - p[:, 1, 1]], 1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0],
                  p[:, 1, 0] - p[:, 0, 0]], 1)
    gx = (u[mesh.tris] * b).sum(1) / (2 * areas)
    gy = (u[mesh.tris] * c).sum(1) / (2 * areas)
    us = _ustar(x, y)
    ex = -2 * (x - 0.5) * us
    ey = -2 * (y - 0.5) * us
    l2 = np.sqrt(np.sum(areas[:, None] * _QW[None, :] * (uh - us) ** 2))
    h1 = np.sqrt(np.sum(areas[:, None] * _QW[None, :]
                        * ((gx[:, None] - ex) ** 2 + (gy[:, None] - ey) ** 2)))
    return float(l2), float(h1)


def test_c8_manufactured_robin_orders():
    # u* = exp(-(x-1/2)^2-(y-1/2)^2) satisfies the homogeneous interface law
    # with unit weight on every side of the square, so d = 1/(k.n) nodally
    started = time.perf_counter()
    domain = PolygonalDomain(SQUARE, ["insulated"] * 4)
    field = build_transversal_field(domain, "bisector")
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        mesh = triangulate_bulk(domain, h)
        chain = insulated_chain(mesh, field)
        coords, values, lo = [], [], 0
        for cc in chain.components:
            hi = lo + len(cc.nodes)
            coords.append(cc.coords.copy())
            values.append(1.0 / chain.kn[lo:hi])
            lo = hi
        dist = InsulationDistribution(field, coords, values)
        cent = mesh.nodes[mesh.tris].mean(axis=1)
        r2 = (cent[:, 0] - 0.5) ** 2 + (cent[:, 1] - 0.5) ** 2
        data = ProblemData(f=4 * _ustar(cent[:, 0], cent[:, 1]) * (1 - r2),
                           g=0.0, u_D=0.0)
        u, _ = solve_limit(mesh, field, dist, data, tol=1e-12)
        errs.append(_errors_vs_manufactured(mesh, u))
    l2_orders = [float(np.log2(errs[i][0] / errs[i + 1][0]))
                 for i in range(len(errs) - 1)]
    h1_orders = [float(np.log2(errs[i][1] / errs[i + 1][1]))
                 for i in range(len(errs) - 1)]
    assert min(l2_orders) >= 1.9
    assert min(h1_orders) >= 0.9
    _stamp("C8", started, 60.0,
           f"L2 orders {['%.2f' % o for o in l2_orders]}, "
           f"H1 orders {['%.2f' % o for o in h1_orders]}")


def test_c9_layer_diagnostics():
    started = time.perf_counter()
    worst_poincare = 0.0
    monitors = []
    # pseudo-1D sweep
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    values = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        glued = extrude_layer(mesh, field, dist, eps, 4)
        _, rep = solve_eps(glued, eps, data, tol=1e-11)
        worst_poincare = max(worst_poincare,
                             rep.diagnostics["poincare_max_ratio"])
        values.append(rep.diagnostics["equicoercivity"])
    monitors.append(values)
    # L-shaped sweep
    lshape = PolygonalDomain(LSHAPE, ["insulated"] * 6)
    lfield = build_transversal_field(lshape, "bisector")
    ldist = InsulationDistribution.constant(lfield, 1.0)
    ldata = ProblemData(f=1.0, g=0.0, u_D=0.0)
    lmesh = triangulate_bulk(lshape, 1 / 32)
    values = []
    for eps in (0.25, 0.125, 0.0625, 0.03125):
        glued = extrude_layer(lmesh, lfield, ldist, eps, 4)
        _, rep = solve_eps(glued, eps, ldata, tol=1e-11)
        worst_poincare = max(worst_poincare,
                             rep.diagnostics["poincare_max_ratio"])
        values.append(rep.diagnostics["equicoercivity"])
    monitors.append(values)
    assert worst_poincare <= 1.05
    for values in monitors:
        assert max(values) <= 10.0 * values[0]
    _stamp("C9", started, 60.0,
           f"worst fiber ratio {worst_poincare:.4f}, "
           f"equi-coercivity spreads "
           f"{['%.3f' % (max(v) / min(v)) for v in monitors]}")
