import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insulopt.errors import NoConvergence, NonUniqueWarning, ZeroTrace
from insulopt.fem import ProblemData, eval_E_limit, eval_I
from insulopt.geometry import (
    FacetLabel,
    PolygonalDomain,
    build_transversal_field,
)
from insulopt.meshing import insulated_chain, triangulate_bulk
from insulopt import reduced_solver
from insulopt.reduced_solver import (
    ANDERSON_DEPTH,
    prox_squared_l1,
    solve_reduced,
)
from insulopt.robin_solver import solve_limit
from insulopt.thickness import reconstruct_distribution

from conftest import LSHAPE, NOTCHED, SQUARE, pseudo1d_setup


# -- prox oracle -----------------------------------------------------------------

def prox_bisection_oracle(z, w, alpha, offset=0.0, iters=200):
    """Independent root finder: refine the trace value s by interval halving
    on the monotone residual s - sum w*max(|z| - alpha(s+offset)w, 0)."""
    z = np.asarray(z, float)
    w = np.asarray(w, float)
    az = np.abs(z)
    lo, hi = 0.0, float(np.sum(w * az)) + 1.0

    def resid(s):
        return s - float(np.sum(w * np.maximum(az - alpha * (s + offset) * w, 0.0)))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if resid(mid) < 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return np.sign(z) * np.maximum(az - alpha * (s + offset) * w, 0.0), s


def prox_objective(v, z, w, alpha, offset=0.0):
    return 0.5 * np.sum((v - z) ** 2) + 0.5 * alpha * (
        np.sum(w * np.abs(v)) + offset) ** 2


def test_prox_zero_input():
    v, s = prox_squared_l1(np.zeros(4), np.ones(4), 1.0)
    assert np.all(v == 0.0) and s == 0.0


def test_prox_known_instance():
    # grid search over the v-plane confirms the optimum (1.5, 0)
    z = np.array([3.0, 1.0])
    w = np.array([1.0, 1.0])
    v, s = prox_squared_l1(z, w, 1.0)
    assert np.allclose(v, [1.5, 0.0], atol=1e-12)
    assert s == pytest.approx(1.5, abs=1e-12)
    grid = np.linspace(-0.5, 3.5, 401)
    best = min(
        ((prox_objective(np.array([a, b]), z, w, 1.0), (a, b))
         for a in grid for b in grid))
    assert np.allclose(best[1], [1.5, 0.0], atol=2e-2)
    assert prox_objective(v, z, w, 1.0) <= best[0] + 1e-12


def test_prox_alpha_to_zero_is_identity():
    z = np.array([1.0, -2.0, 0.3])
    w = np.array([0.5, 1.0, 2.0])
    v, _ = prox_squared_l1(z, w, 1e-14)
    assert np.allclose(v, z, atol=1e-10)
    v0, s0 = prox_squared_l1(z, w, 0.0)
    assert np.array_equal(v0, z)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.data(),
)
def test_prox_matches_bisection_oracle(zs, data):
    z = np.array(zs)
    w = np.array(data.draw(st.lists(
        st.floats(0.1, 2.0), min_size=len(zs), max_size=len(zs))))
    alpha = data.draw(st.floats(0.01, 10.0))
    offset = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
    v, s = prox_squared_l1(z, w, alpha, offset=offset)
    v_ref, s_ref = prox_bisection_oracle(z, w, alpha, offset=offset)
    assert np.abs(v - v_ref).max() <= 1e-8
    assert s == pytest.approx(s_ref, abs=1e-8)


# -- reduced solvers --------------------------------------------------------------

@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_reduced_pseudo1d_both_methods(m):
    domain, field, mesh, data = pseudo1d_setup(h=1 / 16)
    u1, r1 = solve_reduced(mesh, m, data, method="proxgrad", tol=1e-11)
    u2, r2 = solve_reduced(mesh, m, data, method="alternating", tol=1e-11)
    exact_obj = 1 / (2 * (1 + m))
    assert r1.total == pytest.approx(exact_obj, abs=1e-9)
    assert r2.total == pytest.approx(exact_obj, abs=1e-9)
    assert abs(r1.total - r2.total) <= 1e-6 * abs(r1.total)
    exact = 1.0 - mesh.nodes[:, 0] / (1 + m)
    assert np.abs(u1 - exact).max() <= 1e-6
    assert np.abs(u2 - exact).max() <= 1e-8
    assert 0.0 < r2.diagnostics["certified_residual"] <= 1e-10


def test_reduced_large_mass_ignores_boundary_term():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 16)
    m = 1e8
    u, rep = solve_reduced(mesh, m, data, method="alternating", tol=1e-12)
    assert rep.total == pytest.approx(1 / (2 * (1 + m)), abs=1e-8)
    assert np.abs(u - 1.0).max() <= 1e-6


def test_reduced_trivial_zero_data():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    data = ProblemData(f=0.0, g=0.0, u_D=0.0)
    u, rep = solve_reduced(mesh, 1.0, data, method="proxgrad")
    assert np.abs(u).max() == 0.0
    assert rep.total == 0.0
    with pytest.raises(ZeroTrace):
        solve_reduced(mesh, 1.0, data, method="alternating")


def test_reduced_warns_without_dirichlet(square_all_insulated):
    mesh = triangulate_bulk(square_all_insulated, 0.25)
    data = ProblemData(f=1.0, g=0.0, u_D=0.0)
    with pytest.warns(NonUniqueWarning):
        solve_reduced(mesh, 1.0, data, method="alternating", tol=1e-10)


def test_reduced_objective_descends_from_zero_start():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    chain = insulated_chain(mesh)
    u, rep = solve_reduced(mesh, 1.0, data, method="proxgrad", tol=1e-10)
    from insulopt.fem import dirichlet_nodes

    _, zero_ext = dirichlet_nodes(mesh, data)
    start = eval_I(mesh, zero_ext, 1.0, data)
    assert rep.total <= start.total


def test_double_min_identity_and_fixed_point():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 16)
    m = 1.0
    u, rep = solve_reduced(mesh, m, data, method="alternating", tol=1e-13)
    d_u = reconstruct_distribution(mesh, u, m, field)
    limit_rep = eval_E_limit(mesh, u, field, d_u, data, interface="lumped")
    assert abs(rep.total - limit_rep.total) <= 1e-10 * (1 + abs(rep.total))
    u2, _ = solve_limit(mesh, field, d_u, data, tol=1e-13,
                        robin_quadrature="lumped")
    assert np.abs(u2 - u).max() <= 10 * 1e-13 * np.abs(u).max() + 1e-13


def test_alternating_overflowing_weight_becomes_zero_constraint(
        lshape_all_insulated, monkeypatch):
    # at m = 0.5 parts of the trace decay toward 0 (|u_j| ~ 1e-296 in the
    # plain loop, which the Anderson-mixed loop stops before), where the
    # weight s/(m|u_j|) overflows; such nodes must be pinned to zero instead
    # of putting inf into the Robin matrix
    monkeypatch.setattr(reduced_solver, "ANDERSON_DEPTH", 0)
    mesh = triangulate_bulk(lshape_all_insulated, 1 / 16)
    f = np.random.default_rng(0).uniform(0.5, 1.5, mesh.n_bulk_tris)
    data = ProblemData(f=f)
    with pytest.warns(NonUniqueWarning):
        _, rep_alt = solve_reduced(mesh, 0.5, data, method="alternating")
        _, rep_pg = solve_reduced(mesh, 0.5, data, method="proxgrad")
    assert rep_alt.diagnostics["transfer_builds"] >= 2  # a node was pinned
    t = rep_alt.terms
    lhs = 2.0 * (t["grad"] + t["boundary_l1_sq"])
    rhs = t["source"] + t["neumann"]
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)
    assert abs(rep_alt.total - rep_pg.total) <= 1e-6 * abs(rep_pg.total)


@pytest.mark.parametrize("method", ["alternating", "proxgrad"])
def test_reduced_setup_is_built_once(method, monkeypatch):
    from insulopt import fem

    counts = {}  # (module, name) -> calls
    for name in ("assemble_load", "apply_dirichlet"):
        original = getattr(fem, name)
        for module in (fem, reduced_solver):
            if getattr(module, name, None) is not original:
                continue
            key = (module.__name__.rsplit(".", 1)[1], name)
            counts[key] = 0

            def spy(*args, _key=key, _original=original):
                counts[_key] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, spy)
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    _, rep = solve_reduced(mesh, 1.0, data, method=method)
    # one load vector per solve; one Dirichlet elimination per alternating
    # pass (inside fem.solve_constrained), and one in all for proximal
    # gradients
    assert counts["reduced_solver", "assemble_load"] == 1
    passes = rep.diagnostics["iterations"] if method == "alternating" else 1
    assert (counts["fem", "apply_dirichlet"]
            + counts["reduced_solver", "apply_dirichlet"]) == passes
    if method == "alternating":
        # the stopping value reuses the load vector: the only other load
        # vector is the final report's
        assert passes >= 2
        assert counts["fem", "apply_dirichlet"] == passes
        assert (counts["fem", "assemble_load"]
                + counts["reduced_solver", "assemble_load"]) == 2


# -- warm-started alternating passes ------------------------------------------------

def _lshape_draw(h, seed):
    mesh = triangulate_bulk(PolygonalDomain(LSHAPE, ["insulated"] * 6), h)
    f = np.random.default_rng(seed).uniform(0.5, 1.5, mesh.n_bulk_tris)
    return mesh, ProblemData(f=f)


@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
@pytest.mark.parametrize("h,m,seed,depth,builds",
                         [(1 / 64, 1.7, 3, ANDERSON_DEPTH, 1),
                          (1 / 16, 0.5, 0, 0, 2)],
                         ids=["m1.7", "m0.5_pinned"])
def test_warm_start_keeps_the_passes_and_the_energy(h, m, seed, depth, builds,
                                                    monkeypatch):
    # the plain loop (no Anderson mixing) pins a node on the m = 0.5 draw, so
    # the free set changes between passes; the mixed loop stops before any
    # trace underflows there
    monkeypatch.setattr(reduced_solver, "ANDERSON_DEPTH", depth)
    mesh, data = _lshape_draw(h, seed)
    _, warm = solve_reduced(mesh, m, data, method="alternating")
    original = reduced_solver.solve_constrained

    def zero_start(*args, start=None, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(reduced_solver, "solve_constrained", zero_start)
    _, cold = solve_reduced(mesh, m, data, method="alternating")
    w, c = warm.diagnostics, cold.diagnostics
    assert w["iterations"] == c["iterations"]
    assert abs(warm.total - cold.total) <= 1e-12 * abs(cold.total)
    assert w["transfer_builds"] == c["transfer_builds"] == builds
    assert w["pcg_iterations"] < 0.8 * c["pcg_iterations"]


def _kept_and_fresh(mesh, m, data, monkeypatch):
    """The alternating reports with the kept V-cycle and with a V-cycle
    rebuilt on every pass."""
    _, kept = solve_reduced(mesh, m, data, method="alternating")
    original = reduced_solver.solve_constrained

    def rebuild_every_pass(*args, workspace, **kwargs):
        workspace.robin = None  # no diagonal to compare: always rebuild
        return original(*args, workspace=workspace, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(reduced_solver, "solve_constrained", rebuild_every_pass)
        _, fresh = solve_reduced(mesh, m, data, method="alternating")
    return kept, fresh


@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
@pytest.mark.parametrize("h,m,seed,plain_passes,mixed_passes,max_builds",
                         [(1 / 64, 1.7, 3, 21, 10, 3),
                          (1 / 16, 0.5, 0, 257, 41, 257),
                          (1 / 16, 0.5, 4, 336, 75, 336)],
                         ids=["m1.7", "m0.5_rng0", "m0.5_rng4"])
def test_kept_vcycle_keeps_the_passes_and_the_energy(h, m, seed, plain_passes,
                                                     mixed_passes, max_builds,
                                                     monkeypatch):
    # at m = 0.5 the weights of decaying nodes grow ~3.4x per pass, beyond
    # the factor 2, so nearly every pass rebuilds there
    mesh, data = _lshape_draw(h, seed)
    monkeypatch.setattr(reduced_solver, "ANDERSON_DEPTH", 0)
    kept, fresh = _kept_and_fresh(mesh, m, data, monkeypatch)
    k, f = kept.diagnostics, fresh.diagnostics
    assert (k["iterations"] == f["iterations"] == f["vcycle_builds"]
            == plain_passes)
    assert abs(kept.total - fresh.total) <= 1e-12 * abs(fresh.total)
    assert k["vcycle_builds"] <= max_builds
    assert k["pcg_iterations"] <= 1.1 * f["pcg_iterations"]
    # the mixed loop: a late accepted mix can carry the rounding differences
    # of the two V-cycles into the stopping field, so its energies are held
    # to the plain loop's, which the energy safeguard keeps them below
    plain = kept.total
    monkeypatch.setattr(reduced_solver, "ANDERSON_DEPTH", ANDERSON_DEPTH)
    kept, fresh = _kept_and_fresh(mesh, m, data, monkeypatch)
    k, f = kept.diagnostics, fresh.diagnostics
    assert (k["iterations"] == f["iterations"] == f["vcycle_builds"]
            == mixed_passes)
    assert max(kept.total, fresh.total) <= plain + 1e-10 * abs(plain)
    assert k["vcycle_builds"] <= max_builds
    assert k["pcg_iterations"] <= 1.1 * f["pcg_iterations"]


@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
def test_transfers_are_built_once_per_free_set(monkeypatch):
    from insulopt import fem

    free_sets, built, vcycles = [], [], []
    apply_dirichlet, transfers = fem.apply_dirichlet, fem.transfers
    VCycle = fem.VCycle

    def spy_dirichlet(A, b, fixed, lift):
        free_sets.append(tuple(np.flatnonzero(~fixed)))
        return apply_dirichlet(A, b, fixed, lift)

    def spy_transfers(mesh, fixed):
        built.append(tuple(np.flatnonzero(~fixed)))
        return transfers(mesh, fixed)

    def spy_vcycle(A, levels):
        vcycle = VCycle(A, levels)
        vcycles.append(weakref.ref(vcycle))
        return vcycle

    monkeypatch.setattr(fem, "apply_dirichlet", spy_dirichlet)
    monkeypatch.setattr(fem, "transfers", spy_transfers)
    monkeypatch.setattr(fem, "VCycle", spy_vcycle)
    # the plain loop pins nodes on this draw (the mixed loop stops first)
    monkeypatch.setattr(reduced_solver, "ANDERSON_DEPTH", 0)
    mesh, data = _lshape_draw(1 / 16, 0)
    _, rep = solve_reduced(mesh, 0.5, data, method="alternating")
    assert len(free_sets) == rep.diagnostics["iterations"]
    assert len(set(free_sets)) >= 2
    assert sorted(built) == sorted(set(free_sets))
    assert rep.diagnostics["transfer_builds"] == len(built)
    assert rep.diagnostics["vcycle_builds"] == len(vcycles) >= len(built)
    # no transfer or V-cycle state is left on the mesh, and the workspace
    # let go of its V-cycles on return
    assert set(vars(mesh)) <= {f.name for f in dataclasses.fields(mesh)}
    assert set(mesh.operator_cache) == {("stiffness", None)}
    gc.collect()
    assert all(ref() is None for ref in vcycles)


# -- Anderson-mixed alternating passes ----------------------------------------------

@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
@pytest.mark.parametrize("h,m,seed", [(1 / 64, 1.7, 3), (1 / 16, 0.5, 0)],
                         ids=["m1.7", "m0.5"])
def test_anderson_mixing_never_raises_the_energy(h, m, seed, monkeypatch):
    mesh, data = _lshape_draw(h, seed)
    tol = 1e-10
    original = reduced_solver.solve_constrained
    energies = []  # I of each pass's start field and of its Robin field

    def spy(*args, start=None, **kwargs):
        if start is not None:
            energies.append(eval_I(mesh, start, m, data).total)
        u = original(*args, start=start, **kwargs)
        energies.append(eval_I(mesh, u, m, data).total)
        return u

    with monkeypatch.context() as patch:
        patch.setattr(reduced_solver, "ANDERSON_DEPTH", 0)
        _, plain = solve_reduced(mesh, m, data, method="alternating", tol=tol)
    monkeypatch.setattr(reduced_solver, "solve_constrained", spy)
    _, mixed = solve_reduced(mesh, m, data, method="alternating", tol=tol)
    p, x = plain.diagnostics, mixed.diagnostics
    assert p["accelerated"] == 0 < x["accelerated"] <= x["iterations"]
    # a kept mix lowers I below its Robin field's, a pass from it lowers I
    # further (block descent), and a refused mix leaves the Robin field
    assert len(energies) == 2 * x["iterations"] - 1
    assert np.all(np.diff(energies) <= 1e-14 * np.abs(energies[1:]))
    assert mixed.total <= plain.total + tol * abs(plain.total)
    assert x["iterations"] <= 0.6 * p["iterations"]


@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
def test_anderson_history_is_cleared_when_a_node_is_pinned(monkeypatch):
    # from the fourth pass on one chain node's Robin field is set to exactly
    # 0, so the node gets pinned once its mixed value is 0 as well; no mix
    # may combine pairs solved with and without that pin
    mesh, data = _lshape_draw(1 / 16, 0)
    node = insulated_chain(mesh).nodes[5]
    solve, mix = reduced_solver.solve_constrained, reduced_solver._anderson_mix
    passes, histories = [], []

    def vanishing(*args, **kwargs):
        u = solve(*args, **kwargs)
        passes.append(u)
        if len(passes) >= 4:
            u[node] = 0.0
        return u

    def spy_mix(history):
        histories.append([f[node] for _, f in history])
        return mix(history)

    monkeypatch.setattr(reduced_solver, "solve_constrained", vanishing)
    monkeypatch.setattr(reduced_solver, "_anderson_mix", spy_mix)
    u, rep = solve_reduced(mesh, 1.0, data, method="alternating")
    assert u[node] == 0.0 and rep.diagnostics["transfer_builds"] == 2
    pinned = [all(r == 0.0 for r in h) for h in histories]
    assert any(pinned) and not all(pinned)
    assert all(p or not any(r == 0.0 for r in h)
               for p, h in zip(pinned, histories))


@settings(max_examples=20, deadline=None)
@given(m=st.floats(1.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_mixed_alternating_matches_proxgrad(m, seed):
    mesh, data = _lshape_draw(1 / 16, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUniqueWarning)
        _, pg = solve_reduced(mesh, m, data, method="proxgrad", tol=1e-10)
        _, alt = solve_reduced(mesh, m, data, method="alternating", tol=1e-10)
    assert abs(alt.total - pg.total) <= 1e-8 * abs(pg.total)
    d = alt.diagnostics
    assert d["accelerated"] <= d["iterations"]


# -- the notched domain ---------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
def test_alternating_on_the_notched_domain_all_insulated():
    # part of the trace decays: the plain loop raised NoConvergence from the
    # linear solve; the mixed loop returns close to the minimizer, but its
    # certificate shows the stop is not certified there
    mesh = triangulate_bulk(PolygonalDomain(NOTCHED, ["insulated"] * 6), 1 / 8)
    data = ProblemData(f=1.0)
    _, pg = solve_reduced(mesh, 1.3, data, method="proxgrad")
    _, alt = solve_reduced(mesh, 1.3, data, method="alternating")
    assert abs(alt.total - pg.total) <= 1e-8 * abs(pg.total)
    assert alt.diagnostics["certified_residual"] == pytest.approx(1.41,
                                                                  abs=0.01)


def test_alternating_on_the_notched_domain_with_dirichlet_data():
    # the Robin weights of the decaying trace leave the coarsest level of the
    # V-cycle indefinite in floating point; the method says so
    labels = ["insulated", "insulated", "dirichlet", "insulated", "insulated",
              "neumann"]
    mesh = triangulate_bulk(PolygonalDomain(NOTCHED, labels), 1 / 8)
    data = ProblemData(f=1.0, g={5: -0.2}, u_D={2: 0.1})
    with pytest.raises(NoConvergence, match="coarsest level"):
        solve_reduced(mesh, 5.0, data, method="alternating")


@pytest.mark.parametrize("max_iter", [0, -3])
def test_solve_reduced_rejects_a_max_iter_below_one(max_iter):
    _, _, mesh, data = pseudo1d_setup(h=1 / 8)
    for method in ("proxgrad", "alternating"):
        with pytest.raises(ValueError, match="max_iter"):
            solve_reduced(mesh, 1.0, data, method=method, max_iter=max_iter)


# -- gradient restart and the certified residual ----------------------------------

def _all_insulated_lshape():
    mesh, data = _lshape_draw(1 / 64, 3)
    return mesh, 1.7, data, 15_000


def _neumann_lshape():
    labels = ["neumann", "insulated", "insulated", "insulated", "neumann",
              "insulated"]
    mesh = triangulate_bulk(PolygonalDomain(LSHAPE, labels), 1 / 32)
    f = np.random.default_rng(0).uniform(-0.5, 1.5, mesh.n_bulk_tris)
    return mesh, 4.0, ProblemData(f=f, g=0.2), 10_000


@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
@pytest.mark.parametrize("case", [_all_insulated_lshape, _neumann_lshape],
                         ids=["all_insulated_m1.7", "neumann_g0.2_m4"])
def test_proxgrad_certifies_where_objective_restart_stalled(case):
    # restarting on an objective increase fired on rounding noise: these
    # cases took 200k+ (a NoConvergence) and 170k steps; the gradient
    # restart certifies them in 6,225 and 3,325
    mesh, m, data, max_iter = case()
    u, rep = solve_reduced(mesh, m, data, method="proxgrad", tol=1e-10,
                           max_iter=max_iter)
    assert rep.diagnostics["certified_residual"] <= 1e-10
    assert rep.diagnostics["restarts"] >= 1
    t = rep.terms  # without Dirichlet data, I is 2-homogeneous minus linear
    rhs = t["source"] + t["neumann"]
    assert abs(2.0 * (t["grad"] + t["boundary_l1_sq"]) - rhs) <= 1e-8 * abs(rhs)
    # the alternating method stops on energy stagnation: close to the
    # certified minimizer, never below it, and its certificate shows the gap
    u_alt, rep_alt = solve_reduced(mesh, m, data, method="alternating")
    assert rep.total <= rep_alt.total + 1e-9 * (1 + abs(rep.total))
    assert np.abs(u - u_alt).max() <= 1e-4 * np.abs(u).max()
    cert = rep_alt.diagnostics["certified_residual"]
    assert np.isfinite(cert) and cert > 0.0


def test_proxgrad_iterations_do_not_depend_on_dirichlet_scale():
    # scaling u_D scales the minimizer; the iteration count must follow the
    # problem, not the rounding (the objective restart gave 8,750-8,810)
    counts = []
    for u_d in (0.6, 1.0, 1.7):
        _, _, mesh, _ = pseudo1d_setup(h=1 / 32)
        data = ProblemData(f=0.0, g=0.0, u_D=u_d)
        u, rep = solve_reduced(mesh, 1.0, data, method="proxgrad", tol=1e-10)
        assert np.abs(u - u_d * (1.0 - mesh.nodes[:, 0] / 2.0)).max() <= 1e-6
        counts.append(rep.diagnostics["iterations"])
    assert max(counts) - min(counts) <= 5
    assert max(counts) <= 1_000


def test_certified_residual_matches_the_eliminated_system():
    # proximal gradients certify on the eliminated system; the full-field
    # certificate of the alternating method must read the same value
    from insulopt.fem import assemble_neumann, dirichlet_nodes, stiffness

    _, _, mesh, data = pseudo1d_setup(h=1 / 16)
    u, rep = solve_reduced(mesh, 1.0, data, method="proxgrad", tol=1e-10)
    b = assemble_neumann(mesh, data)  # f = 0
    cert = reduced_solver._certified_residual(
        stiffness(mesh), b, *dirichlet_nodes(mesh, data),
        insulated_chain(mesh), 1.0, u)
    assert cert == pytest.approx(rep.diagnostics["certified_residual"],
                                 rel=1e-6)
    assert 0.0 < cert <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    vertices=st.sampled_from([SQUARE, LSHAPE]),
    m=st.floats(0.2, 5.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_proxgrad_certifies_random_cases(vertices, m, seed, data):
    n = len(vertices)
    labels = data.draw(
        st.lists(st.sampled_from(["insulated", "neumann", "dirichlet"]),
                 min_size=n, max_size=n).filter(lambda ls: "insulated" in ls))
    domain = PolygonalDomain(vertices, labels)
    field = build_transversal_field(domain, "bisector")
    mesh = triangulate_bulk(domain, 1 / 8)
    rng = np.random.default_rng(seed)
    pdata = ProblemData(
        f=rng.uniform(-1.0, 2.0, mesh.n_bulk_tris),
        g={i: rng.uniform(-1.0, 1.0) for i in domain.facet_ids(
            FacetLabel.NEUMANN)},
        u_D={i: rng.uniform(-1.0, 2.0) for i in domain.facet_ids(
            FacetLabel.DIRICHLET)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUniqueWarning)
        u, rep = solve_reduced(mesh, m, pdata, method="proxgrad", tol=1e-10,
                               max_iter=20_000)
        assert rep.diagnostics["certified_residual"] <= 1e-10
        dist = reconstruct_distribution(mesh, u, m, field)
        assert dist.mass == pytest.approx(m, rel=1e-10)
        try:
            _, rep_alt = solve_reduced(mesh, m, pdata, method="alternating")
        except (NoConvergence, ZeroTrace):
            return
    assert rep.total <= rep_alt.total + 1e-9 * (1 + abs(rep.total))
