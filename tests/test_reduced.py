import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insulopt.errors import NonUniqueWarning, ZeroTrace
from insulopt.fem import ProblemData, eval_E_limit, eval_I
from insulopt.meshing import insulated_chain, triangulate_bulk
from insulopt.reduced_solver import prox_squared_l1, solve_reduced
from insulopt.robin_solver import solve_limit
from insulopt.thickness import reconstruct_distribution

from conftest import pseudo1d_setup


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
    zero_ext = np.zeros(len(mesh.nodes))
    from insulopt.fem import dirichlet_nodes

    for node, val in dirichlet_nodes(mesh, data).items():
        zero_ext[node] = val
    start = eval_I(mesh, zero_ext, 1.0, data, chain=chain)
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
        lshape_all_insulated):
    # at m = 0.5 parts of the trace decay toward 0 (|u_j| ~ 1e-296), where
    # the weight s/(m|u_j|) overflows; such nodes must be pinned to zero
    # instead of putting inf into the Robin matrix
    mesh = triangulate_bulk(lshape_all_insulated, 1 / 16)
    f = np.random.default_rng(0).uniform(0.5, 1.5, mesh.n_bulk_tris)
    data = ProblemData(f=f)
    with pytest.warns(NonUniqueWarning):
        _, rep_alt = solve_reduced(mesh, 0.5, data, method="alternating")
        _, rep_pg = solve_reduced(mesh, 0.5, data, method="proxgrad")
    t = rep_alt.terms
    lhs = 2.0 * (t["grad"] + t["boundary_l1_sq"])
    rhs = t["source"] + t["neumann"]
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)
    assert abs(rep_alt.total - rep_pg.total) <= 1e-6 * abs(rep_pg.total)


@pytest.mark.parametrize("method", ["alternating", "proxgrad"])
def test_reduced_setup_is_built_once(method, monkeypatch):
    from insulopt import fem, reduced_solver

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
