import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import insulopt
from insulopt.errors import NoConvergence
from insulopt.fem import (
    ProblemData,
    SolveWorkspace,
    apply_dirichlet,
    assemble_load,
    dirichlet_nodes,
    solve_spd,
    stiffness,
)
from insulopt.geometry import (
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
)
from insulopt.layer_solver import solve_eps
from insulopt.meshing import BULK, LAYER, extrude_layer, triangulate_bulk
from insulopt.multigrid import VCycle, prolongation, stencils, transfers
from insulopt.robin_solver import robin_operator, solve_limit

from conftest import LSHAPE


def lshape(h):
    domain = PolygonalDomain(LSHAPE, ["insulated"] * 6)
    field = build_transversal_field(domain, "bisector")
    dist = InsulationDistribution.from_arc_samples(
        field, np.arange(6) * domain.perimeter / 6,
        [1.0, 0.6, 1.4, 0.8, 1.2, 0.5])
    return field, dist, triangulate_bulk(domain, h)


def finest_prolongation(mesh):
    """Coarse nodes and P of the finest level with every node free."""
    coarse, rows, cols, weights = next(stencils(mesh))
    free = np.ones(len(mesh.nodes), dtype=bool)
    return coarse, prolongation(free, coarse, rows, cols, weights)


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_galerkin_product_is_the_coarse_stiffness(h):
    _, _, fine = lshape(h)
    _, _, coarse_mesh = lshape(2 * h)
    assert len(fine.hierarchy) == len(coarse_mesh.hierarchy) + 1
    coarse, P = finest_prolongation(fine)
    # a bulk mesh's coarse nodes are a prefix of its fine nodes
    assert np.array_equal(coarse, np.arange(len(coarse_mesh.nodes)))
    K_c = (P.T @ stiffness(fine) @ P).tocsr()
    assert abs(K_c - stiffness(coarse_mesh)).max() == 0.0


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_prolongation_reproduces_the_fine_nodes(h):
    _, _, fine = lshape(h)
    nodes = fine.nodes
    for coarse, rows, cols, weights in stencils(fine):
        free = np.ones(len(nodes), dtype=bool)
        P = prolongation(free, coarse, rows, cols, weights)
        assert np.array_equal(P @ nodes[coarse], nodes)
        nodes = nodes[coarse]
    assert len(nodes) == len(insulopt.PolygonalDomain(
        LSHAPE, ["insulated"] * 6).vertices)


@settings(max_examples=15, deadline=None)
@given(labels=st.lists(st.sampled_from(["insulated", "neumann", "dirichlet"]),
                       min_size=6, max_size=6),
       first=st.integers(0, 5),
       knots=st.lists(st.floats(0.3, 1.5), min_size=2, max_size=6),
       eps=st.floats(0.002, 0.02), n_t=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 2**32 - 1))
def test_glued_mesh_carries_the_bulk_hierarchy(labels, first, knots, eps,
                                               n_t, seed):
    labels[first] = "insulated"
    domain = PolygonalDomain(LSHAPE, labels)
    field = build_transversal_field(domain, "bisector")
    coords = [np.linspace(0.0, comp.length, len(knots),
                          endpoint=not comp.cyclic)
              for comp in domain.insulated_components]
    dist = InsulationDistribution(field, coords,
                                  [np.array(knots)] * len(coords))
    # the bulk meshes of every level, finest first, and their glued meshes
    bulks = [triangulate_bulk(domain, h) for h in (1 / 16, 1 / 8, 1 / 4,
                                                   1 / 2, 1)]
    assert [len(b.hierarchy) for b in bulks] == [4, 3, 2, 1, 0]
    glued = [extrude_layer(b, field, dist, eps, n_t) for b in bulks]
    assert glued[0].hierarchy is bulks[0].hierarchy
    levels = list(stencils(glued[0]))
    assert len(levels) == len(bulks[0].hierarchy)
    rng = np.random.default_rng(seed)
    for k, (coarse, rows, cols, weights) in enumerate(levels):
        # level k + 1 numbers its nodes as the glued mesh of its bulk level
        # does, and level 0 is the glued mesh itself
        assert np.array_equal(glued[k].nodes[coarse], glued[k + 1].nodes)
        free = np.ones(len(glued[k].nodes), dtype=bool)
        P = prolongation(free, coarse, rows, cols, weights)
        # the bulk block is the bulk prolongation
        n_bulk, n_coarse = glued[k].n_bulk_nodes, glued[k + 1].n_bulk_nodes
        bulk_P = finest_prolongation(bulks[k])[1]
        assert (P[:n_bulk, :n_coarse] != bulk_P).nnz == 0
        assert P[:n_bulk, n_coarse:].nnz == 0
        # P maps the coarse recovery sequence of a bulk field to the fine
        # recovery sequence of its bulk prolongation
        u = rng.standard_normal(n_coarse)
        fine_rec = insulopt.recovery_sequence(bulk_P @ u, glued[k])
        coarse_rec = insulopt.recovery_sequence(u, glued[k + 1])
        assert np.abs(P @ coarse_rec - fine_rec).max() <= 1e-14


def test_mesh_without_hierarchy_keeps_jacobi():
    field, dist, _ = lshape(1 / 8)
    mesh = triangulate_bulk(field.domain, 10.0)  # ear clipping only
    assert mesh.hierarchy == ()
    fixed = np.zeros(len(mesh.nodes), dtype=bool)
    assert SolveWorkspace().preconditioner(mesh, stiffness(mesh),
                                           fixed) is None
    data = ProblemData(f=1.0)
    glued = extrude_layer(mesh, field, dist, 0.05, n_t=2)
    for _, rep in (solve_limit(mesh, field, dist, data),
                   solve_eps(glued, 0.05, data)):
        d = rep.diagnostics
        assert d["transfer_builds"] == d["vcycle_builds"] == 0
        assert d["pcg_iterations"] > 0


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
@pytest.mark.parametrize("quadrature", ["consistent", "lumped"])
def test_limit_solve_converges_in_few_iterations(h, quadrature):
    # Jacobi PCG needs hundreds of iterations here
    field, dist, mesh = lshape(h)
    data = ProblemData(f=1.0)
    u, rep = solve_limit(mesh, field, dist, data, max_iter=40,
                         robin_quadrature=quadrature)
    t = rep.terms
    lhs = 2.0 * (t["grad"] + t["interface"])
    assert lhs == pytest.approx(t["source"] + t["neumann"], rel=1e-9)
    d = rep.diagnostics
    assert d["transfer_builds"] == d["vcycle_builds"] == 1
    assert 0 < d["pcg_iterations"] <= 40


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
@pytest.mark.parametrize("scale", [8.0, 4.0, 2.0, 1.0, 0.4])
def test_thin_layer_solve_converges_in_few_iterations(h, scale):
    # the layer coarsens with the bulk, so thick layers converge as fast
    field, dist, bulk = lshape(h)
    eps = scale * h
    glued = extrude_layer(bulk, field, dist, eps, n_t=4)
    data = ProblemData(f=1.0)
    u, rep = solve_eps(glued, eps, data, max_iter=40)
    t = rep.terms
    lhs = 2.0 * (t["grad"] + t["grad_layer_scaled"])
    assert lhs == pytest.approx(t["source"] + t["neumann"], rel=1e-9)
    d = rep.diagnostics
    assert d["transfer_builds"] == d["vcycle_builds"] == 1
    assert 0 < d["pcg_iterations"] <= 28


def random_system(h, glued, frac, rng):
    """Robin operator of a bulk mesh, or thin-layer operator of a glued
    mesh at eps = h, with a random per-triangle load and a random fraction
    ``frac`` of the nodes fixed to random values; returns (mesh, fixed
    mask, A_FF, b_F)."""
    field, dist, mesh = lshape(h)
    if glued:
        mesh = extrude_layer(mesh, field, dist, h, n_t=3)
        A = stiffness(mesh, BULK) + h * stiffness(mesh, LAYER)
    else:
        A = robin_operator(mesh, field, dist)[0]
    fixed, lift = dirichlet_nodes(mesh, ProblemData())
    b = assemble_load(mesh, rng.uniform(-1.0, 2.0, mesh.n_bulk_tris))
    picked = np.flatnonzero(rng.random(len(mesh.nodes)) < frac)
    values = rng.uniform(-1.0, 1.0, len(picked))
    new = ~fixed[picked]
    lift[picked[new]] = values[new]
    fixed[picked] = True
    return mesh, fixed, *apply_dirichlet(A, b, fixed, lift)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.3),
       glued=st.booleans())
def test_multigrid_and_jacobi_agree(seed, frac, glued):
    mesh, fixed, A, b = random_system(1 / 32, glued, frac,
                                      np.random.default_rng(seed))
    x_jacobi = solve_spd(A, b, tol=1e-12)
    mg = VCycle(A, transfers(mesh, fixed))
    assert mg.levels
    x_mg = solve_spd(A, b, tol=1e-12, precond=mg)
    assert (np.linalg.norm(x_mg - x_jacobi)
            <= 1e-8 * np.linalg.norm(x_jacobi))


@pytest.mark.parametrize("glued", [False, True])
def test_exact_start_needs_no_preconditioner(glued):
    rng = np.random.default_rng(1)
    mesh, fixed, A, b = random_system(1 / 32, glued, 0.1, rng)
    x = rng.standard_normal(len(b))
    mg = VCycle(A, transfers(mesh, fixed))
    applied = []

    def counting(r):
        applied.append(r)
        return mg(r)

    out = solve_spd(A, A @ x, precond=counting, x0=x)
    assert applied == []
    assert np.array_equal(out, x)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.3),
       glued=st.booleans(), scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3]))
def test_random_start_reaches_the_zero_start_solution(seed, frac, glued,
                                                      scale):
    rng = np.random.default_rng(seed)
    mesh, fixed, A, b = random_system(1 / 32, glued, frac, rng)
    tol = 1e-10
    mg = VCycle(A, transfers(mesh, fixed))
    x_zero = solve_spd(A, b, tol=tol, precond=mg)
    # sized on the solution; at 1e3 the updated residual meets tol while
    # the true one does not, and the iteration restarts from the true one
    start = scale * np.abs(x_zero).max() * rng.standard_normal(len(b))
    x = solve_spd(A, b, tol=tol, precond=mg, x0=start)
    assert np.linalg.norm(b - A @ x) <= 2 * tol * np.linalg.norm(b)
    assert (np.linalg.norm(x - x_zero)
            <= 100 * tol * np.linalg.norm(x_zero))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.3),
       glued=st.booleans(), within=st.booleans())
def test_kept_vcycle_serves_a_spectrally_equivalent_operator(seed, frac,
                                                            glued, within):
    rng = np.random.default_rng(seed)
    mesh, fixed, A_FF, b = random_system(1 / 32, glued, frac, rng)
    n, tol = len(b), 1e-10
    # a diagonal W on about a tenth of the unknowns, 1e-2 to 1e2 times the
    # system's own diagonal, and a new one within a factor 2 of it, or
    # beyond it at one unknown
    on = rng.random(n) < 0.1
    on[rng.integers(n)] = True
    built = np.where(on, A_FF.diagonal() * 10.0 ** rng.uniform(-2, 2, n),
                     0.0)
    W = built * 2.0 ** rng.uniform(-1.0, 1.0, n)
    if not within:
        W[rng.choice(np.flatnonzero(on))] *= rng.choice([1 / 8, 8.0])

    def operator(diag):
        return (A_FF + sp.diags(diag)).tocsr()

    workspace = SolveWorkspace()
    workspace.robin = built
    first = workspace.preconditioner(mesh, operator(built), fixed)
    workspace.robin = W
    A = operator(W)
    kept = workspace.preconditioner(mesh, A, fixed)
    assert workspace.transfer_builds == 1
    assert workspace.vcycle_builds == (1 if within else 2)
    assert (kept is first) == within

    def solve(precond):
        steps = []
        x = solve_spd(A, b, tol=tol, precond=precond,
                      callback=steps.append)
        return x, len(steps)

    x_fresh, fresh_steps = solve(VCycle(A, transfers(mesh, fixed)))
    x, steps = solve(kept)
    assert steps <= 2 * fresh_steps + 2
    assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b)
    assert (np.linalg.norm(x - x_fresh)
            <= 100 * tol * np.linalg.norm(x_fresh))


def shifted(A, t):
    """The matrix ``A`` shifted between its two smallest eigenvalues: one
    negative eigenvalue, and still a positive diagonal."""
    lam = np.linalg.eigvalsh(A.toarray())[:2]
    shift = (lam[0] + t * (lam[1] - lam[0])) * sp.identity(A.shape[0])
    A = (A - shift).tocsr()
    assert np.all(A.diagonal() > 0)
    return A


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.3),
       glued=st.booleans(), t=st.floats(0.05, 0.95))
def test_multigrid_rejects_an_indefinite_system(seed, frac, glued, t):
    mesh, fixed, A_FF, b = random_system(1 / 16, glued, frac,
                                         np.random.default_rng(seed))
    A = shifted(A_FF, t)
    with pytest.raises(NoConvergence):
        solve_spd(A, b, tol=1e-12, precond=VCycle(A, transfers(mesh, fixed)))


@pytest.mark.parametrize("glued", [False, True])
def test_coarsest_level_rejects_a_smooth_negative_mode(glued):
    # without fixed nodes the negative eigenvector is the smoothest mode,
    # so the Galerkin coarse operator is indefinite too
    mesh, fixed, A, _ = random_system(1 / 16, glued, 0.0,
                                      np.random.default_rng(0))
    with pytest.raises(NoConvergence, match="coarsest level"):
        VCycle(shifted(A, 0.5), transfers(mesh, fixed))


SOLVE_BOTH = """
import sys
import insulopt
domain = insulopt.PolygonalDomain(
    [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)], ["insulated"] * 6)
field = insulopt.build_transversal_field(domain, "bisector")
dist = insulopt.InsulationDistribution.constant(field, 1.0)
data = insulopt.ProblemData(f=1.0)
bulk = insulopt.triangulate_bulk(domain, 1 / 16)
insulopt.solve_limit(bulk, field, dist, data)
insulopt.solve_eps(insulopt.extrude_layer(bulk, field, dist, 0.05, 4), 0.05, data)
print(" ".join(m for m in sys.modules
               if m.startswith(("scipy.linalg", "scipy.sparse.linalg"))))
"""


def test_solvers_import_no_scipy_linalg():
    # importing either package costs several MB of resident memory
    src = os.path.dirname(os.path.dirname(insulopt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SOLVE_BOTH],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
