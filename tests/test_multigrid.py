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
from insulopt.multigrid import preconditioner, prolongation, stencils
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
    """P of the finest level with every node free."""
    n_coarse, rows, cols, weights = next(stencils(mesh))
    free = np.ones(len(mesh.nodes), dtype=bool)
    return n_coarse, prolongation(free, n_coarse, rows, cols, weights)


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_galerkin_product_is_the_coarse_stiffness(h):
    _, _, fine = lshape(h)
    _, _, coarse = lshape(2 * h)
    assert len(fine.hierarchy) == len(coarse.hierarchy) + 1
    n_coarse, P = finest_prolongation(fine)
    assert n_coarse == len(coarse.nodes)
    K_c = (P.T @ stiffness(fine) @ P).tocsr()
    assert abs(K_c - stiffness(coarse)).max() == 0.0


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_prolongation_reproduces_the_fine_nodes(h):
    _, _, fine = lshape(h)
    nodes = fine.nodes
    for n_coarse, rows, cols, weights in stencils(fine):
        free = np.ones(len(nodes), dtype=bool)
        P = prolongation(free, n_coarse, rows, cols, weights)
        assert np.array_equal(P @ nodes[:n_coarse], nodes)
        nodes = nodes[:n_coarse]
    assert len(nodes) == len(insulopt.PolygonalDomain(
        LSHAPE, ["insulated"] * 6).vertices)


def test_glued_mesh_carries_the_bulk_hierarchy():
    field, dist, bulk = lshape(1 / 16)
    glued = extrude_layer(bulk, field, dist, 0.02, n_t=4)
    assert glued.hierarchy is bulk.hierarchy
    levels = list(stencils(glued))
    assert len(levels) == len(bulk.hierarchy) + 1
    # the glued level is the recovery sequence of the bulk field
    n_coarse, rows, cols, weights = levels[0]
    free = np.ones(len(glued.nodes), dtype=bool)
    P = prolongation(free, n_coarse, rows, cols, weights)
    u = np.random.default_rng(0).standard_normal(n_coarse)
    assert np.array_equal(P @ u, insulopt.recovery_sequence(u, glued))


def test_mesh_without_hierarchy_keeps_jacobi():
    domain = PolygonalDomain(LSHAPE, ["insulated"] * 6)
    mesh = triangulate_bulk(domain, 10.0)  # ear clipping only
    assert mesh.hierarchy == ()
    assert preconditioner(mesh, stiffness(mesh)) is None


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


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
@pytest.mark.parametrize("scale", [1.0, 0.4])
def test_thin_layer_solve_converges_in_few_iterations(h, scale):
    field, dist, bulk = lshape(h)
    eps = scale * h
    glued = extrude_layer(bulk, field, dist, eps, n_t=4)
    data = ProblemData(f=1.0)
    u, rep = solve_eps(glued, eps, data, max_iter=40)
    t = rep.terms
    lhs = 2.0 * (t["grad"] + t["grad_layer_scaled"])
    assert lhs == pytest.approx(t["source"] + t["neumann"], rel=1e-9)


def random_system(h, glued, frac, rng):
    """Robin operator of a bulk mesh, or thin-layer operator of a glued
    mesh at eps = h, with a random per-triangle load and a random fraction
    ``frac`` of the nodes fixed to random values; returns (mesh, system)."""
    field, dist, mesh = lshape(h)
    if glued:
        mesh = extrude_layer(mesh, field, dist, h, n_t=3)
        A = stiffness(mesh, BULK) + h * stiffness(mesh, LAYER)
    else:
        A = robin_operator(mesh, field, dist)[0]
    fixed = dirichlet_nodes(mesh, ProblemData())
    b = assemble_load(mesh, rng.uniform(-1.0, 2.0, mesh.n_bulk_tris))
    for nd in np.flatnonzero(rng.random(len(mesh.nodes)) < frac):
        fixed.setdefault(int(nd), float(rng.uniform(-1.0, 1.0)))
    return mesh, apply_dirichlet(A, b, fixed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.3),
       glued=st.booleans())
def test_multigrid_and_jacobi_agree(seed, frac, glued):
    mesh, sys = random_system(1 / 32, glued, frac,
                              np.random.default_rng(seed))
    x_jacobi = solve_spd(sys.matrix, sys.rhs, tol=1e-12)
    mg = preconditioner(mesh, sys.matrix, sys.free)
    assert mg is not None
    x_mg = solve_spd(sys.matrix, sys.rhs, tol=1e-12, precond=mg)
    assert (np.linalg.norm(x_mg - x_jacobi)
            <= 1e-8 * np.linalg.norm(x_jacobi))


def shifted(sys, t):
    """The system matrix shifted between its two smallest eigenvalues: one
    negative eigenvalue, and still a positive diagonal."""
    lam = np.linalg.eigvalsh(sys.matrix.toarray())[:2]
    shift = (lam[0] + t * (lam[1] - lam[0])) * sp.identity(len(sys.rhs))
    A = (sys.matrix - shift).tocsr()
    assert np.all(A.diagonal() > 0)
    return A


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.3),
       glued=st.booleans(), t=st.floats(0.05, 0.95))
def test_multigrid_rejects_an_indefinite_system(seed, frac, glued, t):
    mesh, sys = random_system(1 / 16, glued, frac,
                              np.random.default_rng(seed))
    A = shifted(sys, t)
    with pytest.raises(NoConvergence):
        solve_spd(A, sys.rhs, tol=1e-12,
                  precond=preconditioner(mesh, A, sys.free))


@pytest.mark.parametrize("glued", [False, True])
def test_coarsest_level_rejects_a_smooth_negative_mode(glued):
    # without fixed nodes the negative eigenvector is the smoothest mode,
    # so the Galerkin coarse operator is indefinite too
    mesh, sys = random_system(1 / 16, glued, 0.0, np.random.default_rng(0))
    with pytest.raises(NoConvergence, match="coarsest level"):
        preconditioner(mesh, shifted(sys, 0.5), sys.free)


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
