import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from insulopt import fem
from insulopt.convergence import gamma_sweep
from insulopt.errors import NoConvergence, NonpositiveWeight, UnknownLabel
from insulopt.fem import (
    ProblemData,
    apply_dirichlet,
    assemble_boundary_mass,
    assemble_load,
    assemble_neumann,
    assemble_stiffness,
    boundary_l1,
    dirichlet_nodes,
    solve_spd,
    stiffness,
)
from insulopt.geometry import (
    FacetLabel,
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
)
from insulopt.meshing import (
    BULK,
    LAYER,
    LAYER_TOP,
    TriMesh,
    extrude_layer,
    insulated_chain,
    triangulate_bulk,
)
from insulopt.reduced_solver import solve_reduced
from insulopt.robin_solver import solve_limit

from conftest import LSHAPE, NOTCHED, SQUARE, pseudo1d_domain, pseudo1d_setup


def unit_right_triangle_mesh():
    domain = PolygonalDomain([(0, 0), (1, 0), (0, 1)], ["insulated"] * 3)
    return TriMesh(
        domain=domain,
        nodes=np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
        tris=np.array([[0, 1, 2]]),
        region=np.zeros(1, dtype=np.uint8),
        boundary_edges=np.array([(0, 1), (1, 2), (2, 0)]),
        boundary_facet=np.array([0, 1, 2]),
        boundary_lam=np.array([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]),
        n_bulk_nodes=3,
        n_bulk_tris=1,
    )


def test_element_stiffness_unit_right_triangle():
    # hand integration of P1 gradients: (1/2) [[2,-1,-1],[-1,1,0],[-1,0,1]]
    mesh = unit_right_triangle_mesh()
    K = assemble_stiffness(mesh, 1.0).toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    assert np.allclose(K, expected, atol=1e-15)


def test_stiffness_scales_with_coefficient():
    mesh = unit_right_triangle_mesh()
    K1 = assemble_stiffness(mesh, 1.0).toarray()
    K2 = assemble_stiffness(mesh, 2.0).toarray()
    assert np.allclose(K2, 2 * K1, atol=1e-15)


def test_stiffness_kernel_contains_constants(lshape_all_insulated):
    mesh = triangulate_bulk(lshape_all_insulated, 0.2)
    K = assemble_stiffness(mesh, 1.0)
    c = np.full(len(mesh.nodes), 3.7)
    assert np.abs(K @ c).max() <= 1e-12


def test_boundary_mass_single_edge():
    domain = pseudo1d_domain()
    mesh = triangulate_bulk(domain, 2.0)  # no refinement: edges = facets
    M = assemble_boundary_mass(mesh, FacetLabel.INSULATED,
                               lambda fid, lam: np.ones_like(lam))
    a, b, _ = mesh.boundary_edges_of(FacetLabel.INSULATED)[0]
    sub = M[np.ix_([a, b], [a, b])].toarray()
    assert np.allclose(sub, np.array([[2, 1], [1, 2]]) / 6.0, atol=1e-15)


def test_boundary_mass_rejects_nonpositive_weight():
    domain = pseudo1d_domain()
    mesh = triangulate_bulk(domain, 2.0)
    with pytest.raises(NonpositiveWeight):
        assemble_boundary_mass(mesh, FacetLabel.INSULATED,
                               lambda fid, lam: np.zeros_like(lam))


@pytest.mark.parametrize("vertices", [LSHAPE, NOTCHED],
                         ids=["lshape", "notched"])
def test_boundary_mass_matches_per_edge_loop(vertices):
    # NOTCHED has edge lengths that are not powers of two, so scaling by L
    # is not exact there and any change of arithmetic order shows
    domain = PolygonalDomain(vertices, ["insulated"] * len(vertices))
    mesh = triangulate_bulk(domain, 1 / 8)

    def weight(fid, lam):
        return 1 + fid + lam**2

    M = assemble_boundary_mass(mesh, FacetLabel.INSULATED, weight)
    # reference: 3-point Gauss on one edge at a time
    gx = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
    gw = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
    rows, cols, vals = [], [], []
    for (a, b), fid, (la, lb) in zip(mesh.boundary_edges, mesh.boundary_facet,
                                     mesh.boundary_lam):
        wq = weight(fid, la + (lb - la) * gx)
        L = float(np.hypot(*(mesh.nodes[b] - mesh.nodes[a])))
        maa = L * float(np.sum(gw * wq * (1 - gx) * (1 - gx)))
        mab = L * float(np.sum(gw * wq * (1 - gx) * gx))
        mbb = L * float(np.sum(gw * wq * gx * gx))
        rows += [a, a, b, b]
        cols += [a, b, a, b]
        vals += [maa, mab, mab, mbb]
    n = len(mesh.nodes)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(M, name), getattr(ref, name))


def test_load_sums_to_source_integral(square_all_insulated):
    mesh = triangulate_bulk(square_all_insulated, 0.3)
    load = assemble_load(mesh, 1.0)
    assert load.sum() == pytest.approx(1.0, rel=1e-14)


def test_neumann_sums_to_flux_integral():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    data = ProblemData(g=1.0)
    vec = assemble_neumann(mesh, data)
    assert vec.sum() == pytest.approx(2.0, rel=1e-14)  # two unit facets


def test_neumann_unknown_facet_label():
    domain, field, mesh, _ = pseudo1d_setup(h=0.5)
    data = ProblemData(g={1: 1.0})  # facet 1 is insulated, not Neumann
    with pytest.raises(UnknownLabel):
        data.validate(domain)


def test_dirichlet_elimination_zero_value_keeps_rhs():
    mesh = unit_right_triangle_mesh()
    K = assemble_stiffness(mesh, 1.0)
    b = np.array([1.0, 2.0, 3.0])
    sys = apply_dirichlet(K, b, {0: 0.0})
    assert np.allclose(sys.rhs, b[sys.free], atol=0)
    assert list(sys.free) == [1, 2]


def test_dirichlet_elimination_without_fixed_nodes_keeps_the_system():
    mesh = unit_right_triangle_mesh()
    K = assemble_stiffness(mesh, 1.0)
    b = np.array([1.0, 2.0, 3.0])
    sys = apply_dirichlet(K, b, {})
    assert sys.matrix is K and sys.rhs is b
    assert list(sys.free) == [0, 1, 2] and len(sys.fixed) == 0
    assert np.array_equal(sys.expand(b), b)


def test_dirichlet_value_beats_a_zero():
    # the zero-thickness bottom facet becomes part of the outer layer
    # boundary and shares the corner (1, 0) with the Dirichlet facet
    domain = PolygonalDomain(SQUARE, ["insulated", "dirichlet", "neumann",
                                      "neumann"])
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 0.25)
    glued = extrude_layer(mesh, field, InsulationDistribution.constant(
        field, 0.0), eps=0.1, n_t=2)
    data = ProblemData(u_D=0.7)
    dirichlet = dirichlet_nodes(mesh, data)
    assert set(dirichlet.values()) == {0.7}
    top = np.unique(glued.marker_edges(LAYER_TOP)).tolist()
    corner = int(np.flatnonzero(np.all(mesh.nodes == (1.0, 0.0), axis=1))[0])
    assert corner in dirichlet and corner in top
    interior = int(np.flatnonzero(np.all(mesh.nodes == (0.5, 0.5), axis=1))[0])
    fixed = dirichlet_nodes(glued, data, zero_nodes=np.array([corner, interior]))
    assert fixed == {**dict.fromkeys(top, 0.0), interior: 0.0, **dirichlet}
    assert fixed[corner] == 0.7
    assert dirichlet_nodes(glued, data, zero_nodes=[]) == {
        **dict.fromkeys(top, 0.0), **dirichlet}


def test_solve_identity():
    A = sp.identity(5, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    assert np.allclose(solve_spd(A, b), b, atol=1e-12)


def test_solve_tridiagonal_chain():
    # 1D Laplacian, 3 interior nodes, ends fixed at zero, unit middle load:
    # direct elimination gives u = (0.5, 1.0, 0.5)
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0],
                                [-1.0, 2.0, -1.0],
                                [0.0, -1.0, 2.0]]))
    b = np.array([0.0, 1.0, 0.0])
    assert np.allclose(solve_spd(A, b, tol=1e-14), [0.5, 1.0, 0.5], atol=1e-12)


def test_solve_indefinite_raises():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NoConvergence):
        solve_spd(A, np.array([1.0, 1.0]))


def test_boundary_l1_total_length():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    chain = insulated_chain(mesh, field)
    u = np.ones(len(mesh.nodes))
    assert boundary_l1(chain, u) == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(-7, 7).filter(lambda a: abs(a) > 1e-6))
def test_boundary_l1_absolutely_homogeneous(alpha):
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    chain = insulated_chain(mesh, field)
    rng = np.random.default_rng(42)
    u = rng.standard_normal(len(mesh.nodes))
    assert boundary_l1(chain, alpha * u) == pytest.approx(
        abs(alpha) * boundary_l1(chain, u), rel=1e-12)


def test_galerkin_residual_of_robin_solve():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 16)
    dist = InsulationDistribution.constant(field, 1.0)
    from insulopt.robin_solver import robin_operator

    A, _ = robin_operator(mesh, field, dist)
    b = assemble_load(mesh, data.f) + assemble_neumann(mesh, data)
    sys = apply_dirichlet(A, b, dirichlet_nodes(mesh, data))
    x = solve_spd(sys.matrix, sys.rhs, tol=1e-11)
    res = np.linalg.norm(sys.matrix @ x - sys.rhs)
    assert res <= 1e-11 * np.linalg.norm(sys.rhs)


def test_energy_monotone_under_refinement():
    # nested P1 spaces: the discrete minimum energy decreases with h
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    data = ProblemData(f=1.0, g=0.0, u_D=0.0)
    energies = []
    for h in (0.5, 0.25, 0.125, 0.0625):
        mesh = triangulate_bulk(domain, h)
        dist = InsulationDistribution.constant(field, 1.0)
        _, rep = solve_limit(mesh, field, dist, data, tol=1e-12)
        energies.append(rep.total)
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_robin_operator_symmetric_spd():
    domain, field, mesh, data = pseudo1d_setup(h=1 / 8)
    from insulopt.geometry import InsulationDistribution
    from insulopt.robin_solver import robin_operator

    dist = InsulationDistribution.constant(field, 1.0)
    A, _ = robin_operator(mesh, field, dist)
    asym = abs(A - A.T).max()
    assert asym <= 1e-12 * abs(A).max()


# -- per-mesh stiffness store -------------------------------------------------

def lshape_glued(lshape_all_insulated, eps=0.05):
    field = build_transversal_field(lshape_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    bulk = triangulate_bulk(lshape_all_insulated, 0.25)
    return field, dist, extrude_layer(bulk, field, dist, eps, n_t=2)


@pytest.fixture
def stiffness_calls(monkeypatch):
    """Counts calls of fem.assemble_stiffness, the one assembly routine."""
    calls = []
    original = fem.assemble_stiffness

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble_stiffness", counting)
    return calls


@pytest.mark.parametrize("n_eps", [1, 3])
def test_gamma_sweep_assembles_each_stiffness_once(
        lshape_all_insulated, stiffness_calls, n_eps):
    field = build_transversal_field(lshape_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    eps_list = [0.1 / 2**i for i in range(n_eps)]
    gamma_sweep(lshape_all_insulated, field, dist, ProblemData(f=1.0),
                eps_list, h=0.25, n_t=2)
    # the bulk mesh once, then the two regions of every glued mesh
    assert len(stiffness_calls) <= 1 + 2 * n_eps


def test_second_reduced_solve_assembles_nothing(stiffness_calls):
    _, _, mesh, data = pseudo1d_setup(h=0.25)
    for method in ("alternating", "proxgrad"):
        solve_reduced(mesh, 1.0, data, method=method)
        stiffness_calls.clear()
        solve_reduced(mesh, 1.0, data, method=method)
        assert stiffness_calls == []


def test_region_stiffness_sums_to_full(lshape_all_insulated):
    _, _, glued = lshape_glued(lshape_all_insulated)
    K = stiffness(glued, BULK) + stiffness(glued, LAYER)
    full = assemble_stiffness(glued)
    assert np.abs(K - full).max() <= 1e-14 * np.abs(full).max()
    assert stiffness(glued) is stiffness(glued)
    with pytest.raises(ValueError):
        stiffness(glued).data[0] = 0.0  # the shared matrix is read-only


def test_region_stiffness_holds_only_its_triangles(lshape_all_insulated):
    _, _, glued = lshape_glued(lshape_all_insulated)
    for region in (BULK, LAYER):
        tris = glued.tris[glued.region == region]
        pairs = {(a, b) for t in tris for a in t for b in t}
        K = stiffness(glued, region)
        coo = K.tocoo()
        stored = set(zip(coo.row.tolist(), coo.col.tolist()))
        assert stored <= pairs
        # every pair but the exact zeros of right angles
        assert {(a, a) for t in tris for a in t} <= stored
        assert np.all(K.data != 0)


@pytest.mark.parametrize("vertices,h,nnz,zeros",
                         [(SQUARE, 1 / 32, 7361, 2048),
                          (LSHAPE, 1 / 64, 57921, 12224)],
                         ids=["square_h32", "lshape_h64"])
def test_stiffness_stores_no_zeros(vertices, h, nnz, zeros, monkeypatch):
    # right-angled cells assemble cot 90 deg = 0 entries
    mesh = triangulate_bulk(
        PolygonalDomain(vertices, ["insulated"] * len(vertices)), h)
    K = stiffness(mesh)
    assert np.count_nonzero(K.data == 0) == 0
    monkeypatch.setattr(sp.csr_matrix, "eliminate_zeros", lambda self: None)
    unpruned = assemble_stiffness(mesh)
    assert unpruned.nnz == nnz
    assert np.count_nonzero(unpruned.data == 0) == zeros == nnz - K.nnz
    u = np.random.default_rng(0).standard_normal(len(mesh.nodes))
    assert (K @ u).tobytes() == (unpruned @ u).tobytes()


def test_meshes_start_with_an_empty_stiffness_store(lshape_all_insulated):
    _, _, glued = lshape_glued(lshape_all_insulated)
    bulk = triangulate_bulk(lshape_all_insulated, 0.25)
    assert bulk.stiffness_cache == {} and glued.stiffness_cache == {}
