from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from insulopt import fem
from insulopt.convergence import gamma_sweep
from insulopt.errors import (
    NoConvergence,
    NonpositiveWeight,
    SchemaError,
    UnknownLabel,
)
from insulopt.fem import (
    ProblemData,
    apply_dirichlet,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_neumann,
    assemble_stiffness,
    boundary_l1,
    dirichlet_nodes,
    mass,
    solve_spd,
    stiffness,
)
from insulopt.geometry import (
    FacetLabel,
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
)
from insulopt.layer_solver import solve_eps
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
        areas=np.array([0.5]),
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


@pytest.mark.parametrize("vertices,h", [(SQUARE, 1 / 16), (LSHAPE, 1 / 16),
                                        (NOTCHED, 0.25)],
                         ids=["square", "lshape", "notched"])
def test_load_matches_corner_by_corner_reference(vertices, h):
    domain = PolygonalDomain(vertices, ["insulated"] * len(vertices))
    mesh = triangulate_bulk(domain, h)
    rng = np.random.default_rng(3)
    for f in (1.3, rng.uniform(-1.0, 2.0, mesh.n_bulk_tris)):
        contrib = np.broadcast_to(f, mesh.n_bulk_tris) * mesh.areas / 3.0
        reference = np.zeros(len(mesh.nodes))
        for i in range(3):
            np.add.at(reference, mesh.tris[:, i], contrib)
        assert np.array_equal(assemble_load(mesh, f), reference)


@pytest.mark.parametrize("zeros", [False, True])
def test_glued_load_is_the_bulk_load_padded_with_zeros(lshape_all_insulated,
                                                       zeros):
    field = build_transversal_field(lshape_all_insulated, "bisector")
    mesh = triangulate_bulk(lshape_all_insulated, 1 / 8)
    comp = lshape_all_insulated.insulated_components[0]
    coords = np.array([comp.facet_offsets[f] for f in comp.facets])
    # zero at both ends of facet 2 collapses the fibers over it
    values = np.where(np.isin(comp.facets, [2, 3]) & zeros, 0.0, 1.0)
    dist = InsulationDistribution(field, [coords], [values])
    glued = extrude_layer(mesh, field, dist, eps=0.05, n_t=2)
    fibers = glued.extrusion.fibers
    assert np.any(fibers[:, 0] == fibers[:, -1]) == zeros
    assert np.array_equal(glued.areas[:mesh.n_bulk_tris], mesh.areas)
    rng = np.random.default_rng(5)
    f_bulk = rng.uniform(0.5, 1.5, mesh.n_bulk_tris)
    f_glued = np.concatenate([f_bulk, rng.uniform(
        0.5, 1.5, len(glued.tris) - mesh.n_bulk_tris)])
    for f, f_on_glued in ((1.0, 1.0), (f_bulk, f_bulk), (f_bulk, f_glued)):
        padded = np.zeros(len(glued.nodes))
        padded[:mesh.n_bulk_nodes] = assemble_load(mesh, f)
        assert np.array_equal(assemble_load(glued, f_on_glued), padded)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key,form", [("f", "scalar"), ("f", "triangle"),
                                      ("g", "scalar"), ("g", "facet"),
                                      ("u_D", "scalar"), ("u_D", "facet")])
def test_nonfinite_problem_data_fails_before_any_solve(key, form, value):
    # pseudo-1D square: facets 0 and 2 Neumann, 1 insulated, 3 Dirichlet
    domain, field, mesh, data = pseudo1d_setup(h=0.25)
    if form == "triangle":
        spec = np.ones(mesh.n_bulk_tris)
        spec[3] = value
    elif form == "facet":
        spec = {3: value} if key == "u_D" else {0: 0.0, 2: value}
    else:
        spec = value
    data = replace(data, **{key: spec})
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=2)
    for solve in (lambda: solve_limit(mesh, field, dist, data),
                  lambda: solve_eps(glued, 0.1, data),
                  lambda: solve_reduced(mesh, 1.0, data, method="proxgrad"),
                  lambda: solve_reduced(mesh, 1.0, data,
                                        method="alternating")):
        with pytest.raises(SchemaError, match=f"data.{key}: must be finite"):
            solve()


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
    A_FF, b_F = apply_dirichlet(K, b, np.array([True, False, False]),
                                np.zeros(3))
    assert np.allclose(b_F, b[[1, 2]], atol=0)
    assert np.array_equal(A_FF.toarray(), K.toarray()[1:, 1:])


def test_dirichlet_elimination_without_fixed_nodes_keeps_the_system():
    mesh = unit_right_triangle_mesh()
    K = assemble_stiffness(mesh, 1.0)
    b = np.array([1.0, 2.0, 3.0])
    A_FF, b_F = apply_dirichlet(K, b, np.zeros(3, dtype=bool), np.zeros(3))
    assert A_FF is K and b_F is b


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
    dirichlet, d_lift = dirichlet_nodes(mesh, data)
    assert set(d_lift[dirichlet]) == {0.7}
    assert not d_lift[~dirichlet].any()
    dirichlet = np.flatnonzero(dirichlet)
    top = np.unique(glued.marker_edges(LAYER_TOP))
    corner = int(np.flatnonzero(np.all(mesh.nodes == (1.0, 0.0), axis=1))[0])
    assert corner in dirichlet and corner in top
    interior = int(np.flatnonzero(np.all(mesh.nodes == (0.5, 0.5), axis=1))[0])
    fixed, lift = dirichlet_nodes(glued, data,
                                  zero_nodes=np.array([corner, interior]))
    assert np.array_equal(np.flatnonzero(fixed),
                          np.union1d(np.union1d(top, dirichlet), [interior]))
    expected = np.zeros(len(glued.nodes))
    expected[dirichlet] = 0.7
    assert np.array_equal(lift, expected)
    assert lift[corner] == 0.7
    fixed, lift = dirichlet_nodes(glued, data, zero_nodes=[])
    assert np.array_equal(np.flatnonzero(fixed), np.union1d(top, dirichlet))
    assert np.array_equal(lift, expected)


def per_edge_fixed_values(mesh, data, zero_nodes):
    """The fixed node -> value map by a plain loop: the zeros of
    ``zero_nodes`` and the outer layer boundary first, then the Dirichlet
    edges in mesh order, so the later edge wins at a corner."""
    values = {int(nd): 0.0 for nd in zero_nodes}
    labels = [f.label for f in mesh.domain.facets]
    for (a, b), fid in zip(mesh.boundary_edges.tolist(),
                           mesh.boundary_facet.tolist()):
        if fid == LAYER_TOP:
            values.setdefault(a, 0.0)
            values.setdefault(b, 0.0)
    for (a, b), fid in zip(mesh.boundary_edges.tolist(),
                           mesh.boundary_facet.tolist()):
        if fid >= 0 and labels[fid] is FacetLabel.DIRICHLET:
            values[a] = values[b] = data.u_D[fid]
    return values


@settings(max_examples=30, deadline=None)
@given(vertices=st.sampled_from([SQUARE, LSHAPE]), glued=st.booleans(),
       frac=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_fixed_set_matches_a_per_edge_loop_and_holds_in_the_solve(
        vertices, glued, frac, seed, data):
    n = len(vertices)
    labels = data.draw(
        st.lists(st.sampled_from(["insulated", "neumann", "dirichlet"]),
                 min_size=n, max_size=n).filter(lambda ls: "insulated" in ls))
    domain = PolygonalDomain(vertices, labels)
    field = build_transversal_field(domain, "bisector")
    mesh = triangulate_bulk(domain, 1 / 16)
    rng = np.random.default_rng(seed)
    if glued:
        dist = InsulationDistribution.from_arc_samples(
            field, np.arange(8) * domain.perimeter / 8,
            rng.uniform(0.5, 1.5, 8))
        mesh = extrude_layer(mesh, field, dist, eps=1 / 16, n_t=2)
    pdata = ProblemData(u_D={i: float(rng.uniform(-1.0, 2.0))
                             for i in domain.facet_ids(FacetLabel.DIRICHLET)})
    n_nodes = len(mesh.nodes)
    # unsorted, with repeats
    zero_nodes = rng.choice(n_nodes, size=int(frac * n_nodes))
    fixed, lift = dirichlet_nodes(mesh, pdata, zero_nodes=zero_nodes)
    values = per_edge_fixed_values(mesh, pdata, zero_nodes)
    assert fixed.dtype == bool and fixed.shape == lift.shape == (n_nodes,)
    assert sorted(np.flatnonzero(fixed).tolist()) == sorted(values)
    expected = np.zeros(n_nodes)
    expected[list(values)] = list(values.values())
    assert np.array_equal(lift, expected)

    A = (stiffness(mesh) + fem.assemble_mass(mesh)).tocsr()
    b = rng.uniform(-1.0, 1.0, n_nodes)
    tol = 1e-10
    u = fem.solve_constrained(mesh, A, b, fixed, lift, fem.SolveWorkspace(),
                              tol=tol)
    assert np.array_equal(u[fixed], lift[fixed])
    free = ~fixed
    b_F = (b - A @ lift)[free]
    assert (np.linalg.norm((b - A @ u)[free])
            <= tol * np.linalg.norm(b_F))


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
    A_FF, b_F = apply_dirichlet(A, b, *dirichlet_nodes(mesh, data))
    x = solve_spd(A_FF, b_F, tol=1e-11)
    res = np.linalg.norm(A_FF @ x - b_F)
    assert res <= 1e-11 * np.linalg.norm(b_F)


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
        lshape_all_insulated, stiffness_calls, n_eps, monkeypatch):
    field = build_transversal_field(lshape_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    eps_list = [0.1 / 2**i for i in range(n_eps)]
    masses = []
    original = fem.assemble_mass

    def counting(mesh, *args, **kwargs):
        masses.append(mesh)
        return original(mesh, *args, **kwargs)

    monkeypatch.setattr(fem, "assemble_mass", counting)
    gamma_sweep(lshape_all_insulated, field, dist, ProblemData(f=1.0),
                eps_list, h=0.25, n_t=2)
    # the bulk mesh once, then the layer of every glued mesh; the glued
    # bulk operators are the bulk mesh's
    assert len(stiffness_calls) == 1 + n_eps
    assert len(masses) == 1 + n_eps
    assert masses[0].extrusion is None
    assert all(m.extrusion is not None for m in masses[1:])


def test_glued_bulk_operators_are_the_bulk_meshs(lshape_all_insulated):
    field, dist, glued = lshape_glued(lshape_all_insulated)
    bulk = glued.bulk
    assert bulk.extrusion is None and len(bulk.nodes) == glued.n_bulk_nodes
    for operator, assemble in ((stiffness, assemble_stiffness),
                               (mass, assemble_mass)):
        A, own = operator(glued, BULK), operator(bulk)
        ref = assemble(glued, region=BULK)
        assert A.shape == ref.shape == (len(glued.nodes),) * 2
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
        assert np.shares_memory(A.data, own.data)
        assert np.shares_memory(A.indices, own.indices)
        assert operator(glued, BULK) is A
        with pytest.raises(ValueError):
            A.indptr[-1] = 0  # the padded matrix is read-only too
    # the layer operators are the glued mesh's own
    assert not np.shares_memory(stiffness(glued, LAYER).data,
                                stiffness(bulk).data)


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
    assert bulk.operator_cache == {} and glued.operator_cache == {}
