from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insulopt import meshing
from insulopt.convergence import gamma_sweep, recovery_sequence
from insulopt.errors import NonInjectiveLayer
from insulopt.fem import (
    ProblemData,
    apply_dirichlet,
    assemble_load,
    assemble_neumann,
    dirichlet_nodes,
    solve_spd,
    stiffness,
)
from insulopt.geometry import (
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
    layer_area,
)
from insulopt.layer_solver import solve_eps
from insulopt.meshing import (
    BULK,
    LAYER,
    LAYER_SIDE,
    LAYER_TOP,
    extrude_layer,
    insulated_chain,
    triangulate_bulk,
)
from insulopt.reduced_solver import solve_reduced
from insulopt.thickness import reconstruct_distribution

from conftest import LSHAPE, NOTCHED, SQUARE, pseudo1d_domain


def edge_multiset(mesh):
    edges = Counter()
    for a, b, c in mesh.tris:
        for u, v in ((a, b), (b, c), (c, a)):
            edges[(min(u, v), max(u, v))] += 1
    return edges


def test_square_h_half_structured(square_all_insulated):
    mesh = triangulate_bulk(square_all_insulated, 0.5)
    assert len(mesh.tris) == 8
    assert len(mesh.nodes) == 9
    assert mesh.edge_lengths().max() <= 1.5 * 0.5 + 1e-15


def test_uniform_refinement_quadruples(square_all_insulated):
    coarse = triangulate_bulk(square_all_insulated, 0.5)
    fine = triangulate_bulk(square_all_insulated, 0.25)
    assert len(fine.tris) == 4 * len(coarse.tris)


def test_lshape_orientation_and_euler(lshape_all_insulated):
    mesh = triangulate_bulk(lshape_all_insulated, 0.25)
    assert np.all(mesh.areas > 0)
    edges = edge_multiset(mesh)
    V, E, F = len(mesh.nodes), len(edges), len(mesh.tris)
    assert V - E + F == 1  # triangulated disk
    # conforming: interior edges twice, boundary edges once
    boundary = {tuple(sorted(e)) for e in map(tuple, mesh.boundary_edges)}
    for e, count in edges.items():
        assert count == (1 if e in boundary else 2)


def test_boundary_nodes_exactly_on_facets(lshape_all_insulated):
    mesh = triangulate_bulk(lshape_all_insulated, 0.2)
    for edge, fid, lams in zip(mesh.boundary_edges, mesh.boundary_facet,
                               mesh.boundary_lam):
        for node, lam in zip(edge, lams):
            expected = lshape_all_insulated.facet_point(fid, lam)
            assert np.allclose(mesh.nodes[node], expected, atol=1e-15)


def _dict_refine(nodes, tris, bedges, facet_lam, domain):
    """Reference red refinement: a per-triangle loop with a midpoint dict
    and a node -> facet -> lam dict of dicts."""
    nodes = list(map(tuple, nodes))
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            pa, pb = nodes[a], nodes[b]
            nodes.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
            midpoint[key] = len(nodes) - 1
        return midpoint[key]

    new_tris = []
    for a, b, c in tris:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        new_tris += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]

    new_bedges = []
    for a, b, fid in bedges:
        m = mid(a, b)
        lm = 0.5 * (facet_lam[a][fid] + facet_lam[b][fid])
        facet_lam.setdefault(m, {})[fid] = lm
        nodes[m] = tuple(domain.facet_point(fid, lm))
        new_bedges += [(a, m, fid), (m, b, fid)]
    parents = np.array(list(midpoint), dtype=np.int32).reshape(-1, 2)
    return np.array(nodes), new_tris, new_bedges, parents


REFINE_CASES = {
    "lshape": (LSHAPE, ["insulated"] * 6, 1 / 8),
    "notched": (NOTCHED, ["insulated"] * 6, 0.5),
    "lshape_mixed": (LSHAPE, ["insulated", "insulated", "dirichlet",
                              "neumann", "insulated", "neumann"], 1 / 8),
    "pseudo1d": (SQUARE, ["neumann", "insulated", "neumann", "dirichlet"],
                 1 / 8),
}


@pytest.mark.parametrize("case", sorted(REFINE_CASES))
def test_refinement_matches_dict_reference(case):
    vertices, labels, h = REFINE_CASES[case]
    domain = PolygonalDomain(vertices, labels)
    mesh = triangulate_bulk(domain, h)

    n = len(domain.vertices)
    nodes, tris = domain.vertices.copy(), meshing.ear_clip(domain.vertices)
    bedges = [(i, (i + 1) % n, i) for i in range(n)]
    param = {}
    for i in range(n):
        param.setdefault(i, {})[i] = 0.0
        param.setdefault((i + 1) % n, {})[i] = 1.0
    hierarchy = []
    while meshing._edge_lengths(nodes, np.asarray(tris)).max() > 1.5 * h:
        nodes, tris, bedges, parents = _dict_refine(nodes, tris, bedges,
                                                    param, domain)
        hierarchy.append(parents)
    assert len(hierarchy) >= 2

    expected = {
        "nodes": np.asarray(nodes, dtype=float),
        "tris": np.asarray(tris, dtype=int),
        "boundary_edges": np.array([(a, b) for a, b, _ in bedges], dtype=int),
        "boundary_facet": np.array([f for _, _, f in bedges], dtype=int),
        "boundary_lam": np.array([(param[a][f], param[b][f])
                                  for a, b, f in bedges]),
    }
    for name, want in expected.items():
        got = getattr(mesh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert len(mesh.hierarchy) == len(hierarchy)
    for got, want in zip(mesh.hierarchy, hierarchy):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def star_polygons(draw):
    """Simple CCW polygons, star-shaped about the origin: vertices at
    increasing angles (every gap below pi) and radii in [0.5, 1], with
    random facet labels of which at least one is insulated."""
    n = draw(st.integers(3, 7))
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.8), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=n,
                                   max_size=n)))
    angles = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    labels = draw(st.lists(st.sampled_from(["insulated", "neumann",
                                            "dirichlet"]),
                           min_size=n, max_size=n))
    labels[draw(st.integers(0, n - 1))] = "insulated"
    vertices = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return PolygonalDomain(vertices, labels)


@settings(max_examples=100, deadline=None)
@given(domain=star_polygons())
def test_random_polygon_boundary_parameters(domain):
    mesh = triangulate_bulk(domain, 0.2)
    assert np.all(mesh.areas > 0)
    for fid, facet in enumerate(domain.facets):
        rows = np.flatnonzero(mesh.boundary_facet == fid)
        assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
        lam = mesh.boundary_lam[rows]
        assert lam[0, 0] == 0.0 and lam[-1, 1] == 1.0
        assert np.all(lam[:, 0] < lam[:, 1])
        assert np.array_equal(lam[1:, 0], lam[:-1, 1])
        # every node is facet_point(fid, lam) bit for bit; the end vertex
        # (lam = 1) is the polygon vertex itself, which a + (b - a) need not
        # reproduce in floating point
        ends = mesh.boundary_edges[rows]
        inner = lam < 1.0
        assert np.array_equal(mesh.nodes[ends[inner]],
                              domain.facet_point(fid, lam[inner]))
        assert np.array_equal(mesh.nodes[ends[-1, 1]],
                              domain.vertices[facet.end])
    chain = insulated_chain(mesh)
    assert chain.weights.sum() == pytest.approx(domain.insulated_length(),
                                                rel=1e-13, abs=0.0)


def test_mesh_area_matches_polygon(lshape_all_insulated):
    mesh = triangulate_bulk(lshape_all_insulated, 0.17)
    assert mesh.areas.sum() == pytest.approx(
        lshape_all_insulated.area, rel=1e-13)


# -- chains ----------------------------------------------------------------------

def test_chain_weights_sum_to_insulated_length():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 0.1)
    chain = insulated_chain(mesh, field)
    assert chain.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(chain.weights > 0)


def test_chain_cyclic_covers_perimeter(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    mesh = triangulate_bulk(square_all_insulated, 0.25)
    chain = insulated_chain(mesh, field)
    assert len(chain.components) == 1
    assert chain.components[0].cyclic
    assert chain.weights.sum() == pytest.approx(4.0, rel=1e-14)
    # one chain entry per boundary node
    boundary_nodes = {n for e in mesh.boundary_edges for n in e}
    assert set(chain.nodes.tolist()) == boundary_nodes


def test_chain_is_built_once_per_mesh(lshape_all_insulated, monkeypatch):
    built = []
    original = meshing._build_chain
    monkeypatch.setattr(meshing, "_build_chain",
                        lambda mesh: built.append(mesh) or original(mesh))
    field = build_transversal_field(lshape_all_insulated, "bisector")
    mesh = triangulate_bulk(lshape_all_insulated, 1 / 16)
    plain, with_kn = insulated_chain(mesh), insulated_chain(mesh, field)
    assert insulated_chain(mesh) is plain and built == [mesh]
    assert np.array_equal(with_kn.nodes, plain.nodes)
    assert np.all(np.isnan(plain.kn))
    with pytest.raises(ValueError):
        plain.weights[0] = 0.0  # the shared chain is read-only
    # k.n of the whole chain equals k.n node by node, bit for bit: it is
    # evaluated elementwise, not by a BLAS kernel that depends on the count
    per_node = [float(field.k_dot_n(f, lam)[0]) for cc in with_kn.components
                for f, lam in zip(cc.node_facet, cc.node_lam)]
    assert np.array_equal(with_kn.kn, per_node)
    notched = PolygonalDomain(NOTCHED, ["insulated"] * 6)
    oblique = build_transversal_field(notched, "bisector")
    chain = insulated_chain(triangulate_bulk(notched, 0.5), oblique)
    per_node = [float(oblique.k_dot_n(f, lam)[0]) for cc in chain.components
                for f, lam in zip(cc.node_facet, cc.node_lam)]
    assert np.array_equal(chain.kn, per_node)
    # a sweep builds each mesh's chain at most once
    built.clear()
    dist = InsulationDistribution.constant(field, 1.0)
    gamma_sweep(lshape_all_insulated, field, dist, ProblemData(f=1.0),
                [0.1, 0.05], h=0.25, n_t=2)
    assert built and len({id(m) for m in built}) == len(built)


# -- extrusion -------------------------------------------------------------------

def test_extrude_rectangle_layer():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=2)
    layer_tris = glued.region == LAYER
    areas = glued.areas
    assert areas[layer_tris].sum() == pytest.approx(0.1, rel=1e-12)
    assert np.all(areas > 0)
    # layer nodes fill the rectangle [1, 1.1] x [0, 1]
    lay_nodes = glued.nodes[mesh.n_bulk_nodes:]
    assert lay_nodes[:, 0].min() >= 1.0 - 1e-15
    assert lay_nodes[:, 0].max() == pytest.approx(1.1, abs=1e-15)
    # outermost edges marked as the zero-trace set, sides natural
    top = glued.marker_edges(LAYER_TOP)
    assert np.allclose(glued.nodes[np.unique(top)][:, 0], 1.1, atol=1e-15)
    assert len(glued.marker_edges(LAYER_SIDE)) == 2 * 2  # two ends, n_t segments


def test_extrusion_preserves_bulk_prefix(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    mesh = triangulate_bulk(square_all_insulated, 0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=3)
    assert np.array_equal(glued.nodes[: len(mesh.nodes)], mesh.nodes)
    assert np.array_equal(glued.tris[: len(mesh.tris)], mesh.tris)
    assert glued.n_bulk_nodes == len(mesh.nodes)


def _two_component_domain():
    # bottom and top insulated, right Neumann, left Dirichlet
    return PolygonalDomain([(0, 0), (1, 0), (1, 1), (0, 1)],
                           ["insulated", "neumann", "insulated", "dirichlet"])


GLUED_CASES = {
    "square": (lambda: PolygonalDomain(SQUARE, ["insulated"] * 4), "bisector"),
    "lshape": (lambda: PolygonalDomain(LSHAPE, ["insulated"] * 6), "bisector"),
    "pseudo1d": (pseudo1d_domain, "facet_normal"),
    "two_components": (_two_component_domain, "facet_normal"),
}


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(GLUED_CASES)),
       n_t=st.integers(1, 5),
       knots=st.lists(st.floats(0.3, 1.5), min_size=2, max_size=6),
       eps=st.floats(0.005, 0.05))
def test_glued_mesh_conforming(case, n_t, knots, eps):
    make_domain, mode = GLUED_CASES[case]
    domain = make_domain()
    field = build_transversal_field(domain, mode)
    coords = [np.linspace(0.0, comp.length, len(knots),
                          endpoint=not comp.cyclic)
              for comp in domain.insulated_components]
    dist = InsulationDistribution(field, coords,
                                  [np.array(knots)] * len(coords))
    mesh = triangulate_bulk(domain, 0.25)
    glued = extrude_layer(mesh, field, dist, eps, n_t)

    edges = edge_multiset(glued)
    boundary = {tuple(sorted(e)) for e in map(tuple, glued.boundary_edges)}
    for e, count in edges.items():
        assert count == (1 if e in boundary else 2)
    assert np.all(glued.areas > 0)
    ext = glued.extrusion
    fibers = ext.fibers
    # every insulated-interface node touches both regions
    for node in np.unique(fibers[:, 0]):
        touching = set(glued.region[np.any(glued.tris == node, axis=1)])
        assert touching == {BULK, LAYER}
    assert np.all(np.diff(ext.layer_t[fibers], axis=1) > 0)
    # reference: x_j + ((eps d_j) l / n_t) k_j, one fiber node at a time
    chain = insulated_chain(mesh)
    rows = iter(ext.fibers)
    for ci, cc in enumerate(chain.components):
        d = dist.value_at(ci, cc.coords)
        for j, node in enumerate(cc.nodes):
            k = field.k_at(cc.node_facet[j], cc.node_lam[j])[0]
            row = next(rows)
            assert row[0] == node
            for lev in range(1, n_t + 1):
                expected = mesh.nodes[node] + eps * d[j] * lev / n_t * k
                assert np.array_equal(glued.nodes[row[lev]], expected)
    segments = sum(len(cc.nodes) - (not cc.cyclic) for cc in chain.components)
    open_ends = sum(not cc.cyclic for cc in chain.components)
    assert len(glued.marker_edges(LAYER_TOP)) == segments
    assert len(glued.marker_edges(LAYER_SIDE)) == 2 * n_t * open_ends


def test_fiber_coordinates_bounds(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    mesh = triangulate_bulk(square_all_insulated, 0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    eps = 0.07
    glued = extrude_layer(mesh, field, dist, eps, n_t=4)
    ext = glued.extrusion
    t = ext.layer_t[ext.fibers]
    assert t.max() <= eps * dist.max_value() + 1e-15
    assert t.min() >= 0.0


def test_layer_area_consistency_order(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    eps = 0.1
    exact = layer_area(field, dist, eps)
    errs = []
    for h, n_t in [(0.25, 2), (0.125, 4), (0.0625, 8)]:
        mesh = triangulate_bulk(square_all_insulated, h)
        glued = extrude_layer(mesh, field, dist, eps, n_t)
        approx = glued.areas[glued.region == LAYER].sum()
        errs.append(abs(approx - exact))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8


def check_collapsed_layer(glued, eps, data):
    """Checks of a glued mesh whose thickness vanishes at some chain nodes;
    returns the collapsed bases and the solve_eps field and report."""
    fibers = glued.extrusion.fibers
    collapsed = fibers[:, -1] == fibers[:, 0]
    base = fibers[collapsed, 0]
    assert len(base) and np.all(fibers[collapsed].T == base)
    n_live = len(fibers) - len(base)
    assert len(glued.nodes) == glued.n_bulk_nodes + n_live * (fibers.shape[1] - 1)
    assert np.all(glued.areas > 0)
    assert np.all(np.diff(np.sort(glued.tris, axis=1), axis=1) != 0)
    # conforming: boundary edges bound one triangle, the others two
    edges = edge_multiset(glued)
    boundary = {tuple(sorted(e)) for e in map(tuple, glued.boundary_edges)}
    assert len(boundary) == len(glued.boundary_edges)
    for e, count in edges.items():
        assert count == (1 if e in boundary else 2)
    # every collapsed base is on the outer layer boundary, so it is fixed
    assert np.all(np.isin(base, glued.marker_edges(LAYER_TOP)))
    fixed, lift = dirichlet_nodes(glued, data)
    assert fixed[base].all()
    u, rep = solve_eps(glued, eps, data)
    A = stiffness(glued, BULK) + eps * stiffness(glued, LAYER)
    b = assemble_load(glued, data.f) + assemble_neumann(glued, data)
    reference = lift.copy()  # Jacobi-preconditioned CG
    reference[~fixed] = solve_spd(*apply_dirichlet(A, b, fixed, lift),
                                  tol=1e-12)
    assert np.abs(u - reference).max() <= 1e-12
    assert np.array_equal(u[base], lift[base])
    assert rep.diagnostics["zero_trace_violation"] == 0.0
    return base, u, rep


def test_zero_node_collapses_its_fiber():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 0.25)
    coords = np.array([0.0, 0.5, 1.0])
    dist = InsulationDistribution(field, [coords], [np.array([1.0, 0.0, 1.0])])
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=2)
    base, u, _ = check_collapsed_layer(glued, 0.1,
                                       ProblemData(f=1.0, u_D=1.0))
    # the one zero is the midpoint of the insulated facet x = 1
    assert np.array_equal(glued.nodes[base], [[1.0, 0.5]])
    assert u[base] == 0.0
    # each quad next to the collapsed fiber keeps one triangle per level
    assert np.count_nonzero(glued.region == LAYER) == 4 * 2 * 2 - 2 * 2
    v = recovery_sequence(u[:mesh.n_bulk_nodes], glued)
    assert v[base] == 0.0


def test_zero_facet_next_to_nonzero_facets_collapses(lshape_all_insulated):
    field = build_transversal_field(lshape_all_insulated, "bisector")
    mesh = triangulate_bulk(lshape_all_insulated, 1 / 8)
    comp = lshape_all_insulated.insulated_components[0]
    # nodes at the facet starts: zero at both ends of facet 2 only
    coords = np.array([comp.facet_offsets[f] for f in comp.facets])
    values = np.where(np.isin(comp.facets, [2, 3]), 0.0, 1.0)
    dist = InsulationDistribution(field, [coords], [values])
    glued = extrude_layer(mesh, field, dist, eps=0.05, n_t=2)
    base, _, _ = check_collapsed_layer(glued, 0.05, ProblemData(f=1.0))
    # facet 2 collapses onto itself: its nodes are the collapsed bases, and
    # its edges are top edges
    facet2 = mesh.boundary_edges[mesh.boundary_facet == 2]
    assert np.array_equal(np.sort(base), np.unique(facet2))
    top = glued.marker_edges(LAYER_TOP)
    assert np.count_nonzero(np.all(np.isin(top, base), axis=1)) == len(facet2)


@pytest.mark.filterwarnings("ignore::insulopt.errors.NonUniqueWarning")
@pytest.mark.parametrize("dirichlet,m,zeros", [(False, 0.5, 9), (True, 1.0, 3)])
def test_optimal_designs_with_zeros_extrude_and_solve(dirichlet, m, zeros):
    # the reduced problem's optimal thickness on the L-shape (f = 1), all
    # insulated or with facet 2 Dirichlet, vanishes at some chain nodes
    labels = ["insulated"] * 6
    if dirichlet:
        labels[2] = "dirichlet"
    domain = PolygonalDomain(LSHAPE, labels)
    field = build_transversal_field(domain, "bisector")
    data = ProblemData(f=1.0)
    h = 1 / 32
    mesh = triangulate_bulk(domain, h)
    u, _ = solve_reduced(mesh, m, data, method="proxgrad")
    dist = reconstruct_distribution(mesh, u, m, field)
    assert np.count_nonzero(insulated_chain(mesh).thickness(dist) == 0) == zeros
    for eps in (8 * h, h):
        glued = extrude_layer(mesh, field, dist, eps, n_t=4)
        base, _, rep = check_collapsed_layer(glued, eps, data)
        assert len(base) == zeros
        assert rep.diagnostics["pcg_iterations"] <= 28


def test_extrusion_computes_only_the_layer_areas(lshape_all_insulated,
                                                monkeypatch):
    field = build_transversal_field(lshape_all_insulated, "bisector")
    mesh = triangulate_bulk(lshape_all_insulated, 1 / 8)
    dist = InsulationDistribution.constant(field, 1.0)
    original = meshing.triangle_areas
    rows = []

    def spy(nodes, tris):
        rows.append(len(tris))
        return original(nodes, tris)

    monkeypatch.setattr(meshing, "triangle_areas", spy)
    glued = extrude_layer(mesh, field, dist, eps=0.05, n_t=2)
    assert rows == [np.count_nonzero(glued.region == LAYER)]
    assert np.array_equal(glued.areas, original(glued.nodes, glued.tris))


@pytest.mark.parametrize("h", [np.nan, 0.0, -0.25])
def test_triangulate_rejects_h_that_is_not_positive(square_all_insulated, h):
    with pytest.raises(ValueError, match="h_target"):
        triangulate_bulk(square_all_insulated, h)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -0.1])
def test_extrude_rejects_eps_that_is_not_positive_and_finite(
        square_all_insulated, eps):
    field = build_transversal_field(square_all_insulated, "bisector")
    mesh = triangulate_bulk(square_all_insulated, 0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    with pytest.raises(ValueError, match="eps"):
        extrude_layer(mesh, field, dist, eps, n_t=2)


def test_whole_facet_zero_skipped_becomes_zero_trace():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 0.25)
    dist = InsulationDistribution.constant(field, 0.0)
    glued = extrude_layer(mesh, field, dist, eps=1.0, n_t=2)
    assert len(glued.tris) == len(mesh.tris)  # no layer cells
    top = glued.marker_edges(LAYER_TOP)
    assert np.allclose(glued.nodes[np.unique(top)][:, 0], 1.0, atol=0)


def test_reentrant_notch_inverts_at_large_eps():
    domain = PolygonalDomain(NOTCHED, ["insulated"] * 6)
    field = build_transversal_field(domain, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    mesh = triangulate_bulk(domain, 0.5)
    with pytest.raises(NonInjectiveLayer):
        extrude_layer(mesh, field, dist, eps=2.5, n_t=2)
    with pytest.raises(NonInjectiveLayer):
        layer_area(field, dist, 2.5)
    glued = extrude_layer(mesh, field, dist, eps=0.05, n_t=2)
    assert np.all(glued.areas > 0)


def test_rectilinear_bisector_layers_never_invert(lshape_all_insulated):
    # on axis-aligned polygons all bisector fibers are diagonal and
    # piecewise parallel, so even huge eps stays injective
    field = build_transversal_field(lshape_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    mesh = triangulate_bulk(lshape_all_insulated, 0.25)
    glued = extrude_layer(mesh, field, dist, eps=2.0, n_t=2)
    assert np.all(glued.areas > 0)


def test_two_insulated_components():
    domain = _two_component_domain()
    field = build_transversal_field(domain, "facet_normal")
    assert len(domain.insulated_components) == 2
    mesh = triangulate_bulk(domain, 0.25)
    chain = insulated_chain(mesh, field)
    assert len(chain.components) == 2
    assert chain.weights.sum() == pytest.approx(2.0, rel=1e-14)
    dist = InsulationDistribution.constant(field, 0.5)
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=2)
    assert np.all(glued.areas > 0)
    # two strips of area eps*d each
    layer_area_sum = glued.areas[glued.region == LAYER].sum()
    assert layer_area_sum == pytest.approx(2 * 0.1 * 0.5, rel=1e-12)
    assert len(glued.marker_edges(LAYER_SIDE)) == 2 * 2 * 2  # 2 strips x 2 ends
