from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insulopt.errors import DegenerateFiber, NonInjectiveLayer
from insulopt.geometry import (
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
    layer_area,
)
from insulopt.meshing import (
    BULK,
    LAYER,
    LAYER_SIDE,
    LAYER_TOP,
    extrude_layer,
    insulated_chain,
    triangulate_bulk,
)

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
    assert np.all(mesh.signed_areas() > 0)
    edges = edge_multiset(mesh)
    V, E, F = len(mesh.nodes), len(edges), len(mesh.tris)
    assert V - E + F == 1  # triangulated disk
    # conforming: interior edges twice, boundary edges once
    boundary = {tuple(sorted(e)) for e in map(tuple, mesh.boundary_edges)}
    for e, count in edges.items():
        assert count == (1 if e in boundary else 2)


def test_boundary_nodes_exactly_on_facets(lshape_all_insulated):
    mesh = triangulate_bulk(lshape_all_insulated, 0.2)
    for node, params in mesh.node_facet_param.items():
        for fid, lam in params.items():
            expected = lshape_all_insulated.facet_point(fid, lam)
            assert np.allclose(mesh.nodes[node], expected, atol=1e-15)


def test_mesh_area_matches_polygon(lshape_all_insulated):
    mesh = triangulate_bulk(lshape_all_insulated, 0.17)
    assert mesh.signed_areas().sum() == pytest.approx(
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


# -- extrusion -------------------------------------------------------------------

def test_extrude_rectangle_layer():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 0.25)
    dist = InsulationDistribution.constant(field, 1.0)
    glued = extrude_layer(mesh, field, dist, eps=0.1, n_t=2)
    layer_tris = glued.region == LAYER
    areas = glued.signed_areas()
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
    assert np.all(glued.signed_areas() > 0)
    # every insulated-interface node touches both regions
    for node in np.unique(glued.interface_edges):
        touching = set(glued.region[np.any(glued.tris == node, axis=1)])
        assert touching == {BULK, LAYER}

    ext = glued.extrusion
    fibers = ext.fibers
    assert np.array_equal(ext.layer_base[fibers],
                          np.broadcast_to(fibers[:, :1], fibers.shape))
    assert np.all(np.diff(ext.layer_t[fibers], axis=1) > 0)
    # reference: x_j + ((eps d_j) l / n_t) k_j, one fiber node at a time
    chain = insulated_chain(mesh)
    for ci, cc in enumerate(chain.components):
        d = dist.value_at(ci, cc.coords)
        for j, node in enumerate(cc.nodes):
            k = field.k_at(cc.node_facet[j], cc.node_lam[j])[0]
            row = ext.fiber_nodes[ci][j]
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
    have = ext.layer_base >= 0
    assert np.nanmax(ext.layer_t[have]) <= eps * dist.max_value() + 1e-15
    assert np.nanmin(ext.layer_t[have]) >= 0.0


def test_layer_area_consistency_order(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    eps = 0.1
    exact = layer_area(field, dist, eps)
    errs = []
    for h, n_t in [(0.25, 2), (0.125, 4), (0.0625, 8)]:
        mesh = triangulate_bulk(square_all_insulated, h)
        glued = extrude_layer(mesh, field, dist, eps, n_t)
        approx = glued.signed_areas()[glued.region == LAYER].sum()
        errs.append(abs(approx - exact))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8


def test_zero_node_raises_degenerate_fiber():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    mesh = triangulate_bulk(domain, 0.25)
    comp = field.domain.insulated_components[0]
    coords = np.array([0.0, 0.5, 1.0])
    dist = InsulationDistribution(field, [coords], [np.array([1.0, 0.0, 1.0])])
    with pytest.raises(DegenerateFiber):
        extrude_layer(mesh, field, dist, eps=0.1, n_t=2)


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
    assert np.all(glued.signed_areas() > 0)


def test_rectilinear_bisector_layers_never_invert(lshape_all_insulated):
    # on axis-aligned polygons all bisector fibers are diagonal and
    # piecewise parallel, so even huge eps stays injective
    field = build_transversal_field(lshape_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    mesh = triangulate_bulk(lshape_all_insulated, 0.25)
    glued = extrude_layer(mesh, field, dist, eps=2.0, n_t=2)
    assert np.all(glued.signed_areas() > 0)


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
    assert np.all(glued.signed_areas() > 0)
    # two strips of area eps*d each
    layer_area_sum = glued.signed_areas()[glued.region == LAYER].sum()
    assert layer_area_sum == pytest.approx(2 * 0.1 * 0.5, rel=1e-12)
    assert len(glued.marker_edges(LAYER_SIDE)) == 2 * 2 * 2  # 2 strips x 2 ends
