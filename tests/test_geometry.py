import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insulopt.errors import InvalidDomain, ModeInvalid, TransversalityFailure
from insulopt.geometry import (
    FIELD_SAMPLES_PER_FACET,
    InsulationDistribution,
    PolygonalDomain,
    build_transversal_field,
    layer_area,
    layer_jacobian,
    layer_point,
    transversal_mass,
)

from conftest import NOTCHED, SQUARE, pseudo1d_domain


def star_polygon(radii):
    """Star-shaped (hence simple) CCW polygon from radial jitter."""
    n = len(radii)
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])


# -- domain validation ---------------------------------------------------------

def test_clockwise_polygon_rejected():
    with pytest.raises(InvalidDomain):
        PolygonalDomain(list(reversed(SQUARE)), ["insulated"] * 4)


def test_nonsimple_polygon_rejected():
    bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
    with pytest.raises(InvalidDomain):
        PolygonalDomain(bowtie, ["insulated"] * 4)


def test_needs_insulated_facet():
    with pytest.raises(InvalidDomain):
        PolygonalDomain(SQUARE, ["dirichlet"] * 4)


def test_outward_normals_unit(square_all_insulated):
    n = square_all_insulated.normals
    assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, atol=1e-15)
    assert np.allclose(n, [(0, -1), (1, 0), (0, 1), (-1, 0)])


# -- transversal field ---------------------------------------------------------

def test_bisector_square_corners(square_bisector):
    a = math.sqrt(2) / 2
    expected = np.array([(-a, -a), (a, -a), (a, a), (-a, a)])
    assert np.allclose(square_bisector.vertex_vectors, expected, atol=1e-15)


def test_bisector_square_facet_midpoint_is_normal(square_bisector):
    k = square_bisector.k_at(0, 0.5)[0]
    assert np.allclose(k, (0, -1), atol=1e-15)


def test_bisector_square_kappa(square_bisector):
    # dense-sampling oracle, denser than the builder's grid
    lam = np.linspace(0.0, 1.0, 1001)
    mins = [square_bisector.k_dot_n(f, lam).min() for f in range(4)]
    assert min(mins) == pytest.approx(square_bisector.kappa, abs=1e-12)
    assert square_bisector.kappa == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_facet_normal_mode_isolated_facet():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    assert field.kappa == pytest.approx(1.0, abs=1e-15)
    for lam in (0.0, 0.3, 1.0):
        assert np.allclose(field.k_at(1, lam)[0], (1, 0), atol=1e-15)


def test_facet_normal_mode_rejects_adjacent_insulated(square_all_insulated):
    with pytest.raises(ModeInvalid):
        build_transversal_field(square_all_insulated, "facet_normal")


def test_degenerate_cusp_raises():
    # near-cusp corner: interior angle ~ 0.0001 rad at the origin
    sliver = [(0, 0), (1.0, 0.0001), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]
    with pytest.raises((TransversalityFailure, InvalidDomain)):
        domain = PolygonalDomain(sliver, ["insulated"] * 5)
        build_transversal_field(domain, "bisector")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.6, 1.5), min_size=5, max_size=10))
def test_field_invariants_on_star_polygons(radii):
    domain = PolygonalDomain(star_polygon(np.array(radii)), ["insulated"] * len(radii))
    field = build_transversal_field(domain, "bisector")
    lam = np.linspace(0.0, 1.0, FIELD_SAMPLES_PER_FACET)
    for f in range(len(radii)):
        k = field.k_at(f, lam)
        assert np.abs(np.hypot(k[:, 0], k[:, 1]) - 1.0).max() <= 1e-14
        assert field.k_dot_n(f, lam).min() >= field.kappa - 1e-14


# -- layer map -----------------------------------------------------------------

def test_layer_point_straight_down():
    domain = PolygonalDomain(
        SQUARE, ["insulated", "neumann", "neumann", "neumann"])
    field = build_transversal_field(domain, "facet_normal")
    p = layer_point(field, 0.5, 0.1)
    assert np.allclose(p, (0.5, -0.1), atol=1e-15)
    assert np.allclose(layer_point(field, 0.5, 0.0), (0.5, 0.0), atol=0)


def test_layer_point_corner_bisector(square_bisector):
    p = layer_point(square_bisector, 1.0, 0.2)
    a = math.sqrt(2)
    assert np.allclose(p, (1 + 0.1 * a, -0.1 * a), atol=1e-15)


def test_layer_point_affine_in_t(square_bisector):
    for s in np.linspace(0.05, 3.95, 17):
        p0 = layer_point(square_bisector, s, 0.0)
        p1 = layer_point(square_bisector, s, 0.05)
        p2 = layer_point(square_bisector, s, 0.1)
        cross = ((p1 - p0)[0] * (p2 - p0)[1] - (p1 - p0)[1] * (p2 - p0)[0])
        assert abs(cross) <= 1e-12


def test_layer_jacobian_constant_field_is_one():
    domain = PolygonalDomain(
        SQUARE, ["insulated", "neumann", "neumann", "neumann"])
    field = build_transversal_field(domain, "facet_normal")
    for s in (0.1, 0.5, 0.9):
        for t in (0.0, 0.2, 1.0):
            assert layer_jacobian(field, s, t) == pytest.approx(1.0, abs=1e-15)


def test_layer_jacobian_t0_equals_kn(square_bisector):
    for s in np.linspace(0.01, 3.99, 29):
        fid, lam = square_bisector.domain.locate(s)
        kn = float(square_bisector.k_dot_n(fid, lam)[0])
        assert layer_jacobian(square_bisector, s, 0.0) == pytest.approx(kn, abs=1e-14)


def test_layer_jacobian_matches_finite_differences(square_bisector):
    # oracle: central difference of the fiber map in s at fixed t
    def fd_jacobian(field, s, t, delta=1e-5):
        k = field.eval_k(s)
        dp = (layer_point(field, s + delta, t) - layer_point(field, s - delta, t))
        dxds, dyds = dp / (2 * delta)
        return k[0] * dyds - k[1] * dxds

    for s, t in [(0.5, 0.1), (0.9, 0.05), (2.3, 0.2)]:
        ana = layer_jacobian(square_bisector, s, t)
        assert ana == pytest.approx(fd_jacobian(square_bisector, s, t), abs=1e-6)


# -- layer area and weighted mass ----------------------------------------------

def test_layer_area_rectangle_exact():
    domain = pseudo1d_domain()
    field = build_transversal_field(domain, "facet_normal")
    for c in (0.5, 2.0):
        dist = InsulationDistribution.constant(field, c)
        for eps in (0.1, 0.37):
            assert layer_area(field, dist, eps) == pytest.approx(eps * c, rel=1e-14)


def test_layer_area_zero_thickness(square_bisector):
    dist = InsulationDistribution.constant(square_bisector, 0.0)
    assert layer_area(square_bisector, dist, 0.1) == 0.0


def test_layer_area_over_eps_first_order(square_bisector):
    dist = InsulationDistribution.constant(square_bisector, 1.0)
    limit = transversal_mass(square_bisector, dist)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    errs = [abs(layer_area(square_bisector, dist, e) / e - limit) for e in eps_list]
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 0.9


def test_square_bisector_weighted_mass_closed_form(square_bisector):
    # per facet: integral of 1/sqrt((2lam-1)^2+1) dlam = asinh(1)
    dist = InsulationDistribution.constant(square_bisector, 1.0)
    assert transversal_mass(square_bisector, dist) == pytest.approx(
        4 * math.asinh(1.0), rel=1e-12)


def test_distribution_mass_recompute(square_bisector):
    dist = InsulationDistribution.constant(square_bisector, 1.3)
    assert dist._lumped_mass() == pytest.approx(dist.mass, rel=1e-12)


def test_distribution_floor_enforced(square_bisector):
    with pytest.raises(InvalidDomain):
        InsulationDistribution(
            square_bisector,
            [c.copy() for c in InsulationDistribution.constant(square_bisector, 1.0).component_coords],
            [np.array([1.0, 1.0, 0.1, 1.0])],
            d_min=0.5)


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_distribution_negative_rejected(square_bisector, value):
    with pytest.raises(InvalidDomain):
        InsulationDistribution.constant(square_bisector, value)


@pytest.mark.parametrize("coord", [np.nan, np.inf])
def test_distribution_nonfinite_coordinates_rejected(square_bisector, coord):
    with pytest.raises(InvalidDomain):
        InsulationDistribution(square_bisector, [np.array([0.0, 1.0, coord])],
                               [np.ones(3)])
    with pytest.raises(InvalidDomain):  # a sampled profile's arcs
        InsulationDistribution.from_arc_samples(
            square_bisector, [0.5, 1.5, coord], [1.0, 1.0, 1.0])


def test_cyclic_profile_wraps_below_the_first_node(square_bisector):
    dist = InsulationDistribution.from_arc_samples(
        square_bisector, [0.5, 1.5, 2.5, 3.5], [1.0, 2.0, 3.0, 4.0])
    # the wrap segment runs from arc 3.5 (value 4) to arc 4.5 (value 1),
    # the segment _lumped_weights gives the first and last node
    assert np.array_equal(dist.value_at(0, [0.0, 0.25, 3.75, 0.5, 1.0]),
                          [2.5, 1.75, 3.25, 1.0, 1.5])
    s = np.linspace(-4.0, 8.0, 97)
    assert np.allclose(dist.value_at(0, s), dist.value_at(0, s + 4.0),
                       rtol=0.0, atol=1e-14)


def test_field_evaluates_facet_arrays_like_single_facets():
    domain = PolygonalDomain(NOTCHED, ["insulated"] * 6)
    field = build_transversal_field(domain, "bisector")
    rng = np.random.default_rng(0)
    fid = rng.integers(0, 6, 40)
    lam = np.concatenate([[0.0, 1.0], rng.random(38)])
    for evaluate in (field.k_at, field.k_prime_at, field.k_dot_n,
                     domain.facet_point):
        single = [np.reshape(evaluate(f, l), -1) for f, l in zip(fid, lam)]
        assert np.array_equal(np.reshape(evaluate(fid, lam), (40, -1)),
                              single)


def locate_one(domain, comp, coord):
    """Facet and local parameter of one component coordinate, by a walk
    over the facets."""
    if comp.cyclic:
        coord = coord % comp.length
    coord = min(max(coord, 0.0), comp.length)
    off = 0.0
    for fid in comp.facets:
        L = domain.lengths[fid]
        if coord <= off + L or fid == comp.facets[-1]:
            return fid, min(max((coord - off) / L, 0.0), 1.0)
        off += L


@pytest.mark.parametrize("labels", [["insulated"] * 6,
                                    ["insulated", "insulated", "dirichlet",
                                     "insulated", "insulated", "neumann"]])
def test_component_locate_matches_facet_walk(labels):
    from insulopt.geometry import _component_locate

    domain = PolygonalDomain(NOTCHED, labels)
    rng = np.random.default_rng(1)
    for comp in domain.insulated_components:
        ends = [comp.facet_offsets[f] + domain.lengths[f] for f in comp.facets]
        coords = np.concatenate([[-1.0, 0.0, comp.length, comp.length + 1.0],
                                 ends, rng.uniform(-1.0, comp.length + 1.0, 50)])
        fid, lam = _component_locate(domain, comp, coords)
        expected = [locate_one(domain, comp, c) for c in coords]
        assert fid.tolist() == [f for f, _ in expected]
        assert np.array_equal(lam, [l for _, l in expected])
