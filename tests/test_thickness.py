import math

import numpy as np
import pytest

from insulopt.errors import ZeroTrace
from insulopt.fem import eval_E_limit
from insulopt.geometry import InsulationDistribution, build_transversal_field
from insulopt.meshing import insulated_chain, triangulate_bulk
from insulopt.thickness import (
    profile_table,
    reconstruct_distribution,
    to_normal_thickness,
)

from conftest import pseudo1d_setup


def test_constant_trace_gives_uniform_thickness():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    v = np.full(len(mesh.nodes), 0.7)
    dist = reconstruct_distribution(mesh, v, m=2.0, field=field)
    for vals in dist.component_values:
        assert np.allclose(vals, 2.0, atol=1e-14)  # m / |GI|, k.n = 1
    assert dist.mass == pytest.approx(2.0, rel=1e-12)


def test_zero_trace_raises():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    with pytest.raises(ZeroTrace):
        reconstruct_distribution(mesh, np.zeros(len(mesh.nodes)), 1.0, field)


def test_half_zero_trace_doubles_elsewhere():
    domain, field, mesh, _ = pseudo1d_setup(h=0.125)
    chain = insulated_chain(mesh, field)
    v = np.zeros(len(mesh.nodes))
    uniform = reconstruct_distribution(
        mesh, np.ones(len(mesh.nodes)), 1.0, field)
    # trace 1 on the lower half of the insulated facet, 0 on the upper half
    for cc in chain.components:
        for node, coord in zip(cc.nodes, cc.coords):
            v[node] = 1.0 if coord < 0.5 - 1e-12 else 0.0
    dist = reconstruct_distribution(mesh, v, 1.0, field)
    vals = dist.component_values[0]
    uni = uniform.component_values[0]
    coords = dist.component_coords[0]
    lower = coords < 0.5 - 1e-12
    upper = coords > 0.5 + 1e-12
    assert np.allclose(vals[upper], 0.0, atol=0)
    # mass conservation pushes roughly twice the uniform thickness below
    assert np.all(vals[lower] > 1.9 * uni[lower])
    assert dist.mass == pytest.approx(1.0, rel=1e-12)


def test_reconstruction_scaling_invariant():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(len(mesh.nodes))
    d1 = reconstruct_distribution(mesh, v, 1.5, field)
    d2 = reconstruct_distribution(mesh, 2.0 * v, 1.5, field)
    for a, b in zip(d1.component_values, d2.component_values):
        assert np.array_equal(a, b)


def test_dmin_warning_emitted():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    v = np.ones(len(mesh.nodes))
    chain = insulated_chain(mesh, field)
    v[chain.nodes[0]] = 1e-6
    with pytest.warns(UserWarning, match="d_min"):
        reconstruct_distribution(mesh, v, 1.0, field, d_min_warn=0.1)


def test_normal_thickness_identity_when_k_equals_n():
    domain, field, mesh, _ = pseudo1d_setup(h=0.25)
    v = np.full(len(mesh.nodes), 2.0)
    dist = reconstruct_distribution(mesh, v, 1.0, field)
    tilde = to_normal_thickness(dist)
    for d, dt in zip(dist.component_values, tilde):
        assert np.allclose(d, dt, atol=1e-15)


def test_normal_thickness_square_corner(square_all_insulated):
    field = build_transversal_field(square_all_insulated, "bisector")
    dist = InsulationDistribution.constant(field, 1.0)
    tilde = to_normal_thickness(dist)
    # polygon-corner chain: every node is a corner with k.n = sqrt(2)/2
    assert np.allclose(tilde[0], math.sqrt(2) / 2, atol=1e-14)


def test_zero_profile_maps_to_zero():
    domain, field, mesh, _ = pseudo1d_setup(h=0.5)
    dist = InsulationDistribution.constant(field, 0.0)
    tilde = to_normal_thickness(dist)
    for dt in tilde:
        assert np.all(dt == 0.0)


def test_reconstruct_is_inner_argmin():
    # the reconstructed profile beats random mass-feasible competitors
    domain, field, mesh, data = pseudo1d_setup(h=0.125)
    rng = np.random.default_rng(11)
    v = np.abs(rng.standard_normal(len(mesh.nodes))) + 0.1
    m = 1.3
    d_v = reconstruct_distribution(mesh, v, m, field)
    base = eval_E_limit(mesh, v, field, d_v, data, interface="lumped")
    chain = insulated_chain(mesh, field)
    for _ in range(50):
        noise = np.concatenate([
            vals + np.abs(rng.standard_normal(len(vals))) * 0.5 + 0.05
            for vals in d_v.component_values])
        # renormalize to the same lumped mass
        scale = m / float(np.sum(chain.weights * chain.kn * noise))
        comp_vals, low = [], 0
        for vals in d_v.component_values:
            comp_vals.append(noise[low:low + len(vals)] * scale)
            low += len(vals)
        competitor = InsulationDistribution(
            field, [c.copy() for c in d_v.component_coords], comp_vals)
        assert competitor.mass == pytest.approx(m, rel=1e-10)
        other = eval_E_limit(mesh, v, field, competitor, data,
                             interface="lumped")
        assert base.total <= other.total + 1e-10


def test_profile_table_round_trip():
    domain, field, mesh, _ = pseudo1d_setup(h=0.5)
    v = np.full(len(mesh.nodes), 1.0)
    dist = reconstruct_distribution(mesh, v, 1.0, field)
    rows = profile_table(dist)
    assert len(rows) == sum(len(c) for c in dist.component_coords)
    for s, d, dt in rows:
        assert 0 <= s < dist.domain.perimeter
        assert d == pytest.approx(dt, abs=1e-14)  # k.n = 1 on this facet


def test_kn_is_evaluated_once_per_distribution_node(monkeypatch):
    domain, field, mesh, _ = pseudo1d_setup(h=1 / 8)
    calls = []
    original = field.k_dot_n
    monkeypatch.setattr(field, "k_dot_n",
                        lambda fid, lam: calls.append(fid) or original(fid, lam))
    coords = np.linspace(0.0, 1.0, 9)
    dist = InsulationDistribution(field, [coords], [1.0 + coords**2])
    assert len(calls) == len(coords)
    tilde = to_normal_thickness(dist)
    profile_table(dist)
    assert dist._lumped_mass() == dist.mass
    assert len(calls) == len(coords)
    assert np.array_equal(tilde[0], dist.component_kn[0] * (1.0 + coords**2))
