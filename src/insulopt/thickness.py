"""Optimal thickness reconstruction from a temperature trace.

For a fixed field v the thickness minimizing the interface energy over all
mass-feasible profiles is explicit:

    d_v = (m / |v|_{1,GI}) * |v| / (k.n),

and the equivalent profile measured along the outward normal is
d_tilde = (k.n) d.  Everything is evaluated nodally on the insulated chain
with the lumped weights, which makes the mass constraint exact.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ZeroTrace
from .fem import boundary_l1
from .geometry import InsulationDistribution
from .meshing import insulated_chain


def reconstruct_distribution(mesh, v, m, field, d_min_warn=None):
    """Nodal optimal thickness for the trace of ``v``; mass equals ``m``."""
    if m <= 0:
        raise ValueError("mass must be positive")
    chain = insulated_chain(mesh, field)
    s_norm = boundary_l1(chain, v)
    if s_norm == 0.0:
        raise ZeroTrace("|v|_{1,GI} = 0: optimal thickness is undefined")
    coords, values = [], []
    low = 0
    for cc in chain.components:
        hi = low + len(cc.nodes)
        kn = chain.kn[low:hi]
        vj = np.abs(v[cc.nodes])
        coords.append(cc.coords.copy())
        values.append((m / s_norm) * vj / kn)
        low = hi
    dist = InsulationDistribution(field, coords, values)
    if d_min_warn is not None:
        below = sum(int(np.sum(vals < d_min_warn)) for vals in values)
        if below:
            warnings.warn(
                f"reconstructed thickness falls below d_min={d_min_warn:g} "
                f"at {below} insulated node(s); the vanishing-layer theory "
                "assumes a positive floor there")
    return dist


def to_normal_thickness(dist):
    """Per-component nodal profile d_tilde = (k.n) d along the normal."""
    return [kn * vals for kn, vals in zip(dist.component_kn,
                                          dist.component_values)]


def profile_table(dist):
    """Flattened (global arc s, d, d_tilde) rows for serialization."""
    tilde = to_normal_thickness(dist)
    rows = []
    for ci, comp in enumerate(dist.domain.insulated_components):
        start = comp.start_arc
        for c, d, dt in zip(dist.component_coords[ci],
                            dist.component_values[ci], tilde[ci]):
            rows.append(((start + c) % dist.domain.perimeter, d, dt))
    return rows
