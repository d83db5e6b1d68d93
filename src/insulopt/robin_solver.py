"""Limit problem: Robin condition (k.n) d du/dn + u = 0 on the insulated part.

Minimizes 1/2|grad v|^2 + 1/2 |((k.n)d)^{-1/2} v|^2_{GI} - (f,v) - <g,v>
subject to v = u_D on the Dirichlet part.
"""
from __future__ import annotations

import numpy as np

from .errors import MeshMismatch, NonpositiveWeight
from .fem import (
    SolveWorkspace,
    assemble_load,
    assemble_neumann,
    dirichlet_nodes,
    eval_E_limit,
    lumped_boundary_diagonal,
    robin_boundary_mass,
    solve_constrained,
    solve_spd,  # noqa: F401  bound here for perfbench's tracer self-test
    stiffness,
)
from .meshing import BULK, insulated_chain


def robin_operator(mesh, field, dist, quadrature="consistent"):
    """Stiffness plus the Robin interface term with weight 1/((k.n) d).

    The consistent variant integrates the weight with 3-point Gauss per edge;
    the lumped variant uses the nodal rule w_j/(kn_j d_j) and turns nodes
    with d_j = 0 into hard zero constraints (the limit of the penalization).
    Returns (matrix, extra zero-constrained nodes).
    """
    if quadrature == "consistent":
        return stiffness(mesh) + robin_boundary_mass(mesh, field, dist), []
    if quadrature == "lumped":
        chain = insulated_chain(mesh, field)
        dvals = chain.thickness(dist)
        if np.any(dvals < 0):
            raise NonpositiveWeight("negative thickness on the insulated part")
        nz = dvals > 0
        weight = np.zeros_like(dvals)
        weight[nz] = 1.0 / (chain.kn[nz] * dvals[nz])
        M = lumped_boundary_diagonal(mesh, chain, weight)
        return stiffness(mesh) + M, chain.nodes[~nz]
    raise ValueError("quadrature must be 'consistent' or 'lumped'")


def solve_limit(mesh, field, dist, data, tol=1e-10, max_iter=None,
                robin_quadrature="consistent"):
    """Solve the limit problem on a bulk mesh; returns (u, EnergyReport).

    The report's diagnostics carry the PCG iterations and the transfer and
    V-cycle builds of the solve.
    """
    if np.any(mesh.region != BULK):
        raise MeshMismatch("solve_limit expects a bulk mesh without a layer")
    data.validate(mesh.domain)
    if robin_quadrature == "consistent" and _min_thickness(mesh, dist) <= 0:
        raise NonpositiveWeight("thickness must be positive on the insulated part")
    A, zero_nodes = robin_operator(mesh, field, dist, robin_quadrature)
    b = assemble_load(mesh, data.f) + assemble_neumann(mesh, data)
    # read the work and drop the workspace's V-cycle before the energies
    workspace = SolveWorkspace()
    u = solve_constrained(mesh, A, b, *dirichlet_nodes(mesh, data, zero_nodes),
                          tol=tol, max_iter=max_iter, workspace=workspace)
    work = workspace.work()
    del workspace
    report = eval_E_limit(mesh, u, field, dist, data,
                          interface=robin_quadrature)
    report.diagnostics.update(work)
    return u, report


def _min_thickness(mesh, dist):
    return float(np.min(insulated_chain(mesh).thickness(dist)))
