"""Thin-layer transmission problem on the glued mesh.

Conductivity 1 in the bulk and eps in the layer, zero trace on the outer
layer boundary, natural conditions on the fiber sides; flux continuity
across the insulated interface is automatic in conforming P1.
"""
from __future__ import annotations

import numpy as np

from .errors import MeshMismatch
from .fem import (
    SolveWorkspace,
    assemble_load,
    assemble_neumann,
    dirichlet_nodes,
    eval_E_eps,
    mass,
    solve_constrained,
    solve_spd,  # noqa: F401  bound here for perfbench's tracer self-test
    stiffness,
)
from .meshing import BULK, LAYER

POINCARE_SLACK = 0.05


def solve_eps(mesh, eps, data, tol=1e-10, max_iter=None):
    """Solve the transmission problem; returns (u, EnergyReport).

    The report's diagnostics carry the PCG iterations and the transfer and
    V-cycle builds of the solve, the equi-coercivity norms and the worst
    fiber ratio of the point-wise Poincare inequality.
    """
    if mesh.extrusion is None:
        raise MeshMismatch("solve_eps expects a glued mesh from extrude_layer")
    if abs(mesh.extrusion.eps - eps) > 1e-14 * max(1.0, eps):
        raise MeshMismatch(
            f"mesh extruded at eps={mesh.extrusion.eps}, solver called with {eps}")
    data.validate(mesh.domain)
    A = stiffness(mesh, BULK) + eps * stiffness(mesh, LAYER)
    b = assemble_load(mesh, data.f) + assemble_neumann(mesh, data)
    # read the work and drop the workspace's V-cycle before the energies
    workspace = SolveWorkspace()
    u = solve_constrained(mesh, A, b, *dirichlet_nodes(mesh, data), tol=tol,
                          max_iter=max_iter, workspace=workspace)
    work = workspace.work()
    del workspace

    report = eval_E_eps(mesh, u, eps, data)
    report.diagnostics.update(work)
    report.diagnostics.update(equicoercivity_norms(mesh, u, eps))
    report.diagnostics["poincare_max_ratio"] = poincare_fiber_check(mesh, u)
    return u, report


def equicoercivity_norms(mesh, u, eps):
    """|u|^2_W + |grad u|^2_W + (1/eps)|u|^2_S + eps |grad u|^2_S and the sum."""
    l2_bulk = float(u @ (mass(mesh, BULK) @ u))
    h1_bulk = float(u @ (stiffness(mesh, BULK) @ u))
    l2_layer = float(u @ (mass(mesh, LAYER) @ u))
    h1_layer = float(u @ (stiffness(mesh, LAYER) @ u))
    total = l2_bulk + h1_bulk + l2_layer / eps + eps * h1_layer
    return {
        "l2_bulk_sq": l2_bulk,
        "h1_bulk_sq": h1_bulk,
        "l2_layer_sq_over_eps": l2_layer / eps,
        "h1_layer_sq_scaled": eps * h1_layer,
        "equicoercivity": total,
    }


def poincare_fiber_check(mesh, u):
    """Worst ratio |u(t_i)|^2 / ((T - t_i) * int_{t_i}^{T} |du/dk|^2).

    Along each fiber the solution is piecewise linear on mesh edges, so the
    directional derivative is exact per segment; values <= 1 certify the
    point-wise inequality (with the full gradient it only gets easier).
    """
    ext = mesh.extrusion
    fibers = ext.fibers
    vals, ts = u[fibers], ext.layer_t[fibers]
    dt = np.diff(ts, axis=1)
    keep = np.all(dt > 0, axis=1)  # drops zero-height fibers
    vals, ts, dt = vals[keep], ts[keep], dt[keep]
    slopes = np.diff(vals, axis=1) / dt
    tail = np.cumsum((slopes**2 * dt)[:, ::-1], axis=1)[:, ::-1]
    rhs = (ts[:, -1:] - ts[:, :-1]) * tail
    head = vals[:, :-1]
    pos = rhs > 0
    ratio = np.divide(head**2, rhs, out=np.zeros_like(rhs), where=pos)
    if np.any(~pos & (np.abs(head) > 1e-14)):
        return np.inf
    return float(ratio.max(initial=0.0))
