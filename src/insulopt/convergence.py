"""Vanishing-layer convergence harness.

Sweeps the layer thickness scale eps, compares the thin-layer energies
against the limit problem, and builds admissible competitors from the limit
solution via the fiber cutoff 1 - t/(eps*d(s)).  Also checks the boundary
Lebesgue limit (1/eps) int_{layer} a |v|^p -> int_{GI} (k.n) d a |v|^p ds.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConvergenceCheckFailure, MeshMismatch
from .fem import assemble_load, eval_E_eps
from .geometry import (
    _GAUSS_W,
    _arc_gauss_nodes,
    _layer_integrand_coeffs,
    layer_area,
    transversal_mass,
)
from .layer_solver import solve_eps
from .meshing import extrude_layer, triangulate_bulk
from .robin_solver import solve_limit
from .vtk_io import csv_lines

_T_GX, _T_GW = np.polynomial.legendre.leggauss(6)

SANDWICH_SLACK = 1e-12
EQUICOERCIVITY_FACTOR = 10.0


def recovery_sequence(u, glued):
    """Admissible thin-layer competitor built from a bulk field.

    Bulk nodes copy ``u``; the fiber node at level l of n_t carries
    u(base) * (1 - l/n_t), the nodal cutoff 1 - t/(eps*d(s)); the outer
    layer boundary value is exactly zero, the base of a collapsed fiber
    included.
    """
    ext = glued.extrusion
    if ext is None:
        raise MeshMismatch("recovery_sequence needs a glued mesh")
    if len(u) != glued.n_bulk_nodes:
        raise MeshMismatch("bulk field does not match the glued mesh prefix")
    v = np.zeros(len(glued.nodes))
    v[:glued.n_bulk_nodes] = u
    fibers, n_t = ext.fibers, ext.n_t
    v[fibers[:, 1:]] = u[fibers[:, :1]] * (n_t - np.arange(1, n_t + 1)) / n_t
    v[fibers[:, -1]] = 0.0
    return v


@dataclass
class GammaSweepRow:
    eps: float
    energy_solution: float
    energy_recovery: float
    gap_solution: float
    gap_recovery: float
    equicoercivity: float
    layer_area_over_eps: float
    poincare_ratio: float
    pcg_iterations: int  # of the thin-layer solve; not a CSV column


@dataclass
class GammaSweepReport:
    rows: list
    energy_limit: float
    weighted_mass: float
    pcg_iterations_limit: int  # of the limit solve; not a CSV column
    fields: list = dc_field(default_factory=list)

    def csv_table(self):
        """(header, rows) of the CSV: one row per eps, then two comment
        rows with the limit energy and the weighted mass."""
        header = ("eps,energy_solution,energy_recovery,gap_solution,"
                  "gap_recovery,equicoercivity,layer_area_over_eps,"
                  "poincare_ratio")
        rows = [tuple(float(x) for x in (
            r.eps, r.energy_solution, r.energy_recovery, r.gap_solution,
            r.gap_recovery, r.equicoercivity, r.layer_area_over_eps,
            r.poincare_ratio)) for r in self.rows]
        rows.append(("# energy_limit", float(self.energy_limit)))
        rows.append(("# weighted_mass", float(self.weighted_mass)))
        return header, rows

    def csv_rows(self):
        return csv_lines(*self.csv_table())


def gamma_sweep(domain, field, dist, data, eps_list, h, n_t, tol=1e-10,
                keep_fields=False):
    """Solve the thin-layer problem over a decreasing eps list and compare
    both the solutions and the recovery competitors against the limit.

    With ``keep_fields`` the report carries (eps, glued mesh, solution)
    triples for serialization.  The limit is solved with the consistent
    Robin rule, which needs d > 0 (NonpositiveWeight at a zero of d).
    """
    eps_list = list(eps_list)
    if (not eps_list or eps_list[-1] <= 0
            or any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:]))):
        raise ValueError(
            "eps_list must be nonempty, positive and strictly decreasing")
    bulk = triangulate_bulk(domain, h)
    u_lim, rep_lim = solve_limit(bulk, field, dist, data, tol=tol)
    e_lim = rep_lim.total
    # the glued meshes' bulk triangles are the bulk's, so their load is the
    # bulk's, padded with zeros over the layer
    bulk_load = assemble_load(bulk, data.f)

    rows = []
    fields = []
    for eps in eps_list:
        glued = extrude_layer(bulk, field, dist, eps, n_t)
        load = np.zeros(len(glued.nodes))  # the solve and both energies
        load[:len(bulk_load)] = bulk_load
        u_eps, rep_eps = solve_eps(glued, eps, data, tol=tol, load=load)
        v_rec = recovery_sequence(u_lim, glued)
        rep_rec = eval_E_eps(glued, v_rec, eps, data, load=load)
        e_sol, e_rec = rep_eps.total, rep_rec.total
        if keep_fields:
            fields.append((eps, glued, u_eps))
        if not e_sol <= e_rec + SANDWICH_SLACK:
            raise ConvergenceCheckFailure(
                f"discrete minimality violated at eps={eps}: "
                f"{e_sol} > {e_rec}")
        rows.append(GammaSweepRow(
            eps=eps,
            energy_solution=e_sol,
            energy_recovery=e_rec,
            gap_solution=abs(e_sol - e_lim),
            gap_recovery=abs(e_rec - e_lim),
            equicoercivity=rep_eps.diagnostics["equicoercivity"],
            layer_area_over_eps=layer_area(field, dist, eps) / eps,
            poincare_ratio=rep_eps.diagnostics["poincare_max_ratio"],
            pcg_iterations=rep_eps.diagnostics["pcg_iterations"],
        ))

    monitor = [r.equicoercivity for r in rows]
    if not max(monitor) <= EQUICOERCIVITY_FACTOR * monitor[0]:
        raise ConvergenceCheckFailure(
            "equi-coercivity monitor grew more than "
            f"{EQUICOERCIVITY_FACTOR}x over the sweep")

    report = GammaSweepReport(
        rows=rows,
        energy_limit=e_lim,
        weighted_mass=transversal_mass(field, dist),
        pcg_iterations_limit=rep_lim.diagnostics["pcg_iterations"],
        fields=fields,
    )
    return report


def _arc_values(a, field, fid, lam):
    """Weight ``a`` (default 1) at the global arc coordinates of ``lam``."""
    if a is None:
        return np.ones_like(lam)
    domain = field.domain
    arc = domain.facet_arc_start[fid] + lam * domain.lengths[fid]
    return np.asarray([a(s) for s in arc], dtype=float)


def layer_integral(field, dist, eps, p=1, a=None, v=None):
    """(1/eps) int_{layer} a |v|^p dx by exact fiber quadrature.

    ``v`` maps point arrays (n,2) to values, ``a`` maps global arc
    coordinates to values; both default to 1.  ``a`` is extended constantly
    along fibers.
    """
    total = 0.0
    for _, fid, lam, d, half in _arc_gauss_nodes(field, dist):
        A, B = _layer_integrand_coeffs(field, fid, lam)
        T = eps * d
        base = field.domain.facet_point(fid, lam)
        k = field.k_at(fid, lam)
        aval = _arc_values(a, field, fid, lam)
        inner = np.zeros_like(lam)
        for gx, gw in zip(_T_GX, _T_GW):
            t = 0.5 * T * (gx + 1.0)
            pts = base + t[:, None] * k
            vv = np.ones(len(pts)) if v is None else \
                np.asarray(v(pts), dtype=float)
            inner += gw * np.abs(vv) ** p * (A + t * B) * 0.5 * T
        total += half * float(np.dot(_GAUSS_W, aval * inner))
    return total / eps


def boundary_integral(field, dist, p=1, a=None, v=None):
    """int_{GI} (k.n) d a |v|^p ds, the limit of ``layer_integral``."""
    total = 0.0
    for _, fid, lam, d, half in _arc_gauss_nodes(field, dist):
        kn = field.k_dot_n(fid, lam)
        pts = field.domain.facet_point(fid, lam)
        aval = _arc_values(a, field, fid, lam)
        vv = np.ones(len(pts)) if v is None else \
            np.asarray(v(pts), dtype=float)
        total += half * float(np.dot(
            _GAUSS_W, kn * d * aval * np.abs(vv) ** p))
    return total


MIN_LEBESGUE_ORDER = 0.9


def lebesgue_limit_check(v, a, dist, field, eps_list, p=1):
    """Convergence table of the vanishing-layer Lebesgue limit.

    Returns rows (eps, scaled integral, limit, error); under eps-halving the
    observed order must be at least 0.9 unless the errors are at rounding
    level.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    limit = boundary_integral(field, dist, p=p, a=a, v=v)
    rows = []
    for eps in eps_list:
        val = layer_integral(field, dist, eps, p=p, a=a, v=v)
        rows.append((eps, val, limit, abs(val - limit)))
    errs = [r[3] for r in rows]
    for i in range(len(eps_list) - 1):
        if abs(eps_list[i] / eps_list[i + 1] - 2.0) > 1e-9:
            continue
        if errs[i] < 1e-13 or errs[i + 1] < 1e-13:
            continue
        order = np.log2(errs[i] / errs[i + 1])
        if not order >= MIN_LEBESGUE_ORDER:
            raise ConvergenceCheckFailure(
                f"observed order {order:.3f} below {MIN_LEBESGUE_ORDER} "
                f"between eps={eps_list[i]} and {eps_list[i+1]}")
    return rows
