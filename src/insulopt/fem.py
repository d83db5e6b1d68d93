"""P1 finite elements: assembly, boundary quadrature, and energies.

All solvers share this layer.  Boundary integrals on the insulated part come
in two flavors deliberately: a consistent 3-point Gauss edge quadrature for
the Robin interface term (keeps O(h^2) accuracy), and a lumped nodal rule
w_j = half-sum of adjacent edge lengths for the L1 trace norm, which makes
the non-smooth term separable and the thickness-elimination algebra exact.

Meshes are immutable once built, so ``stiffness`` caches the unit-coefficient
stiffness of each mesh (and of each region of a glued mesh) on the mesh at
first use; every solver and energy evaluator shares those operators.

Every linear solve of the three problems goes through ``solve_constrained``:
the solver modules pass an operator, a right-hand side and the fixed
node -> value map of ``dirichlet_nodes``.  That one path eliminates the
fixed nodes, owns the preconditioner choice and runs ``solve_spd``
(preconditioned conjugate gradients): a multigrid V-cycle
(``multigrid.preconditioner``) on meshes that carry their red-refinement
hierarchy, which keeps the iteration count flat in h, and the Jacobi
diagonal on other meshes.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .errors import (
    MeshMismatch,
    NoConvergence,
    NonpositiveWeight,
    UnknownLabel,
)
from .geometry import FacetLabel
from .meshing import BULK, LAYER, LAYER_TOP
from .multigrid import preconditioner

# 3-point Gauss on [0,1] (degree 5), used for weighted edge mass matrices
_EDGE_GX = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
_EDGE_GW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass
class ProblemData:
    """Heat source f (constant or per-bulk-triangle), Neumann flux g and
    Dirichlet temperature u_D as per-facet constants (scalar = all facets
    of that class)."""

    f: float | np.ndarray = 0.0
    g: float | dict = 0.0
    u_D: float | dict = 0.0

    def facet_value(self, spec, fid):
        if isinstance(spec, dict):
            if fid not in spec:
                raise UnknownLabel(f"no value configured for facet {fid}")
            return float(spec[fid])
        return float(spec)

    def validate(self, domain):
        for spec, label in ((self.g, FacetLabel.NEUMANN),
                            (self.u_D, FacetLabel.DIRICHLET)):
            if isinstance(spec, dict):
                valid = set(domain.facet_ids(label))
                for fid in spec:
                    if fid not in valid:
                        raise UnknownLabel(
                            f"facet {fid} is not labeled {label.value}")


@dataclass
class EnergyReport:
    terms: dict
    total: float
    diagnostics: dict = dc_field(default_factory=dict)


@dataclass
class ReducedSystem:
    """Symmetric elimination of Dirichlet constraints."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    n: int

    def expand(self, x_free):
        u = np.zeros(self.n)
        u[self.free] = x_free
        u[self.fixed] = self.fixed_values
        return u


def _tri_geometry(mesh):
    p = mesh.nodes[mesh.tris]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    return b, c, 0.5 * area2


def _scatter(mesh, mask, ke):
    """CSR sum of the element matrices ``ke[i, j, t]`` (3, 3, T) of the
    triangles ``mesh.tris[mask]``."""
    tris = mesh.tris[mask].T.astype(np.int32)  # scipy's index type for CSR
    rows = np.broadcast_to(tris[:, None, :], ke.shape).ravel()
    cols = np.broadcast_to(tris[None, :, :], ke.shape).ravel()
    n = len(mesh.nodes)
    return sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))


def assemble_stiffness(mesh, coeff=1.0, region=None):
    """P1 stiffness with a constant coefficient, optionally restricted to
    the triangles of one region."""
    if coeff < 0:
        raise ValueError("stiffness coefficient must be non-negative")
    mask = slice(None) if region is None else mesh.region == region
    b, c, area = (x[mask].T for x in _tri_geometry(mesh))
    ke = b[:, None] * b[None]  # built in place: assembly sets peak memory
    ke += c[:, None] * c[None]
    ke *= coeff / (4.0 * area)
    return _scatter(mesh, mask, ke)


def stiffness(mesh, region=None):
    """Unit stiffness of ``mesh`` (of one region when given), assembled on
    first use and cached on the mesh.  Every caller shares the matrix, so
    its arrays are read-only."""
    K = mesh.stiffness_cache.get(region)
    if K is None:
        K = assemble_stiffness(mesh, region=region)
        for arr in (K.data, K.indices, K.indptr):
            arr.flags.writeable = False
        mesh.stiffness_cache[region] = K
    return K


def assemble_mass(mesh, region=None):
    """Consistent P1 mass matrix, optionally restricted to one region."""
    mask = slice(None) if region is None else mesh.region == region
    _, _, area = _tri_geometry(mesh)
    local = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    return _scatter(mesh, mask, local[:, :, None] * area[mask])


def assemble_load(mesh, f):
    """Load vector of the bulk heat source (exact for per-triangle f)."""
    _, _, area = _tri_geometry(mesh)
    load = np.zeros(len(mesh.nodes))
    bulk = np.where(mesh.region == BULK)[0]
    if isinstance(f, np.ndarray):
        if len(f) not in (len(mesh.tris), mesh.n_bulk_tris):
            raise MeshMismatch("per-triangle source length does not match mesh")
        fvals = f[bulk] if len(f) == len(mesh.tris) else f
    else:
        fvals = np.full(len(bulk), float(f))
    contrib = fvals * area[bulk] / 3.0
    for i in range(3):
        np.add.at(load, mesh.tris[bulk, i], contrib)
    return load


def assemble_neumann(mesh, data):
    """Boundary flux vector over the Neumann facets."""
    vec = np.zeros(len(mesh.nodes))
    edges = mesh.boundary_edges_of(FacetLabel.NEUMANN)
    facets, at = np.unique(edges[:, 2], return_inverse=True)
    g = np.array([data.facet_value(data.g, fid) for fid in facets])[at]
    half_flux = 0.5 * g * _lengths(mesh, edges)
    # both ends of an edge in turn, edge by edge
    np.add.at(vec, edges[:, :2].ravel(), np.repeat(half_flux, 2))
    return vec


def _lengths(mesh, edges):
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    return np.hypot(d[:, 0], d[:, 1])


def assemble_boundary_mass(mesh, label, weight):
    """Weighted edge mass matrix sum_e int_e w phi_i phi_j ds over the
    boundary edges whose facet carries ``label``.

    ``weight`` maps (facet_id, facet parameters lam) to positive values; it
    is called once per facet on the Gauss points of all its edges, with lam
    interpolated from ``mesh.boundary_lam`` at the edge ends.
    """
    n = len(mesh.nodes)
    on = mesh.label_mask(label)
    edges, fid = mesh.boundary_edges[on], mesh.boundary_facet[on]
    la, lb = mesh.boundary_lam[on].T
    lam = la[:, None] + (lb - la)[:, None] * _EDGE_GX
    wq = np.empty_like(lam)
    for f in np.unique(fid):
        at = fid == f
        wq[at] = np.reshape(weight(f, lam[at].ravel()), (-1, 3))
        if np.any(wq[at] <= 0):
            raise NonpositiveWeight(f"boundary weight <= 0 on facet {f}")
    L = _lengths(mesh, edges)
    phia, phib = 1.0 - _EDGE_GX, _EDGE_GX
    maa = L * np.sum(_EDGE_GW * wq * phia * phia, axis=1)
    mab = L * np.sum(_EDGE_GW * wq * phia * phib, axis=1)
    mbb = L * np.sum(_EDGE_GW * wq * phib * phib, axis=1)
    # entries aa, ab, ba, bb edge by edge, the order duplicates are summed in
    a, b = edges.T
    rows = np.stack([a, a, b, b], axis=1).ravel()
    cols = np.stack([a, b, a, b], axis=1).ravel()
    vals = np.stack([maa, mab, mab, mbb], axis=1).ravel()
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def robin_boundary_mass(mesh, field, dist):
    """Consistent Robin interface matrix int_GI u v / ((k.n) d) ds."""
    domain = mesh.domain

    def weight(fid, lam):
        kn = field.k_dot_n(fid, lam)
        ci = domain.component_of_facet(fid)
        comp = domain.insulated_components[ci]
        d = dist.value_at(
            ci, comp.facet_offsets[fid] + lam * domain.lengths[fid])
        if np.any(kn * d <= 0):
            raise NonpositiveWeight(f"(k.n) d <= 0 on insulated facet {fid}")
        return 1.0 / (kn * d)

    return assemble_boundary_mass(mesh, FacetLabel.INSULATED, weight)


def lumped_boundary_diagonal(mesh, chain, nodal_weight):
    """Diagonal boundary operator diag_j = w_j * nodal_weight_j on the
    insulated chain (the nodal rule paired with the L1 trace norm)."""
    n = len(mesh.nodes)
    diag = np.zeros(n)
    diag[chain.nodes] = chain.weights * nodal_weight
    return sp.diags(diag).tocsr()


def apply_dirichlet(A, b, fixed_values):
    """Symmetric elimination; ``fixed_values`` maps node -> value.  With
    nothing fixed the system is ``A`` and ``b`` themselves."""
    n = A.shape[0]
    fixed = np.array(sorted(fixed_values), dtype=int)
    vals = np.array([fixed_values[i] for i in fixed])
    if not len(fixed):
        return ReducedSystem(matrix=A, rhs=b, free=np.arange(n), fixed=fixed,
                             fixed_values=vals, n=n)
    mask = np.ones(n, bool)
    mask[fixed] = False
    free = np.where(mask)[0]
    A_f = A[free]
    return ReducedSystem(matrix=A_f[:, free].tocsr(),
                         rhs=b[free] - A_f[:, fixed] @ vals, free=free,
                         fixed=fixed, fixed_values=vals, n=n)


def solve_constrained(mesh, A, b, fixed, tol=1e-10, max_iter=None):
    """Solve the SPD system ``A u = b`` on ``mesh`` with u fixed at the
    nodes of the node -> value map ``fixed``; returns u on all nodes.

    The one solve path of the package: the V-cycle of the mesh hierarchy
    preconditions the conjugate gradients when there is one, the Jacobi
    diagonal otherwise.
    """
    sys = apply_dirichlet(A, b, fixed)
    x = solve_spd(sys.matrix, sys.rhs, tol=tol, max_iter=max_iter,
                  precond=preconditioner(mesh, sys.matrix, sys.free))
    return sys.expand(x)


def solve_spd(A, b, tol=1e-10, max_iter=None, precond=None):
    """Preconditioned conjugate gradients for SPD systems.

    ``precond`` maps a residual r to an approximation of A^-1 r (for
    example a ``multigrid.VCycle``); without it the preconditioner is the
    Jacobi diagonal.  Stops at ``tol`` relative residual.
    """
    n = len(b)
    if n == 0:
        return np.zeros(0)
    max_iter = max_iter or 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise NoConvergence("matrix is not positive definite (diagonal)")
    if precond is None:
        def precond(r):
            return r / diag
    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise NoConvergence("matrix is not positive definite (pAp <= 0)")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NoConvergence(
        f"CG did not reach {tol:g} relative residual in {max_iter} iterations")


# ---------------------------------------------------------------------------
# Boundary L1 trace norm and energy evaluators
# ---------------------------------------------------------------------------

def boundary_l1(chain, u):
    """Lumped L1 trace norm sum_j w_j |u_j| over the insulated chain."""
    return float(np.sum(chain.weights * np.abs(u[chain.nodes])))


def _source_term(mesh, u, data):
    return float(assemble_load(mesh, data.f) @ u)


def _neumann_term(mesh, u, data):
    return float(assemble_neumann(mesh, data) @ u)


def _dirichlet_violation(mesh, u, data):
    worst = 0.0
    for a, b, fid in mesh.boundary_edges_of(FacetLabel.DIRICHLET):
        ud = data.facet_value(data.u_D, fid)
        worst = max(worst, abs(u[a] - ud), abs(u[b] - ud))
    return worst


def eval_E_limit(mesh, u, field, dist, data, interface="consistent"):
    """Energy of the vanished-layer limit problem.

    total = 1/2 |grad u|^2 + 1/2 int_GI u^2 / ((k.n) d) - (f,u) - <g,u>.
    ``interface`` selects the consistent Gauss rule or the lumped nodal rule
    for the interface term (the latter matches the reduced functional's
    algebra exactly).
    """
    from .meshing import insulated_chain

    grad = 0.5 * float(u @ (stiffness(mesh) @ u))
    if interface == "consistent":
        iface = 0.5 * float(u @ (robin_boundary_mass(mesh, field, dist) @ u))
    elif interface == "lumped":
        chain = insulated_chain(mesh, field)
        dvals = chain.thickness(dist)
        uj = u[chain.nodes]
        nz = dvals > 0
        if np.any(uj[~nz] != 0):
            iface = np.inf  # zero thickness forces a zero trace
        else:
            iface = 0.5 * float(np.sum(
                chain.weights[nz] * uj[nz] ** 2 / (chain.kn[nz] * dvals[nz])))
    else:
        raise ValueError("interface must be 'consistent' or 'lumped'")
    source = _source_term(mesh, u, data)
    neum = _neumann_term(mesh, u, data)
    total = grad + iface - source - neum
    return EnergyReport(
        terms={"grad": grad, "interface": iface, "source": source,
               "neumann": neum},
        total=total,
        diagnostics={"dirichlet_violation": _dirichlet_violation(mesh, u, data)},
    )


def eval_E_eps(mesh, u, eps, data):
    """Energy of the thin-layer problem on a glued mesh."""
    if mesh.extrusion is None:
        raise MeshMismatch("eval_E_eps needs an extruded mesh")
    grad_bulk = 0.5 * float(u @ (stiffness(mesh, BULK) @ u))
    grad_layer = 0.5 * eps * float(u @ (stiffness(mesh, LAYER) @ u))
    source = _source_term(mesh, u, data)
    neum = _neumann_term(mesh, u, data)
    total = grad_bulk + grad_layer - source - neum
    zero_violation = 0.0
    top = mesh.marker_edges(LAYER_TOP)
    if len(top):
        zero_violation = float(np.abs(u[np.unique(top)]).max())
    return EnergyReport(
        terms={"grad": grad_bulk, "grad_layer_scaled": grad_layer,
               "source": source, "neumann": neum},
        total=total,
        diagnostics={
            "dirichlet_violation": _dirichlet_violation(mesh, u, data),
            "zero_trace_violation": zero_violation,
        },
    )


def eval_I(mesh, u, m, data, chain=None):
    """Reduced objective 1/2 |grad u|^2 - (f,u) + (1/2m) |u|_{1,GI}^2 - <g,u>."""
    from .meshing import insulated_chain

    if chain is None:
        chain = insulated_chain(mesh)
    grad = 0.5 * float(u @ (stiffness(mesh) @ u))
    l1 = boundary_l1(chain, u)
    bdry = l1 * l1 / (2.0 * m)
    source = _source_term(mesh, u, data)
    neum = _neumann_term(mesh, u, data)
    total = grad + bdry - source - neum
    return EnergyReport(
        terms={"grad": grad, "boundary_l1_sq": bdry, "source": source,
               "neumann": neum},
        total=total,
        diagnostics={"boundary_l1": l1,
                     "dirichlet_violation": _dirichlet_violation(mesh, u, data)},
    )


def dirichlet_nodes(mesh, data, zero_nodes=()):
    """Fixed node -> value map of a solve: u_D on the Dirichlet facets (the
    later edge wins at a shared corner), zero on the outer layer boundary of
    a glued mesh and at ``zero_nodes``; a Dirichlet value wins over a zero."""
    top = np.unique(mesh.marker_edges(LAYER_TOP))
    fixed = dict.fromkeys([*np.asarray(zero_nodes).tolist(), *top.tolist()],
                          0.0)
    for a, b, fid in mesh.boundary_edges_of(FacetLabel.DIRICHLET).tolist():
        fixed[a] = fixed[b] = data.facet_value(data.u_D, fid)
    return fixed
