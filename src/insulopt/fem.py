"""P1 finite elements: assembly, boundary quadrature, and energies.

All solvers share this layer.  Boundary integrals on the insulated part come
in two flavors deliberately: a consistent 3-point Gauss edge quadrature for
the Robin interface term (keeps O(h^2) accuracy), and a lumped nodal rule
w_j = half-sum of adjacent edge lengths for the L1 trace norm, which makes
the non-smooth term separable and the thickness-elimination algebra exact.

Meshes are immutable once built, so ``stiffness`` and ``mass`` cache the
unit-coefficient stiffness and the mass matrix of each mesh (and of each
region of a glued mesh) in one store on the mesh at first use; every solver
and energy evaluator shares those operators.  A glued mesh takes its bulk
operators from the bulk mesh it was extruded from: the bulk triangles are
the same, in the same order, over the same node prefix, so the bulk mesh's
matrix padded with empty rows and columns (``_padded``, which shares its
arrays) equals the glued assembly bit for bit.

Every assembly reads the triangle areas stored on the mesh
(``TriMesh.areas``), and no caller passes a load in: ``assemble_load`` is
one ``np.bincount`` of f * area / 3 over the bulk triangles' corners, cheap
enough to form wherever a solve or an energy needs it.

The fixed nodes of a solve have one form: ``dirichlet_nodes`` returns a
boolean node mask ``fixed`` and a ``lift``, the field holding u_D at the
Dirichlet nodes and zero elsewhere.  It is built once per solve; a loop
that pins more nodes to zero sets them in a copy of the mask, and the lift
already holds their zero.

Every linear solve of the three problems goes through ``solve_constrained``:
the solver modules pass an operator, a right-hand side, the mask and the
lift, and a ``SolveWorkspace``.  That one path eliminates the fixed nodes
(``apply_dirichlet``), owns the preconditioner choice and runs
``solve_spd`` (preconditioned conjugate gradients): a multigrid V-cycle on
meshes that carry their red-refinement hierarchy, which keeps the
iteration count flat in h, and the Jacobi diagonal on other meshes.

The workspace is created and dropped by the caller: a single solve
(``solve_limit``, ``solve_eps``) makes a fresh one, and a sequence of solves
on one mesh shares one.  It keeps the multigrid transfers of the last fixed
mask, rebuilt only when the mask changes, and the last V-cycle, and it
tallies the transfer builds, V-cycle builds and PCG iterations
(``SolveWorkspace.work``), which the solvers report in their diagnostics.
A sequence can also pass ``start``, a field on all nodes from which
conjugate gradients start, for example the previous solution of a loop; its
free entries are the initial iterate and the lift still decides the fixed
ones.  Without it a solve starts from zero.

The V-cycle is kept by spectral equivalence.  When the operators of the
sequence are A = K + W with one fixed K >= 0 and a nonnegative diagonal W
that the caller hands the workspace (``SolveWorkspace.robin``, for example
a lumped Robin term), and the V-cycle was built for Abar = K + Wbar, then
Wbar / c <= W <= c Wbar entrywise gives Abar / c <= A <= c Abar.  So on an
unchanged free set the old V-cycle preconditions A with a condition number
at most c^2 times that of a fresh one, which at c = ``REUSE_FACTOR`` = 2
costs at most twice the PCG iterations; it is rebuilt otherwise.
Conjugate gradients always run on the exact A, so the answer still meets
``tol``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .errors import (
    MeshMismatch,
    NoConvergence,
    NonpositiveWeight,
    SchemaError,
    UnknownLabel,
)
from .geometry import FacetLabel
from .meshing import BULK, LAYER, LAYER_TOP, insulated_chain
from .multigrid import VCycle, transfers

# 3-point Gauss on [0,1] (degree 5), used for weighted edge mass matrices
_EDGE_GX = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
_EDGE_GW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# a kept V-cycle serves while the diagonal part of the operator stays within
# this factor of the one it was built for (see the module docstring)
REUSE_FACTOR = 2.0


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
        for spec, key in ((self.f, "data.f"), (self.g, "data.g"),
                          (self.u_D, "data.u_D")):
            values = list(spec.values()) if isinstance(spec, dict) else spec
            if not np.all(np.isfinite(values)):
                raise SchemaError(key, "must be finite")
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


def _scatter(mesh, mask, ke):
    """CSR sum of the element matrices ``ke[i, j, t]`` (3, 3, T) of the
    triangles ``mesh.tris[mask]``."""
    tris = mesh.tris[mask].T.astype(np.int32)  # scipy's index type for CSR
    rows = np.broadcast_to(tris[:, None, :], ke.shape).ravel()
    cols = np.broadcast_to(tris[None, :, :], ke.shape).ravel()
    n = len(mesh.nodes)
    return sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))


def assemble_stiffness(mesh, region=None):
    """Unit-coefficient P1 stiffness, optionally restricted to the
    triangles of one region."""
    mask = slice(None) if region is None else mesh.region == region
    x, y = mesh.nodes[mesh.tris[mask]].T  # (3, T) corner coordinates
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    ke = b[:, None] * b[None]  # built in place: assembly sets peak memory
    ke += c[:, None] * c[None]
    ke *= 1.0 / (4.0 * mesh.areas[mask])
    K = _scatter(mesh, mask, ke)
    # right angles leave exact zeros (cot 90 deg) that every product would
    # visit
    K.eliminate_zeros()
    return K


def assemble_mass(mesh, region=None):
    """Consistent P1 mass matrix, optionally restricted to one region."""
    mask = slice(None) if region is None else mesh.region == region
    local = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    return _scatter(mesh, mask, local[:, :, None] * mesh.areas[mask])


def stiffness(mesh, region=None):
    """Unit stiffness of ``mesh`` (of one region when given), built on
    first use and cached on the mesh (see ``_operator``)."""
    return _operator(mesh, "stiffness", region, assemble_stiffness)


def mass(mesh, region=None):
    """Consistent mass matrix of ``mesh`` (of one region when given),
    built on first use and cached on the mesh (see ``_operator``)."""
    return _operator(mesh, "mass", region, assemble_mass)


def _operator(mesh, kind, region, assemble):
    """The ``kind`` operator of ``mesh`` from ``mesh.operator_cache``, built
    by ``assemble(mesh, region=region)`` on first use.  The bulk operator
    of a glued mesh is its bulk mesh's whole-mesh operator, padded.  Every
    caller shares the matrix, so its arrays are read-only."""
    A = mesh.operator_cache.get((kind, region))
    if A is None:
        if region == BULK and mesh.bulk is not None:
            A = _padded(_operator(mesh.bulk, kind, None, assemble),
                       len(mesh.nodes))
        else:
            A = assemble(mesh, region=region)
        for arr in (A.data, A.indices, A.indptr):
            arr.flags.writeable = False
        mesh.operator_cache[(kind, region)] = A
    return A


def _padded(A, n):
    """The square CSR matrix ``A`` with empty rows and columns appended up
    to size n; it shares the data and indices of ``A``."""
    tail = np.full(n - A.shape[0], A.indptr[-1], dtype=A.indptr.dtype)
    return sp.csr_matrix((A.data, A.indices, np.concatenate([A.indptr, tail])),
                         shape=(n, n))


def assemble_load(mesh, f):
    """Load vector of the bulk heat source (exact for per-triangle f): a
    third of f times the area at each corner, summed corner by corner."""
    bulk = slice(mesh.n_bulk_tris)  # the bulk triangles are a prefix
    if isinstance(f, np.ndarray):
        if len(f) not in (len(mesh.tris), mesh.n_bulk_tris):
            raise MeshMismatch("per-triangle source length does not match mesh")
        f = f[bulk]
    return np.bincount(mesh.tris[bulk].T.ravel(),
                       weights=np.tile(f * mesh.areas[bulk] / 3.0, 3),
                       minlength=len(mesh.nodes))


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


def apply_dirichlet(A, b, fixed, lift):
    """Symmetric elimination of the nodes of the mask ``fixed`` at the
    values of ``lift``: returns (A_FF, b_F - A_FX lift_X) on the free nodes
    F, or ``A`` and ``b`` themselves when nothing is fixed."""
    if not fixed.any():
        return A, b
    free, at = np.flatnonzero(~fixed), np.flatnonzero(fixed)
    A_f = A[free]
    return A_f[:, free].tocsr(), b[free] - A_f[:, at] @ lift[at]


class SolveWorkspace:
    """State of one solve, or of a sequence of solves on one mesh, owned by
    the caller for that long: the multigrid transfers of the last fixed set,
    the last V-cycle with the diagonal ``robin`` it was built for, and the
    transfer builds, V-cycle builds and PCG iterations made so far.

    In a sequence, the caller sets ``robin`` before each solve to the
    diagonal W (on all nodes) of the operator K + W, where K is the same in
    every solve.  The V-cycle is rebuilt when the fixed set changes, when
    ``robin`` is None (as in a fresh workspace), or when W leaves
    [Wbar / REUSE_FACTOR, REUSE_FACTOR Wbar] somewhere.
    """

    def __init__(self):
        self.fixed = None
        self.levels = None
        self.robin = None
        self.vcycle = None
        self.vcycle_robin = None
        self.transfer_builds = 0
        self.vcycle_builds = 0
        self.pcg_iterations = 0

    def preconditioner(self, mesh, A, fixed):
        """V-cycle for ``A`` on the nodes of ``mesh`` outside the mask
        ``fixed``, or None without a hierarchy; kept from the last call
        while its fixed set is unchanged and ``robin`` is spectrally
        equivalent to the one it was built for."""
        if not mesh.hierarchy or fixed.all():
            return None
        if self.fixed is None or not np.array_equal(self.fixed, fixed):
            self.fixed, self.levels = fixed, transfers(mesh, fixed)
            self.transfer_builds += 1
            self.vcycle = None
        W, built = self.robin, self.vcycle_robin
        if (self.vcycle is None or W is None or built is None
                or np.any(W > REUSE_FACTOR * built)
                or np.any(built > REUSE_FACTOR * W)):
            self.vcycle, self.vcycle_robin = VCycle(A, self.levels), W
            self.vcycle_builds += 1
        return self.vcycle

    def count_iteration(self, _x):
        self.pcg_iterations += 1

    def work(self):
        """The PCG iterations, transfer builds and V-cycle builds so far,
        under the keys the solvers report them by."""
        return {"pcg_iterations": self.pcg_iterations,
                "transfer_builds": self.transfer_builds,
                "vcycle_builds": self.vcycle_builds}


def solve_constrained(mesh, A, b, fixed, lift, workspace, tol=1e-10,
                      max_iter=None, start=None):
    """Solve the SPD system ``A u = b`` on ``mesh`` with u = ``lift`` at the
    nodes of the mask ``fixed``; returns u on all nodes.

    The one solve path of the package: the V-cycle of the mesh hierarchy,
    supplied by the ``SolveWorkspace``, preconditions the conjugate
    gradients when there is one, the Jacobi diagonal otherwise, and the
    workspace counts the iterations.  PCG starts from the free entries of
    the field ``start`` when given, from zero otherwise.
    """
    A_FF, b_F = apply_dirichlet(A, b, fixed, lift)
    u = lift.copy()
    u[~fixed] = solve_spd(A_FF, b_F, tol=tol, max_iter=max_iter,
                          precond=workspace.preconditioner(mesh, A_FF, fixed),
                          x0=None if start is None else start[~fixed],
                          callback=workspace.count_iteration)
    return u


def solve_spd(A, b, tol=1e-10, max_iter=None, precond=None, x0=None,
              callback=None):
    """Preconditioned conjugate gradients for SPD systems.

    ``precond`` maps a residual r to an approximation of A^-1 r (for
    example a ``multigrid.VCycle``); without it the preconditioner is the
    Jacobi diagonal.  Starts from ``x0`` when given, from zero otherwise,
    and calls ``callback(x)`` after each iteration.  Stops at ``tol``
    relative residual |b - A x| <= tol |b|, at once when ``x0`` meets it.
    The updated residual of the recurrence drifts from b - A x by rounding
    in proportion to the iterates, so when it meets ``tol`` the true
    residual is formed once, and the iteration restarts from it when it
    does not meet ``tol``.  Raises NoConvergence after ``max_iter``
    iterations (10 n when None).
    """
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be positive")
    n = len(b)
    if n == 0:
        return np.zeros(0)
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise NoConvergence("matrix is not positive definite (diagonal)")
    if precond is None:
        def precond(r):
            return r / diag
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A @ x
        if np.linalg.norm(r) <= tol * bnorm:
            return x
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
        if callback is not None:
            callback(x)
        restart = np.linalg.norm(r) <= tol * bnorm
        if restart:
            r = b - A @ x
            if np.linalg.norm(r) <= tol * bnorm:
                return x
        z = precond(r)
        rz_new = float(r @ z)
        p = z if restart else z + (rz_new / rz) * p
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


def eval_I(mesh, u, m, data):
    """Reduced objective 1/2 |grad u|^2 - (f,u) + (1/2m) |u|_{1,GI}^2 - <g,u>."""
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
    """Fixed nodes of a solve as (mask, lift): u_D on the Dirichlet facets
    (the later edge wins at a shared corner), zero on the outer layer
    boundary of a glued mesh and at ``zero_nodes``; a Dirichlet value wins
    over a zero.  The lift holds those values and zero elsewhere."""
    n = len(mesh.nodes)
    fixed, lift = np.zeros(n, dtype=bool), np.zeros(n)
    fixed[np.asarray(zero_nodes, dtype=int)] = True
    fixed[mesh.marker_edges(LAYER_TOP)] = True
    for a, b, fid in mesh.boundary_edges_of(FacetLabel.DIRICHLET).tolist():
        fixed[a] = fixed[b] = True
        lift[a] = lift[b] = data.facet_value(data.u_D, fid)
    return fixed, lift
