"""Geometric multigrid V-cycle on the red-refinement hierarchy.

One symmetric V-cycle preconditions the conjugate gradients of every SPD
solve on a mesh that carries its hierarchy (``TriMesh.hierarchy``).  Going
from fine to coarse, each level has:

* a prolongation P = [I; (e_a + e_b)/2]: the coarse nodes are a prefix of
  the fine nodes, and each midpoint interpolates its two parents.  A glued
  mesh adds one finest level that maps the bulk onto the fibers by the
  recovery sequence: the fiber node at level l of n_t gets
  u(base) (1 - l/n_t);
* only the free rows and columns of P, so a coarse node is fixed when it is
  fixed on the finer level, and the Galerkin coarse operator P^T A P;
* SMOOTHING_STEPS damped Jacobi steps before and after the coarse
  correction, with omega = 4/(3 rho), rho = rho(D^-1 A) estimated by
  POWER_STEPS power iterations.

Coarsening stops at COARSE_SIZE unknowns, which are solved densely.  Only
numpy and scipy.sparse are used: importing scipy.linalg or
scipy.sparse.linalg costs several MB of resident memory.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NoConvergence

SMOOTHING_STEPS = 2
POWER_STEPS = 10
COARSE_SIZE = 200


def stencils(mesh):
    """Interpolation stencils of the hierarchy of ``mesh``, fine to coarse.

    Yields (n_coarse, rows, cols, weights) per level: fine node ``rows[i]``
    takes ``weights[i]`` times coarse node ``cols[i]``, and the nodes below
    n_coarse are injected.
    """
    ext = mesh.extrusion
    if ext is not None:
        fibers, n_t = ext.fibers, ext.n_t
        levels = np.arange(1, n_t)  # the top level is zero
        yield (mesh.n_bulk_nodes, fibers[:, 1:n_t].ravel(),
               np.repeat(fibers[:, 0], n_t - 1),
               np.tile((n_t - levels) / n_t, len(fibers)))
    n = mesh.n_bulk_nodes
    for parents in reversed(mesh.hierarchy):
        n_coarse = n - len(parents)
        yield (n_coarse, np.repeat(np.arange(n_coarse, n), 2),
               parents.ravel(), np.full(parents.size, 0.5))
        n = n_coarse


def prolongation(free, n_coarse, rows, cols, weights):
    """CSR prolongation from the free coarse nodes to the free fine nodes.

    ``free`` masks the free fine nodes.  Both levels number their free
    nodes in node order, so the free coarse nodes are the leading free fine
    unknowns.
    """
    at = np.cumsum(free) - 1
    n_free_coarse = int(np.count_nonzero(free[:n_coarse]))
    keep = free[rows] & free[cols]
    r = np.concatenate([np.arange(n_free_coarse), at[rows[keep]]])
    c = np.concatenate([np.arange(n_free_coarse), at[cols[keep]]])
    v = np.concatenate([np.ones(n_free_coarse), weights[keep]])
    return sp.csr_matrix((v, (r, c)), shape=(int(at[-1]) + 1, n_free_coarse))


def preconditioner(mesh, A, free=None):
    """V-cycle for ``A`` on the ``free`` nodes of ``mesh`` (all nodes when
    None); None when the mesh has no hierarchy.

    Raises NoConvergence when a level shows that ``A`` is not positive
    definite.
    """
    if not mesh.hierarchy or A.shape[0] == 0:
        return None
    if free is None:
        mask = np.ones(len(mesh.nodes), dtype=bool)
    else:
        mask = np.zeros(len(mesh.nodes), dtype=bool)
        mask[free] = True
    return VCycle(A, mask, stencils(mesh))


class VCycle:
    """Symmetric V-cycle: ``vcycle(r)`` approximates A^-1 r."""

    def __init__(self, A, free, stencils):
        self.levels = []  # (A, omega / diag(A), P, P^T), fine to coarse
        for n_coarse, rows, cols, weights in stencils:
            if A.shape[0] <= COARSE_SIZE:
                break
            P = prolongation(free, n_coarse, rows, cols, weights)
            R = P.T.tocsr()
            self.levels.append((A, _jacobi_weights(A), P, R))
            A = R @ (A @ P)
            free = free[:n_coarse]
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A.toarray()))
        except np.linalg.LinAlgError:
            raise NoConvergence(
                "matrix is not positive definite (coarsest level)") from None
        self.coarse = L_inv.T @ L_inv

    def __call__(self, r, k=0):
        if k == len(self.levels):
            return self.coarse @ r
        A, w, P, R = self.levels[k]
        x = w * r
        for _ in range(SMOOTHING_STEPS - 1):
            x += w * (r - A @ x)
        x += P @ self(R @ (r - A @ x), k + 1)
        for _ in range(SMOOTHING_STEPS):
            x += w * (r - A @ x)
        return x


def _jacobi_weights(A):
    """omega / diag(A), with omega = 4/(3 rho(D^-1 A))."""
    d = A.diagonal()
    if np.any(d <= 0):
        raise NoConvergence("matrix is not positive definite (diagonal)")
    s = 1.0 / np.sqrt(d)
    # power iteration on the similar symmetric matrix D^-1/2 A D^-1/2
    v = np.random.default_rng(0).standard_normal(len(d))
    for _ in range(POWER_STEPS):
        v /= np.linalg.norm(v)
        w = s * (A @ (s * v))
        rho = float(v @ w)
        v = w
    return (4.0 / (3.0 * rho)) / d
