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

Coarsening stops at COARSE_SIZE unknowns, which are solved densely.

The build has two halves.  ``transfers`` depends only on the mesh and the
fixed mask: the restricted P and R = P^T of each level.  ``VCycle`` takes
them and forms the operator half: the Galerkin products, the Jacobi weights
and the coarse Cholesky factor.  Every solve gets its V-cycle from a
``fem.SolveWorkspace``, which builds the transfers once per fixed mask and,
over a sequence of operators on one free set, keeps a whole V-cycle while
its operators stay spectrally equivalent to the one it was built for: when
Abar / 2 <= A <= 2 Abar, a V-cycle B for Abar gives
kappa(B A) <= 4 kappa(B Abar).  A fresh fine level over coarse levels of an
older operator has no such bound and is not used.  Nothing is kept on the
mesh.

Only numpy and scipy.sparse are used: importing scipy.linalg or
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


def transfers(mesh, fixed):
    """Restricted prolongations and restrictions (P, R = P^T) of the levels
    of ``mesh`` for the nodes outside the mask ``fixed``, fine to coarse,
    down to COARSE_SIZE free unknowns."""
    mask = ~fixed
    levels = []
    n_free = int(np.count_nonzero(mask))
    for n_coarse, rows, cols, weights in stencils(mesh):
        if n_free <= COARSE_SIZE:
            break
        P = prolongation(mask, n_coarse, rows, cols, weights)
        levels.append((P, P.T.tocsr()))
        mask = mask[:n_coarse]
        n_free = P.shape[1]
    return levels


class VCycle:
    """Symmetric V-cycle: ``vcycle(r)`` approximates A^-1 r for the
    operator A it was built for, from that operator and the ``transfers``
    of its free set.  Raises NoConvergence when a level shows that A is not
    positive definite."""

    def __init__(self, A, levels):
        self.levels = []  # (A, omega / diag(A), P, P^T), fine to coarse
        for P, R in levels:
            self.levels.append((A, _jacobi_weights(A), P, R))
            A = R @ (A @ P)
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


def rayleigh_power(apply, n, steps):
    """Rayleigh quotient v.apply(v) of the last of ``steps`` power
    iterations of the symmetric operator ``apply`` on R^n, started from a
    fixed random unit vector; 0 when an iterate is mapped to zero."""
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(steps):
        w = apply(v)
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return lam


def _jacobi_weights(A):
    """omega / diag(A), with omega = 4/(3 rho(D^-1 A))."""
    d = A.diagonal()
    if np.any(d <= 0):
        raise NoConvergence("matrix is not positive definite (diagonal)")
    s = 1.0 / np.sqrt(d)
    # rho(D^-1 A) is the largest eigenvalue of D^-1/2 A D^-1/2
    rho = rayleigh_power(lambda v: s * (A @ (s * v)), len(d), POWER_STEPS)
    return (4.0 / (3.0 * rho)) / d
