"""Geometric multigrid V-cycle on the red-refinement hierarchy.

One symmetric V-cycle preconditions the conjugate gradients of every SPD
solve on a mesh that carries its hierarchy (``TriMesh.hierarchy``).  Going
from fine to coarse, each level has:

* a prolongation P that injects the coarse nodes and interpolates each
  midpoint from its two parents with weights 1/2.  On a bulk mesh the
  coarse nodes are a prefix of the fine nodes.  A glued mesh coarsens its
  layer with the bulk: every level keeps the fibers over the chain nodes of
  its bulk level, a fiber over a coarse chain node is injected, and the
  fiber over a boundary midpoint takes 1/2 of each parent's fiber at the
  same fiber level.  So the coarse nodes are listed explicitly
  (``stencils``);
* only the free rows and columns of P, so a coarse node is fixed when the
  fine node injected into it is fixed, and the Galerkin coarse operator
  P^T A P;
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

    Yields (coarse, rows, cols, weights) per level: coarse node i is fine
    node ``coarse[i]``, and fine node ``rows[k]`` takes ``weights[k]``
    times coarse node ``cols[k]``.  A level of a glued mesh numbers its
    bulk nodes first, then the levels 1..n_t of the fibers over its chain
    nodes, fiber by fiber in the order of ``ExtrusionInfo.fibers``.
    """
    ext = mesh.extrusion
    fibers = np.zeros((0, 1), dtype=int) if ext is None else ext.fibers
    n_t = fibers.shape[1] - 1
    base = fibers[:, 0]
    row_of = np.full(mesh.n_bulk_nodes, -1)  # the fiber over a bulk node
    row_of[base] = np.arange(len(fibers))
    levels = np.arange(n_t)

    def layer_ids(n, rows):
        """Level ids of the fiber nodes of ``rows`` on the level with n bulk
        nodes, (len(rows), n_t)."""
        rank = np.cumsum(base < n) - 1
        return n + (rank[rows] * n_t)[:, None] + levels

    n = mesh.n_bulk_nodes
    for parents in reversed(mesh.hierarchy):
        n_coarse = n - len(parents)
        kept = np.flatnonzero(base < n_coarse)
        coarse = np.concatenate([np.arange(n_coarse),
                                 layer_ids(n, kept).ravel()])
        # a fiber over a midpoint takes half of each parent's fiber
        mid = np.flatnonzero((base >= n_coarse) & (base < n))
        ends = row_of[parents[base[mid] - n_coarse]]
        rows = np.concatenate([np.repeat(np.arange(n_coarse, n), 2),
                               np.repeat(layer_ids(n, mid), 2, axis=0).ravel()])
        cols = np.concatenate([parents.ravel(), np.stack(
            [layer_ids(n_coarse, ends[:, 0]), layer_ids(n_coarse, ends[:, 1])],
            axis=1).ravel()])
        yield coarse, rows, cols, np.full(len(rows), 0.5)
        n = n_coarse


def prolongation(free, coarse, rows, cols, weights):
    """CSR prolongation from the free coarse nodes to the free fine nodes.

    ``free`` masks the free fine nodes; a coarse node is free when the fine
    node injected into it is.  Both levels number their free nodes in node
    order.
    """
    free_coarse = free[coarse]
    at, at_coarse = np.cumsum(free) - 1, np.cumsum(free_coarse) - 1
    injected = coarse[free_coarse]
    keep = free[rows] & free_coarse[cols]
    r = np.concatenate([at[injected], at[rows[keep]]])
    c = np.concatenate([np.arange(len(injected)), at_coarse[cols[keep]]])
    v = np.concatenate([np.ones(len(injected)), weights[keep]])
    return sp.csr_matrix((v, (r, c)), shape=(int(at[-1]) + 1, len(injected)))


def transfers(mesh, fixed):
    """Restricted prolongations and restrictions (P, R = P^T) of the levels
    of ``mesh`` for the nodes outside the mask ``fixed``, fine to coarse,
    down to COARSE_SIZE free unknowns."""
    free = ~fixed
    levels = []
    n_free = int(np.count_nonzero(free))
    for coarse, rows, cols, weights in stencils(mesh):
        if n_free <= COARSE_SIZE:
            break
        P = prolongation(free, coarse, rows, cols, weights)
        levels.append((P, P.T.tocsr()))
        free = free[coarse]
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
