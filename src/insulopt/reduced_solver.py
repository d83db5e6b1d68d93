"""Reduced convex problem: eliminate the thickness in closed form.

Minimizes I(v) = 1/2|grad v|^2 - (f,v) - <g,v> + (1/2m) |v|_{1,GI}^2 over
P1 fields with v = u_D on the Dirichlet part.  The non-smooth boundary term
uses the lumped trace norm sum_j w_j |v_j|, whose squared form has an exact
separable proximal map.  Two independent algorithms are provided and must
agree: accelerated proximal gradients on the free nodes, and alternating
minimization that bounces between the explicit optimal thickness and the
Robin solve.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonUniqueWarning, ZeroTrace
from .fem import (
    apply_dirichlet,
    assemble_load,
    assemble_neumann,
    boundary_l1,
    dirichlet_nodes,
    eval_I,
    lumped_boundary_diagonal,
    solve_constrained,
    solve_spd,  # noqa: F401  bound here for perfbench's tracer self-test
    stiffness,
)
from .meshing import insulated_chain

POWER_ITERATIONS = 50


@dataclass
class ProxWorkspace:
    """Boundary data of the non-smooth term: the insulated chain nodes,
    their lumped weights (summing to |Gamma_I|), and the mass scale."""

    nodes: np.ndarray
    weights: np.ndarray
    mass: float
    fixed_offset: float = 0.0  # contribution of Dirichlet-constrained nodes

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("lumped weights must be positive")


def prox_squared_l1(z, w, alpha, offset=0.0):
    """Exact proximal map of v -> (alpha/2) (sum_j w_j|v_j| + offset)^2.

    Returns (v, s) with s = sum_j w_j |v_j| at the minimizer.  The scalar s
    is the unique root of s = sum_j w_j max(|z_j| - alpha (s+offset) w_j, 0),
    found by sorting the deactivation breakpoints and solving the active
    piece in closed form; v is soft thresholding at alpha (s+offset) w_j.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if alpha <= 0:
        return z.copy(), float(np.sum(w * np.abs(z)))
    az = np.abs(z)
    b = az / (alpha * w) - offset          # s-values where components deactivate
    order = np.argsort(b)
    b_sorted = b[order]
    wz = (w * az)[order]
    w2 = (w * w)[order]
    # suffix sums over the active set {i : b_i > s}
    S1 = np.concatenate([np.cumsum(wz[::-1])[::-1], [0.0]])
    S2 = np.concatenate([np.cumsum(w2[::-1])[::-1], [0.0]])
    n = len(z)
    s = 0.0
    scale = max(1.0, float(np.max(az)) if n else 1.0)
    for k in range(n + 1):
        lo = b_sorted[k - 1] if k > 0 else -np.inf
        hi = b_sorted[k] if k < n else np.inf
        cand = (S1[k] - alpha * offset * S2[k]) / (1.0 + alpha * S2[k])
        if cand >= max(lo, 0.0) - 1e-12 * scale and cand <= hi + 1e-12 * scale:
            s = max(cand, 0.0)
            break
    else:  # fp ties: fall back to bisection on the monotone residual
        lo, hi = 0.0, float(np.sum(w * az))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - float(np.sum(w * np.maximum(az - alpha * (mid + offset) * w, 0.0))) < 0:
                lo = mid
            else:
                hi = mid
        s = 0.5 * (lo + hi)
    v = np.sign(z) * np.maximum(az - alpha * (s + offset) * w, 0.0)
    return v, s


def estimate_spectral_norm(A, iterations=POWER_ITERATIONS):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = A @ v
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return lam


def _setup(mesh, m, data):
    """The insulated chain, the load vector (source plus Neumann flux) and
    the Dirichlet node -> value map shared by both reduced methods."""
    data.validate(mesh.domain)
    if m <= 0:
        raise ValueError("mass must be positive")
    b = assemble_load(mesh, data.f) + assemble_neumann(mesh, data)
    fixed = dirichlet_nodes(mesh, data)
    if not fixed:
        warnings.warn(
            "no Dirichlet part: uniqueness of the reduced minimizer relies "
            "on the connectivity of the domain", NonUniqueWarning)
    return insulated_chain(mesh), b, fixed


def _prox_workspace(chain, sys, m):
    """Chain nodes of ``sys``'s free unknowns with their weights; the
    Dirichlet chain nodes enter through the constant ``fixed_offset``."""
    pos = np.full(sys.n, -1)
    pos[sys.free] = np.arange(len(sys.free))
    at = pos[chain.nodes]
    free = at >= 0
    fixed_trace = np.abs(sys.expand(np.zeros(len(sys.free)))[chain.nodes])
    offset = chain.weights[~free] * fixed_trace[~free]
    return ProxWorkspace(nodes=at[free], weights=chain.weights[free], mass=m,
                         fixed_offset=float(np.sum(offset)))


def _objective(sys, ws, x):
    quad = 0.5 * float(x @ (sys.matrix @ x)) - float(sys.rhs @ x)
    s = float(np.sum(ws.weights * np.abs(x[ws.nodes])))
    return quad + (s + ws.fixed_offset) ** 2 / (2.0 * ws.mass), s


def _subgradient_residual(sys, ws, x):
    """Best certified residual of 0 in A x - b + d(J)(x)."""
    g = sys.matrix @ x - sys.rhs
    s = float(np.sum(ws.weights * np.abs(x[ws.nodes])))
    sigma = (s + ws.fixed_offset) / ws.mass
    xi = np.zeros_like(g)
    vg = x[ws.nodes]
    bound = sigma * ws.weights
    xi_g = np.where(vg != 0.0, sigma * ws.weights * np.sign(vg),
                    np.clip(-g[ws.nodes], -bound, bound))
    xi[ws.nodes] = xi_g
    return float(np.linalg.norm(g + xi))


def solve_reduced_proxgrad(mesh, m, data, tol=1e-10, max_iter=200_000):
    """Accelerated proximal gradient (restart on objective increase)."""
    chain, b, fixed = _setup(mesh, m, data)
    sys = apply_dirichlet(stiffness(mesh), b, fixed)
    ws = _prox_workspace(chain, sys, m)
    bnorm = float(np.linalg.norm(sys.rhs))
    if bnorm == 0.0:
        u = sys.expand(np.zeros(len(sys.rhs)))
        return u, _report(mesh, chain, u, m, data, iterations=0, residual=0.0,
                          method="proxgrad")
    L = estimate_spectral_norm(sys.matrix)
    step = 1.0 / (1.001 * L)  # power iteration underestimates the norm

    def forward(xin):
        return xin - step * (sys.matrix @ xin - sys.rhs)

    def prox(zin):
        out = zin.copy()
        vg, _ = prox_squared_l1(zin[ws.nodes], ws.weights, step / ws.mass,
                                offset=ws.fixed_offset)
        out[ws.nodes] = vg
        return out

    x = prox(forward(np.zeros(len(sys.rhs))))
    y = x.copy()
    x_prev = x.copy()
    F_prev, _ = _objective(sys, ws, x)
    t = 1.0
    iterations = max_iter
    for it in range(1, max_iter + 1):
        x_new = prox(forward(y))
        F_new, _ = _objective(sys, ws, x_new)
        if F_new > F_prev:  # restart momentum with a plain descent step
            x_new = prox(forward(x))
            F_new, _ = _objective(sys, ws, x_new)
            t = 1.0
            y = x_new.copy()
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        x_prev, x, F_prev = x, x_new, F_new
        if it % 5 == 0 or it == 1:
            res = _subgradient_residual(sys, ws, x)
            if res <= tol * bnorm:
                iterations = it
                break
    else:
        raise NoConvergence(
            f"proximal gradient did not certify {tol:g}*|b| in {max_iter} steps")
    u = sys.expand(x)
    return u, _report(mesh, chain, u, m, data, iterations=iterations,
                      residual=_subgradient_residual(sys, ws, x) / bnorm,
                      method="proxgrad")


def solve_reduced_alternating(mesh, m, data, tol=1e-10, max_iter=500):
    """Alternate the explicit optimal thickness with the Robin solve.

    With the lumped interface rule the Robin weight of the reconstructed
    thickness is s/(m |v_j|), so each pass is an exact block descent on the
    discrete coupled functional.  Nodes whose weight is not finite (v_j = 0,
    or |v_j| so small that the weight overflows) become zero constraints,
    the d_j = 0 limit of the Robin penalization.
    """
    chain, b, _ = _setup(mesh, m, data)
    K = stiffness(mesh)

    gi_len = float(np.sum(chain.weights))
    weight = np.full(len(chain.nodes), gi_len / m)  # uniform thickness start
    zero_nodes = chain.nodes[:0]
    I_old = None
    for it in range(1, max_iter + 1):
        # the weight is zero at the zero-constrained nodes
        M = lumped_boundary_diagonal(mesh, chain, weight)
        u = solve_constrained(mesh, K + M, b,
                              dirichlet_nodes(mesh, data, zero_nodes), tol=tol)
        s = boundary_l1(chain, u)
        I_new = 0.5 * float(u @ (K @ u)) + s * s / (2.0 * m) - float(b @ u)
        if I_old is not None and abs(I_new - I_old) <= tol * (abs(I_new) + 1e-30):
            return u, _report(mesh, chain, u, m, data, iterations=it,
                              residual=abs(I_new - I_old), method="alternating")
        I_old = I_new
        if s == 0.0:
            raise ZeroTrace(
                "insulated trace vanished; optimal thickness is undefined")
        with np.errstate(divide="ignore", over="ignore"):
            weight = s / (m * np.abs(u[chain.nodes]))
        zero_mask = ~np.isfinite(weight)
        zero_nodes = chain.nodes[zero_mask]
        weight[zero_mask] = 0.0
    raise NoConvergence(f"alternating minimization stalled after {max_iter} passes")


def _report(mesh, chain, u, m, data, iterations, residual, method):
    rep = eval_I(mesh, u, m, data, chain=chain)
    rep.diagnostics.update({
        "iterations": iterations,
        "residual": residual,
        "method": method,
    })
    return rep


def solve_reduced(mesh, m, data, method="proxgrad", tol=1e-10, max_iter=None):
    """Front end over the two reduced-problem algorithms."""
    kw = {"max_iter": max_iter} if max_iter else {}
    if method == "proxgrad":
        return solve_reduced_proxgrad(mesh, m, data, tol=tol, **kw)
    if method == "alternating":
        return solve_reduced_alternating(mesh, m, data, tol=tol, **kw)
    raise ValueError("method must be 'proxgrad' or 'alternating'")
