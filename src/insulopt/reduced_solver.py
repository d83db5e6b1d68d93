"""Reduced convex problem: eliminate the thickness in closed form.

Minimizes I(v) = 1/2|grad v|^2 - (f,v) - <g,v> + (1/2m) |v|_{1,GI}^2 over
P1 fields with v = u_D on the Dirichlet part.  The non-smooth boundary term
uses the lumped trace norm sum_j w_j |v_j|, whose squared form has an exact
separable proximal map.  Two independent algorithms are provided and must
agree: accelerated proximal gradients on the free nodes, and alternating
minimization that bounces between the explicit optimal thickness and the
Robin solve, Anderson-accelerated under an energy safeguard.
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonUniqueWarning, ZeroTrace
from .fem import (
    SolveWorkspace,
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
from .multigrid import rayleigh_power

POWER_ITERATIONS = 50
# depth of the alternating method's Anderson mixing: the differences of the
# last ANDERSON_DEPTH + 1 (G(u), G(u) - u) pairs enter the least squares
ANDERSON_DEPTH = 5


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
    return rayleigh_power(lambda v: A @ v, A.shape[0], iterations)


def _setup(mesh, m, data):
    """The insulated chain, the load vector (source plus Neumann flux) and
    the Dirichlet mask and lift shared by both reduced methods."""
    data.validate(mesh.domain)
    if m <= 0:
        raise ValueError("mass must be positive")
    b = assemble_load(mesh, data.f) + assemble_neumann(mesh, data)
    fixed, lift = dirichlet_nodes(mesh, data)
    if not fixed.any():
        warnings.warn(
            "no Dirichlet part: uniqueness of the reduced minimizer relies "
            "on the connectivity of the domain", NonUniqueWarning)
    return insulated_chain(mesh), b, fixed, lift


def _prox_workspace(chain, fixed, lift, m):
    """Chain nodes among the unknowns outside the mask ``fixed``, numbered
    in node order, with their weights; the fixed chain nodes enter through
    the constant ``fixed_offset`` of the ``lift``."""
    at = (np.cumsum(~fixed) - 1)[chain.nodes]
    keep = ~fixed[chain.nodes]
    offset = chain.weights[~keep] * np.abs(lift[chain.nodes[~keep]])
    return ProxWorkspace(nodes=at[keep], weights=chain.weights[keep], mass=m,
                         fixed_offset=float(np.sum(offset)))


def _subgradient_residual(g, ws, x):
    """Best certified residual of 0 in g + d(J)(x), where g = A x - b is
    the gradient of the quadratic part on the free unknowns x."""
    s = float(np.sum(ws.weights * np.abs(x[ws.nodes])))
    sigma = (s + ws.fixed_offset) / ws.mass
    xi = np.zeros_like(g)
    vg = x[ws.nodes]
    bound = sigma * ws.weights
    xi_g = np.where(vg != 0.0, sigma * ws.weights * np.sign(vg),
                    np.clip(-g[ws.nodes], -bound, bound))
    xi[ws.nodes] = xi_g
    return float(np.linalg.norm(g + xi))


def _certified_residual(K, b, fixed, lift, chain, m, u):
    """``_subgradient_residual`` / |b_F| of the full field ``u``, read from
    K u - b on the nodes F outside the Dirichlet mask ``fixed`` without
    forming the eliminated system."""
    free = ~fixed
    ws = _prox_workspace(chain, fixed, lift, m)
    res = _subgradient_residual((K @ u - b)[free], ws, u[free])
    bnorm = float(np.linalg.norm((b - K @ lift)[free]))
    return res / bnorm if bnorm > 0.0 else res


def solve_reduced_proxgrad(mesh, m, data, tol=1e-10, max_iter=200_000):
    """Accelerated proximal gradient (FISTA) with gradient restart.

    The momentum is reset (t = 1, y = x_new) whenever the step just taken
    points against the proximal-gradient direction, (y - x_new).(x_new - x)
    > 0 (O'Donoghue & Candes, "Adaptive restart for accelerated gradient
    schemes", 2015).  The test needs no objective value, so one step costs
    one matrix-vector product and one proximal map.
    """
    chain, b, fixed, lift = _setup(mesh, m, data)
    A, b_F = apply_dirichlet(stiffness(mesh), b, fixed, lift)
    ws = _prox_workspace(chain, fixed, lift, m)
    bnorm = float(np.linalg.norm(b_F))
    u = lift.copy()
    if bnorm == 0.0:
        return u, _report(mesh, u, m, data, iterations=0, residual=0.0,
                          method="proxgrad", certified_residual=0.0,
                          restarts=0)
    L = estimate_spectral_norm(A)
    step = 1.0 / (1.001 * L)  # power iteration underestimates the norm

    def forward(xin):
        return xin - step * (A @ xin - b_F)

    def prox(zin):
        out = zin.copy()
        vg, _ = prox_squared_l1(zin[ws.nodes], ws.weights, step / ws.mass,
                                offset=ws.fixed_offset)
        out[ws.nodes] = vg
        return out

    x = prox(forward(np.zeros(len(b_F))))
    y = x
    t = 1.0
    restarts = 0
    for it in range(1, max_iter + 1):
        x_new = prox(forward(y))
        if (y - x_new) @ (x_new - x) > 0:  # restart the momentum
            t = 1.0
            y = x_new
            restarts += 1
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        x = x_new
        if it % 5 == 0 or it == 1:
            res = _subgradient_residual(A @ x - b_F, ws, x)
            if res <= tol * bnorm:
                break
    else:
        raise NoConvergence(
            f"proximal gradient did not certify {tol:g}*|b| in {max_iter} steps")
    u[~fixed] = x
    return u, _report(mesh, u, m, data, iterations=it,
                      residual=res / bnorm, method="proxgrad",
                      certified_residual=res / bnorm, restarts=restarts)


def _anderson_mix(history):
    """Type-II Anderson mix of the (G(u_i), G(u_i) - u_i) pairs in
    ``history``, oldest first: G(u_k) - dG gamma, with gamma the least-squares
    fit of dF gamma ~ f_k over the differences of consecutive pairs.  The
    coefficients of the G(u_i) sum to 1, so values shared by all of them (the
    Dirichlet data, the pinned zeros) are kept exactly.  None when gamma is
    not finite."""
    G = np.array([g for g, _ in history]).T
    F = np.array([f for _, f in history]).T
    gamma = np.linalg.lstsq(np.diff(F, axis=1), F[:, -1], rcond=None)[0]
    if not np.all(np.isfinite(gamma)):
        return None
    return G[:, -1] - np.diff(G, axis=1) @ gamma


def solve_reduced_alternating(mesh, m, data, tol=1e-10, max_iter=500):
    """Alternate the explicit optimal thickness with the Robin solve, and
    Anderson-mix the passes where that lowers the energy.

    With the lumped interface rule the Robin weight of the reconstructed
    thickness is s/(m |v_j|), so each pass is an exact block descent on the
    discrete coupled functional: the Robin field G(u) of the thickness of u
    has I(G(u)) <= I(u).  Nodes whose weight is not finite (u_j = 0, or
    |u_j| so small that the weight overflows) become zero constraints, the
    d_j = 0 limit of the Robin penalization.

    The last ``ANDERSON_DEPTH`` + 1 pairs (G(u), G(u) - u) form the type-II
    Anderson mix of depth ``ANDERSON_DEPTH`` (``_anderson_mix``; Walker &
    Ni, SIAM J. Numer. Anal. 2011).  The next pass starts from the mix only
    if I(mix) < I(G(u)), and from G(u) otherwise, so I never increases (the
    safeguard of Zhang, O'Donoghue & Boyd, SIAM J. Optim. 2020).  The
    history is cleared when the set of pinned nodes changes.  The loop stops
    after a plain pass that lowers I by at most ``tol`` relative, and
    returns that pass's G(u).

    Each pass starts conjugate gradients from the field u it was formed
    from.  One ``SolveWorkspace``, dropped on return, keeps the multigrid
    transfers until a node is pinned, and the V-cycle while the lumped
    Robin diagonal stays within ``fem.REUSE_FACTOR`` of the one it was
    built for: the stiffness part of every pass is the same.  The report's
    diagnostics carry the PCG iterations of all passes, the transfer and
    V-cycle builds, and the accepted mixes (``accelerated``).
    """
    chain, b, fixed, lift = _setup(mesh, m, data)
    K = stiffness(mesh)
    workspace = SolveWorkspace()

    def energy(v):
        s = boundary_l1(chain, v)
        return 0.5 * float(v @ (K @ v)) + s * s / (2.0 * m) - float(b @ v), s

    gi_len = float(np.sum(chain.weights))
    weight = np.full(len(chain.nodes), gi_len / m)  # uniform thickness start
    zero_mask = np.zeros(len(chain.nodes), dtype=bool)
    u = None
    I_u = None
    history = deque(maxlen=ANDERSON_DEPTH + 1)
    accelerated = 0
    for it in range(1, max_iter + 1):
        # the weight is zero at the zero-constrained nodes
        M = lumped_boundary_diagonal(mesh, chain, weight)
        workspace.robin = M.diagonal()
        pinned = fixed.copy()
        pinned[chain.nodes[zero_mask]] = True
        g = solve_constrained(mesh, K + M, b, pinned, lift, tol=tol, start=u,
                              workspace=workspace)
        I_g, s_g = energy(g)
        if I_u is not None and abs(I_g - I_u) <= tol * (abs(I_g) + 1e-30):
            return g, _report(
                mesh, g, m, data, iterations=it,
                residual=abs(I_g - I_u), method="alternating",
                certified_residual=_certified_residual(K, b, fixed, lift,
                                                       chain, m, g),
                accelerated=accelerated, **workspace.work())
        if u is not None:
            history.append((g, g - u))
        u, I_u, s = g, I_g, s_g
        if len(history) >= 2:
            mix = _anderson_mix(history)
            if mix is not None:
                I_mix, s_mix = energy(mix)
                if I_mix < I_g:
                    u, I_u, s = mix, I_mix, s_mix
                    accelerated += 1
        if s == 0.0:
            raise ZeroTrace(
                "insulated trace vanished; optimal thickness is undefined")
        with np.errstate(divide="ignore", over="ignore"):
            weight = s / (m * np.abs(u[chain.nodes]))
        unbounded = ~np.isfinite(weight)
        if not np.array_equal(unbounded, zero_mask):
            history.clear()
        zero_mask = unbounded
        weight[zero_mask] = 0.0
    raise NoConvergence(f"alternating minimization stalled after {max_iter} passes")


def _report(mesh, u, m, data, iterations, residual, method, **extra):
    rep = eval_I(mesh, u, m, data)
    rep.diagnostics.update({
        "iterations": iterations,
        "residual": residual,
        "method": method,
        **extra,
    })
    return rep


def solve_reduced(mesh, m, data, method="proxgrad", tol=1e-10, max_iter=None):
    """Front end over the two reduced-problem algorithms; ``max_iter`` None
    keeps each method's default."""
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be positive")
    kw = {} if max_iter is None else {"max_iter": max_iter}
    if method == "proxgrad":
        return solve_reduced_proxgrad(mesh, m, data, tol=tol, **kw)
    if method == "alternating":
        return solve_reduced_alternating(mesh, m, data, tol=tol, **kw)
    raise ValueError("method must be 'proxgrad' or 'alternating'")
