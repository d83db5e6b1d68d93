"""Polygonal domains, transversal boundary fields, and thin-layer geometry.

The boundary of a simple polygon is partitioned into labeled facets
(insulated / Dirichlet / Neumann).  A unit-length Lipschitz vector field k
with k.n >= kappa > 0 on the insulated part replaces the (discontinuous)
outward normal when sweeping the thin insulating layer

    {x(s) + t k(s) : s on the insulated boundary, 0 <= t < eps*d(s)},

where d is a nodal thickness profile in direction of k.  All evaluations are
parametrized by the global boundary arc-length s measured counter-clockwise
from vertex 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from .errors import (
    InvalidDomain,
    ModeInvalid,
    NonInjectiveLayer,
    TransversalityFailure,
)

# Gauss-Legendre rule used for all arc-length line integrals (degree 31).
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)

KAPPA_FLOOR = 1e-6
FIELD_SAMPLES_PER_FACET = 64


class FacetLabel(str, Enum):
    INSULATED = "insulated"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Facet:
    start: int
    end: int
    label: FacetLabel


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _segments_intersect(p1, p2, q1, q2):
    """Proper or touching intersection of segments p1p2 and q1q2."""
    d1 = _cross2(p2 - p1, q1 - p1)
    d2 = _cross2(p2 - p1, q2 - p1)
    d3 = _cross2(q2 - q1, p1 - q1)
    d4 = _cross2(q2 - q1, p2 - q1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(a, b, c):
        if abs(_cross2(b - a, c - a)) > 1e-14 * max(1.0, np.abs(b - a).max()):
            return False
        return (
            min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
            and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14
        )

    return (
        on_seg(p1, p2, q1)
        or on_seg(p1, p2, q2)
        or on_seg(q1, q2, p1)
        or on_seg(q1, q2, p2)
    )


@dataclass
class InsulatedComponent:
    """Maximal run of consecutive insulated facets."""

    facets: list[int]
    start_arc: float
    length: float
    cyclic: bool
    # arc offset of each facet relative to the component start
    facet_offsets: dict[int, float] = dc_field(default_factory=dict)


class PolygonalDomain:
    """Simple closed CCW polygon with a labeled boundary partition.

    Facets are the polygon sides in traversal order; each carries one of the
    three boundary labels and a constant outward unit normal (the piece-wise
    flat setting).  At least one facet must be insulated.
    """

    def __init__(self, vertices, labels):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2 or len(vertices) < 3:
            raise InvalidDomain("vertices must be an (n,2) array with n >= 3")
        n = len(vertices)
        labels = [FacetLabel(l) for l in labels]
        if len(labels) != n:
            raise InvalidDomain("need one facet label per polygon side")
        self.vertices = vertices
        self.facets = [Facet(i, (i + 1) % n, labels[i]) for i in range(n)]
        # (start, end) vertex of every facet, for array-valued evaluations
        self.facet_vertices = np.array([(f.start, f.end) for f in self.facets])

        edges = vertices[(np.arange(n) + 1) % n] - vertices
        self.lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(self.lengths <= 0):
            raise InvalidDomain("zero-length facet")
        self.tangents = edges / self.lengths[:, None]
        # outward normal of a CCW polygon: tangent rotated by -90 degrees
        self.normals = np.column_stack([self.tangents[:, 1], -self.tangents[:, 0]])

        area2 = float(np.sum(vertices[:, 0] * np.roll(vertices[:, 1], -1)
                             - np.roll(vertices[:, 0], -1) * vertices[:, 1]))
        if area2 <= 0:
            raise InvalidDomain("polygon must be counter-clockwise with positive area")
        self.area = 0.5 * area2

        self._check_simple()

        if not any(f.label is FacetLabel.INSULATED for f in self.facets):
            raise InvalidDomain("at least one facet must be insulated")

        self.facet_arc_start = np.concatenate([[0.0], np.cumsum(self.lengths)[:-1]])
        self.perimeter = float(np.sum(self.lengths))
        self.insulated_components = self._build_components()
        self._facet_component = {}
        for ci, comp in enumerate(self.insulated_components):
            for fid in comp.facets:
                self._facet_component[fid] = ci

    def _check_simple(self):
        v = self.vertices
        n = len(v)
        for i in range(n):
            for j in range(i + 1, n):
                # skip adjacent edges (they share a vertex by construction)
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                    raise InvalidDomain(
                        f"polygon is not simple: sides {i} and {j} intersect")

    def _build_components(self):
        n = len(self.facets)
        ins = [f.label is FacetLabel.INSULATED for f in self.facets]
        if all(ins):
            out = [InsulatedComponent(list(range(n)), 0.0, self.perimeter,
                                      True)]
        else:
            comps = []
            # start scanning right after a non-insulated facet
            start = next(i for i in range(n) if not ins[i])
            run = []
            for k in range(1, n + 1):
                i = (start + k) % n
                if ins[i]:
                    run.append(i)
                elif run:
                    comps.append(run)
                    run = []
            if run:
                comps.append(run)
            out = []
            for run in comps:
                length = float(sum(self.lengths[f] for f in run))
                out.append(InsulatedComponent(
                    run, float(self.facet_arc_start[run[0]]), length, False))
            out.sort(key=lambda c: c.start_arc)
        for comp in out:
            off = 0.0
            for fid in comp.facets:
                comp.facet_offsets[fid] = off
                off += self.lengths[fid]
        return out

    # -- boundary parametrization ------------------------------------------

    def facet_point(self, fid, lam):
        """Point at parameter(s) ``lam`` of facet ``fid``, or of the facets
        of an id array aligned with ``lam``."""
        start, end = self.facet_vertices[fid].T
        a, b = self.vertices[start], self.vertices[end]
        lam = np.asarray(lam, dtype=float)
        return a + lam[..., None] * (b - a)

    def locate(self, s):
        """Global arc coordinate -> (facet id, local parameter in [0,1])."""
        s = float(s) % self.perimeter
        fid = int(np.searchsorted(self.facet_arc_start, s, side="right") - 1)
        lam = (s - self.facet_arc_start[fid]) / self.lengths[fid]
        return fid, float(lam)

    def component_of_facet(self, fid):
        return self._facet_component.get(fid)

    def insulated_length(self):
        return float(sum(c.length for c in self.insulated_components))

    def facet_ids(self, label):
        return [i for i, f in enumerate(self.facets) if f.label is label]


# ---------------------------------------------------------------------------
# Transversal vector fields
# ---------------------------------------------------------------------------

class FieldMode(str, Enum):
    BISECTOR = "bisector"
    FACET_NORMAL = "facet_normal"


class TransversalField:
    """Unit boundary vector field with a uniform transversality constant.

    Per-vertex unit vectors are interpolated linearly along each facet and
    renormalized, which keeps |k| = 1 everywhere while remaining Lipschitz.
    ``kappa`` is the sampled minimum of k.n over the insulated facets.
    """

    def __init__(self, domain, vertex_vectors, kappa, mode):
        self.domain = domain
        self.vertex_vectors = vertex_vectors
        self.kappa = kappa
        self.mode = mode

    def _interpolant(self, fid, lam):
        """Unit vectors at the facet ends and their linear interpolant
        g(lam); ``fid`` is one facet or an id array aligned with ``lam``."""
        start, end = self.domain.facet_vertices[fid].T
        ka, kb = self.vertex_vectors[start], self.vertex_vectors[end]
        bad = np.isnan(ka + kb).any(axis=-1)
        if np.any(bad):
            raise ModeInvalid(
                f"field undefined on facet {np.extract(bad, fid)[0]}")
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        return ka, kb, ka + lam[:, None] * (kb - ka)

    def k_at(self, fid, lam):
        """Unit vector at local parameter(s) ``lam`` of facet ``fid``."""
        _, _, g = self._interpolant(fid, lam)
        norm = np.hypot(g[:, 0], g[:, 1])
        return g / norm[:, None]

    def k_prime_at(self, fid, lam):
        """Exact arc-length derivative of the renormalized interpolant."""
        ka, kb, g = self._interpolant(fid, lam)
        gp = (kb - ka) / self.domain.lengths[fid, None]
        norm = np.hypot(g[:, 0], g[:, 1])
        gdotgp = g[:, 0] * gp[..., 0] + g[:, 1] * gp[..., 1]
        return gp / norm[:, None] - g * (gdotgp / norm**3)[:, None]

    def k_dot_n(self, fid, lam):
        """k.n at parameter(s) ``lam``, elementwise so that it does not
        depend on how many points are evaluated at once."""
        k = self.k_at(fid, lam)
        n = self.domain.normals[fid]
        return k[:, 0] * n[..., 0] + k[:, 1] * n[..., 1]

    def eval_k(self, s):
        fid, lam = self.domain.locate(s)
        return self.k_at(fid, lam)[0]


def build_transversal_field(domain, mode):
    """Construct a transversal field in bisector or facet-normal mode.

    Bisector mode assigns each vertex the normalized sum of the two adjacent
    facet normals, giving k.n = cos(|pi - theta|/2) > 0 at every corner of a
    simple polygon.  Facet-normal mode uses the facet normal itself on
    isolated insulated facets (machine-precision pseudo-1D test cases).
    """
    mode = FieldMode(mode)
    n = len(domain.vertices)
    vecs = np.full((n, 2), np.nan)

    if mode is FieldMode.BISECTOR:
        for v in range(n):
            prev_f = (v - 1) % n
            sum_n = domain.normals[prev_f] + domain.normals[v]
            norm = float(np.hypot(*sum_n))
            if norm <= 1e-12:
                raise TransversalityFailure(
                    f"degenerate cusp at vertex {v}: adjacent normals cancel")
            vecs[v] = sum_n / norm
    else:
        ins = set(domain.facet_ids(FacetLabel.INSULATED))
        for fid in ins:
            f = domain.facets[fid]
            for w in (f.start, f.end):
                for other in ins:
                    if other == fid:
                        continue
                    of = domain.facets[other]
                    if w in (of.start, of.end):
                        raise ModeInvalid(
                            "facet-normal mode requires insulated facets "
                            f"to be isolated; facets {fid} and {other} share "
                            f"vertex {w}")
            vecs[f.start] = domain.normals[fid]
            vecs[f.end] = domain.normals[fid]

    field = TransversalField(domain, vecs, kappa=np.nan, mode=mode)
    lam = np.linspace(0.0, 1.0, FIELD_SAMPLES_PER_FACET)
    kmin = np.inf
    for fid in domain.facet_ids(FacetLabel.INSULATED):
        kmin = min(kmin, float(np.min(field.k_dot_n(fid, lam))))
    if kmin <= KAPPA_FLOOR:
        raise TransversalityFailure(
            f"sampled min of k.n = {kmin:.3e} <= {KAPPA_FLOOR:.0e}")
    field.kappa = kmin
    return field


# ---------------------------------------------------------------------------
# Thickness distributions
# ---------------------------------------------------------------------------

def _lumped_weights(coords, cyclic, total_length):
    """Half-sum of adjacent segment lengths per chain node."""
    coords = np.asarray(coords, dtype=float)
    segs = np.diff(coords)
    w = np.zeros(len(coords))
    w[:-1] += 0.5 * segs
    w[1:] += 0.5 * segs
    if cyclic:
        wrap = total_length - coords[-1] + coords[0]
        w[0] += 0.5 * wrap
        w[-1] += 0.5 * wrap
    return w


class InsulationDistribution:
    """Piecewise-linear thickness profile on the insulated boundary.

    Values are stored nodally per insulated component, with coordinates
    measured from the component start.  The stored mass uses the lumped rule
    m = sum_j w_j (k.n)_j d_j on the distribution's own chain, which is the
    convention that makes the discrete mass constraint and the inner-argmin
    identity of the reduced problem exact.
    """

    def __init__(self, field, component_coords, component_values, d_min=0.0):
        self.field = field
        self.domain = field.domain
        self.component_coords = [np.asarray(c, dtype=float) for c in component_coords]
        self.component_values = [np.asarray(v, dtype=float) for v in component_values]
        self.d_min = float(d_min)
        comps = self.domain.insulated_components
        if len(self.component_coords) != len(comps):
            raise InvalidDomain("one nodal array per insulated component required")
        for coords, vals in zip(self.component_coords, self.component_values):
            if not (np.all(np.isfinite(coords)) and np.all(np.isfinite(vals))):
                raise InvalidDomain("thickness samples must be finite")
            if np.any(vals < 0):
                raise InvalidDomain("thickness must be non-negative")
            if self.d_min > 0 and np.any(vals < self.d_min):
                raise InvalidDomain("thickness below the declared floor d_min")
        self.component_kn = [
            field.k_dot_n(*_component_locate(self.domain, comp, coords))
            for comp, coords in zip(comps, self.component_coords)]
        self.mass = self._lumped_mass()

    @classmethod
    def constant(cls, field, value, d_min=0.0):
        coords, values = [], []
        for comp in field.domain.insulated_components:
            offs = [comp.facet_offsets[f] for f in comp.facets]
            # cyclic chains store each node once; the wrap segment is implicit
            c = np.array(offs if comp.cyclic else offs + [comp.length])
            coords.append(c)
            values.append(np.full(len(c), float(value)))
        return cls(field, coords, values, d_min=d_min)

    @classmethod
    def from_arc_samples(cls, field, arcs, values, d_min=0.0):
        """Nodal profile given at global arc coordinates (e.g. from CSV)."""
        arcs = np.asarray(arcs, dtype=float)
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arcs)):
            raise InvalidDomain("thickness samples must be finite")
        order = np.argsort(arcs)
        arcs, values = arcs[order], values[order]
        domain = field.domain
        coords, vals = [], []
        for comp in domain.insulated_components:
            cc, vv = [], []
            for s, d in zip(arcs, values):
                rel = (s - comp.start_arc) % domain.perimeter
                if rel <= comp.length + 1e-12:
                    cc.append(min(rel, comp.length))
                    vv.append(d)
            if not cc:
                raise InvalidDomain("no thickness samples on an insulated component")
            cc = np.array(cc)
            vv = np.array(vv)
            order = np.argsort(cc)
            coords.append(cc[order])
            vals.append(vv[order])
        return cls(field, coords, vals, d_min=d_min)

    def value_at(self, comp_idx, coord):
        comp = self.domain.insulated_components[comp_idx]
        c = self.component_coords[comp_idx]
        v = self.component_values[comp_idx]
        coord = np.atleast_1d(np.asarray(coord, dtype=float))
        if comp.cyclic:
            # periodic: the wrap segment runs from the last node to c[0] + L
            coord = c[0] + (coord - c[0]) % comp.length
            c_aug = np.concatenate([c, [c[0] + comp.length]])
            v_aug = np.concatenate([v, [v[0]]])
            return np.interp(coord, c_aug, v_aug)
        return np.interp(coord, c, v)

    def max_value(self):
        return max(float(v.max()) for v in self.component_values)

    def _lumped_mass(self):
        total = 0.0
        for ci, comp in enumerate(self.domain.insulated_components):
            coords = self.component_coords[ci]
            w = _lumped_weights(coords, comp.cyclic, comp.length)
            total += float(np.sum(w * self.component_kn[ci]
                                  * self.component_values[ci]))
        return total


def _component_locate(domain, comp, coords):
    """Component-relative coordinates -> (facet ids, local parameters)."""
    coords = np.asarray(coords, dtype=float)
    if comp.cyclic:
        coords = coords % comp.length
    coords = np.clip(coords, 0.0, comp.length)
    facets = np.array(comp.facets)
    offsets = np.array([comp.facet_offsets[f] for f in comp.facets])
    lengths = domain.lengths[facets]
    # the first facet whose end is not before the coordinate
    at = np.minimum(np.searchsorted(offsets + lengths, coords),
                    len(facets) - 1)
    return facets[at], np.clip((coords - offsets[at]) / lengths[at], 0.0, 1.0)


# ---------------------------------------------------------------------------
# Layer map and exact layer quadrature
# ---------------------------------------------------------------------------

def layer_point(field, s, t):
    """Point x(s) + t k(s) of the fiber through the boundary point at arc s."""
    domain = field.domain
    fid, lam = domain.locate(s)
    x = domain.facet_point(fid, lam)
    return x + t * field.k_at(fid, lam)[0]


def layer_jacobian(field, s, t):
    """Area density of the fiber map at (s, t).

    Equals cross(k, tau + t k') with tau the unit tangent; at t = 0 this is
    exactly k(s).n(s).  A non-positive value means the layer map is no longer
    injective at this thickness.
    """
    domain = field.domain
    fid, lam = domain.locate(s)
    k = field.k_at(fid, lam)[0]
    kp = field.k_prime_at(fid, lam)[0]
    tau = domain.tangents[fid]
    val = float(k[0] * (tau[1] + t * kp[1]) - k[1] * (tau[0] + t * kp[0]))
    if val <= 0.0:
        raise NonInjectiveLayer(
            f"layer density {val:.3e} <= 0 at s={s:.6g}, t={t:.6g}")
    return val


def _arc_gauss_nodes(field, dist):
    """Gauss nodes of every insulated facet sub-segment between thickness
    breakpoints: yields (component, facet, local parameters, thickness
    values, half sub-segment length)."""
    domain = field.domain
    for ci, comp in enumerate(domain.insulated_components):
        coords = dist.component_coords[ci]
        for fid in comp.facets:
            off = comp.facet_offsets[fid]
            L = domain.lengths[fid]
            inner = coords[(coords > off + 1e-14) & (coords < off + L - 1e-14)]
            brk = np.concatenate([[off], inner, [off + L]])
            for a, b in zip(brk[:-1], brk[1:]):
                half = 0.5 * (b - a)
                mid = 0.5 * (a + b)
                coords_q = mid + half * _GAUSS_X
                yield (ci, fid, (coords_q - off) / L,
                       dist.value_at(ci, coords_q), half)


def _layer_integrand_coeffs(field, fid, lam):
    """A(s) = k.n and B(s) = cross(k, k') of the t-linear density A + t B."""
    k = field.k_at(fid, lam)
    kp = field.k_prime_at(fid, lam)
    tau = field.domain.tangents[fid]
    A = k[:, 0] * tau[1] - k[:, 1] * tau[0]
    B = k[:, 0] * kp[:, 1] - k[:, 1] * kp[:, 0]
    return A, B


def layer_area(field, dist, eps):
    """Exact area of the thin layer of thickness eps*d.

    The fiber integral of the t-linear density is closed-form; the arc
    integral uses Gauss quadrature per facet sub-segment.  Raises
    NonInjectiveLayer if the density is non-positive anywhere in the layer.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    total = 0.0
    for _, fid, lam, d, half in _arc_gauss_nodes(field, dist):
        A, B = _layer_integrand_coeffs(field, fid, lam)
        T = eps * d
        dens_top = A + T * B
        if np.any(dens_top <= 0.0) or np.any(A <= 0.0):
            raise NonInjectiveLayer(
                f"layer density non-positive on facet {fid}; "
                "eps exceeds the injectivity threshold")
        inner = A * T + 0.5 * B * T**2
        total += half * float(np.dot(_GAUSS_W, inner))
    return total


def transversal_mass(field, dist):
    """Weighted amount of material: the exact integral of (k.n) d ds."""
    total = 0.0
    for _, fid, lam, d, half in _arc_gauss_nodes(field, dist):
        total += half * float(np.dot(_GAUSS_W, field.k_dot_n(fid, lam) * d))
    return total
