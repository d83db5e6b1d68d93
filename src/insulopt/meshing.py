"""Bulk triangulation and thin-layer extrusion.

The bulk mesh comes from ear clipping followed by uniform red refinement,
which is deterministic and keeps boundary nodes exactly on the polygon
facets.  The insulating layer is extruded along the transversal field from
the insulated boundary nodes and glued conformingly.

Glued layout: the bulk nodes and triangles come first, unchanged, so bulk
indices are a stable prefix.  Then, per extruded insulated component, a
block of n_chain x n_t fiber nodes follows in fiber-major order (chain node
j, levels 1..n_t), and its layer triangles follow segment by segment; a
component with zero thickness throughout gets no block.  Boundary edges are
the kept bulk edges, then the top edges, then the side edges.  The table
``fibers[j, l]`` (level 0 is the bulk node) is the one description of the
layer: every layer consumer (recovery sequence, fiber Poincare check, layer
offsets) indexes it instead of walking nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DegenerateFiber, MeshFailure, NonInjectiveLayer
from .geometry import FacetLabel, _lumped_weights

BULK = 0
LAYER = 1

# boundary markers for edges that do not lie on a domain facet
LAYER_TOP = -1    # outer layer boundary (zero-trace set)
LAYER_SIDE = -2   # fiber at an open end of the insulated boundary


# ---------------------------------------------------------------------------
# Ear clipping
# ---------------------------------------------------------------------------

def _point_in_or_on_triangle(p, a, b, c):
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    tol = -1e-14
    return d1 >= tol and d2 >= tol and d3 >= tol


def ear_clip(vertices):
    """Triangulate a simple CCW polygon; vertices on a candidate ear's
    boundary block it so no hanging nodes are produced."""
    n = len(vertices)
    idx = list(range(n))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > n * n + 10:
            raise MeshFailure("ear clipping failed; polygon may not be simple")
        clipped = False
        for pos in range(len(idx)):
            ip, ic, inx = (idx[pos - 1], idx[pos], idx[(pos + 1) % len(idx)])
            a, b, c = vertices[ip], vertices[ic], vertices[inx]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross <= 1e-14:
                continue
            blocked = False
            for other in idx:
                if other in (ip, ic, inx):
                    continue
                if _point_in_or_on_triangle(vertices[other], a, b, c):
                    blocked = True
                    break
            if not blocked:
                tris.append((ip, ic, inx))
                idx.pop(pos)
                clipped = True
                break
        if not clipped:
            raise MeshFailure("no clippable ear found; polygon may not be simple")
    tris.append(tuple(idx))
    return tris


# ---------------------------------------------------------------------------
# Mesh container
# ---------------------------------------------------------------------------

@dataclass
class ExtrusionInfo:
    eps: float
    n_t: int
    layer_base: np.ndarray   # per node: base chain node id, -1 outside fibers
    layer_t: np.ndarray      # fiber offset, NaN outside fibers
    fiber_nodes: list        # per component: (n_chain, n_t+1) node id array

    @property
    def fibers(self):
        """(N, n_t+1) node ids of all fibers, components in chain order."""
        return _rows(self.fiber_nodes, self.n_t + 1)


@dataclass
class TriMesh:
    domain: object
    nodes: np.ndarray
    tris: np.ndarray
    region: np.ndarray
    boundary_edges: np.ndarray       # (B,2) node ids
    boundary_facet: np.ndarray       # (B,) facet id or LAYER_TOP/LAYER_SIDE
    node_facet_param: dict
    n_bulk_nodes: int
    n_bulk_tris: int
    extrusion: ExtrusionInfo | None = None
    interface_edges: np.ndarray | None = None
    # unit stiffness per region (None = whole mesh), filled lazily by
    # fem.stiffness; sound because a mesh is never modified once built
    stiffness_cache: dict = dc_field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def signed_areas(self):
        p = self.nodes[self.tris]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))

    def edge_lengths(self):
        return _edge_lengths(self.nodes, self.tris)

    def _label_mask(self, label):
        """Mask of the boundary edges whose facet carries the domain label."""
        of_facet = np.array([f.label is label for f in self.domain.facets])
        fid = self.boundary_facet
        return (fid >= 0) & of_facet[np.maximum(fid, 0)]

    def boundary_edges_of(self, label):
        """(E, 3) rows (node_a, node_b, facet id) of the boundary edges
        whose facet carries the given domain label."""
        mask = self._label_mask(label)
        return np.column_stack([self.boundary_edges[mask],
                                self.boundary_facet[mask]])

    def marker_edges(self, marker):
        mask = self.boundary_facet == marker
        return self.boundary_edges[mask]


def _edge_lengths(nodes, tris):
    """Lengths of the three edges of every triangle, edge-major."""
    p = nodes[tris]
    return np.concatenate([np.hypot(*(p[:, (i + 1) % 3] - p[:, i]).T)
                           for i in range(3)])


def _refine(nodes, tris, bedges, node_facet_param, domain):
    nodes = list(map(tuple, nodes))
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            pa, pb = nodes[a], nodes[b]
            nodes.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
            midpoint[key] = len(nodes) - 1
        return midpoint[key]

    new_tris = []
    for a, b, c in tris:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        new_tris += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]

    new_bedges = []
    for a, b, fid in bedges:
        m = mid(a, b)
        la = node_facet_param[a][fid]
        lb = node_facet_param[b][fid]
        lm = 0.5 * (la + lb)
        node_facet_param.setdefault(m, {})[fid] = lm
        # place boundary midpoints exactly on the facet
        nodes[m] = tuple(domain.facet_point(fid, lm))
        new_bedges += [(a, m, fid), (m, b, fid)]

    return np.array(nodes), new_tris, new_bedges


def triangulate_bulk(domain, h_target):
    """Triangulate the polygon with max edge length <= 1.5*h_target."""
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    verts = domain.vertices
    n = len(verts)
    tris = ear_clip(verts)
    bedges = [(i, (i + 1) % n, i) for i in range(n)]
    node_facet_param = {}
    for i in range(n):
        node_facet_param.setdefault(i, {})[i] = 0.0
        node_facet_param.setdefault((i + 1) % n, {})[i] = 1.0

    nodes = verts.copy()
    while _edge_lengths(nodes, np.asarray(tris)).max() > 1.5 * h_target:
        nodes, tris, bedges = _refine(nodes, tris, bedges, node_facet_param, domain)

    tris = np.asarray(tris, dtype=int)
    mesh = TriMesh(
        domain=domain,
        nodes=np.asarray(nodes, dtype=float),
        tris=tris,
        region=np.zeros(len(tris), dtype=np.uint8),
        boundary_edges=np.array([(a, b) for a, b, _ in bedges], dtype=int),
        boundary_facet=np.array([f for _, _, f in bedges], dtype=int),
        node_facet_param=node_facet_param,
        n_bulk_nodes=len(nodes),
        n_bulk_tris=len(tris),
    )
    if np.any(mesh.signed_areas() <= 0):
        raise MeshFailure("triangulation produced a non-positive triangle")
    return mesh


# ---------------------------------------------------------------------------
# Insulated boundary chains
# ---------------------------------------------------------------------------

@dataclass
class ChainComponent:
    nodes: np.ndarray        # ordered unique node ids along the component
    coords: np.ndarray       # arc coordinate from the component start
    node_facet: np.ndarray   # facet used to evaluate fields at each node
    node_lam: np.ndarray
    cyclic: bool
    length: float


@dataclass
class InsulatedChain:
    """Ordered insulated-boundary nodes of a mesh with lumped weights.

    ``weights`` assigns each node half the length of its adjacent insulated
    edges (they sum to |Gamma_I|); ``kn`` holds k.n at the nodes.
    """

    components: list
    nodes: np.ndarray
    coords: np.ndarray
    weights: np.ndarray
    kn: np.ndarray

    def thickness(self, dist):
        """Values of the thickness profile ``dist`` at the chain nodes."""
        return np.concatenate([dist.value_at(ci, cc.coords)
                               for ci, cc in enumerate(self.components)])


def insulated_chain(mesh, field=None):
    domain = mesh.domain
    components = []
    for comp in domain.insulated_components:
        ids, coords, nfac, nlam = [], [], [], []
        for j, fid in enumerate(comp.facets):
            on_facet = [(lam, node) for node, params in mesh.node_facet_param.items()
                        if fid in params for lam in [params[fid]]]
            on_facet.sort()
            off = comp.facet_offsets[fid]
            L = domain.lengths[fid]
            for lam, node in on_facet:
                if j > 0 and lam == 0.0:
                    continue  # duplicate of the previous facet's end node
                ids.append(node)
                coords.append(off + lam * L)
                nfac.append(fid)
                nlam.append(lam)
        if comp.cyclic and ids[-1] == ids[0]:
            ids, coords, nfac, nlam = ids[:-1], coords[:-1], nfac[:-1], nlam[:-1]
        components.append(ChainComponent(
            nodes=np.array(ids, dtype=int),
            coords=np.array(coords),
            node_facet=np.array(nfac, dtype=int),
            node_lam=np.array(nlam),
            cyclic=comp.cyclic,
            length=comp.length,
        ))

    all_nodes, all_coords, all_w, all_kn = [], [], [], []
    for comp, cc in zip(domain.insulated_components, components):
        w = _lumped_weights(cc.coords, cc.cyclic, cc.length)
        if field is None:
            kn = np.full(len(cc.nodes), np.nan)
        else:
            kn = np.array([float(field.k_dot_n(f, l)[0])
                           for f, l in zip(cc.node_facet, cc.node_lam)])
        all_nodes.append(cc.nodes)
        all_coords.append(cc.coords + comp.start_arc)
        all_w.append(w)
        all_kn.append(kn)
    return InsulatedChain(
        components=components,
        nodes=np.concatenate(all_nodes),
        coords=np.concatenate(all_coords),
        weights=np.concatenate(all_w),
        kn=np.concatenate(all_kn),
    )


# ---------------------------------------------------------------------------
# Layer extrusion
# ---------------------------------------------------------------------------

def extrude_layer(bulk, field, dist, eps, n_t):
    """Glue the extruded insulating layer onto the bulk mesh.

    Each insulated boundary node spawns a fiber of ``n_t`` segments along
    eps*d(s)*k(s); quads between adjacent fibers are split along the diagonal
    from the lower-s, lower-t corner.  Facets with identically zero thickness
    are skipped and their edges become part of the zero-trace set; isolated
    zero-thickness nodes are rejected.
    """
    if bulk.extrusion is not None:
        raise MeshFailure("mesh already carries a layer")
    if eps <= 0 or n_t < 1:
        raise ValueError("eps must be positive and n_t >= 1")
    domain = bulk.domain
    chain = insulated_chain(bulk, field)

    # fibers[j, l]: node at level l of the fiber over chain node j; level 0
    # is the bulk node, levels 1..n_t are numbered fiber-major after the bulk
    levels = np.arange(1, n_t + 1)
    next_id = len(bulk.nodes)
    skipped_facets = []
    fiber_nodes, points, offsets, tris, top, side = [], [], [], [], [], []
    for ci, cc in enumerate(chain.components):
        d = dist.value_at(ci, cc.coords)
        # a node is extruded when one of its facets has non-zero thickness
        active = np.zeros(len(cc.nodes), dtype=bool)
        for fid, idx in _facet_node_indices(
                cc, domain.insulated_components[ci]).items():
            if np.all(d[idx] == 0.0):
                skipped_facets.append(fid)
            else:
                active[idx] = True
        bad = cc.nodes[(d == 0.0) & active]
        if len(bad):
            raise DegenerateFiber(
                f"zero thickness at insulated boundary node {bad[0]} "
                "on a facet with non-zero thickness")
        if not active.any():
            fiber_nodes.append(np.zeros((0, n_t + 1), dtype=int))
            continue
        if not active.all():
            raise MeshFailure(
                "insulated component is only partly extruded; the zero-node "
                "check should leave it all-active or all-skipped")
        n = len(cc.nodes)
        fibers = np.empty((n, n_t + 1), dtype=int)
        fibers[:, 0] = cc.nodes
        fibers[:, 1:] = next_id + np.arange(n * n_t).reshape(n, n_t)
        next_id += n * n_t
        fiber_nodes.append(fibers)

        k = np.empty((n, 2))
        for fid in np.unique(cc.node_facet):
            on = cc.node_facet == fid
            k[on] = field.k_at(fid, cc.node_lam[on])
        t = (eps * d)[:, None] * levels / n_t
        points.append((bulk.nodes[cc.nodes][:, None, :]
                       + t[:, :, None] * k[:, None, :]).reshape(-1, 2))
        offsets.append(t)

        seg = np.arange(n if cc.cyclic else n - 1)
        lo, hi = fibers[seg], fibers[(seg + 1) % n]
        a0, a1, b0, b1 = lo[:, :-1], lo[:, 1:], hi[:, :-1], hi[:, 1:]
        tris.append(np.stack([a0, b1, b0, a0, a1, b1], axis=-1).reshape(-1, 3))
        top.append(np.stack([lo[:, -1], hi[:, -1]], axis=1))
        if not cc.cyclic:
            ends = fibers[[0, -1]]
            side.append(np.stack([ends[:, :-1], ends[:, 1:]], axis=-1)
                        .swapaxes(0, 1).reshape(-1, 2))

    nodes = np.concatenate([bulk.nodes, *points])
    layer_tris = _rows(tris, 3)
    all_fibers = _rows(fiber_nodes, n_t + 1)
    layer_base = np.full(len(nodes), -1, dtype=int)
    layer_base[all_fibers] = all_fibers[:, :1]
    layer_t = np.full(len(nodes), np.nan)
    layer_t[all_fibers[:, 0]] = 0.0
    layer_t[all_fibers[:, 1:]] = _rows(offsets, n_t)

    # boundary bookkeeping: extruded insulated edges become the interface,
    # then the top edges and the side edges of the layer are appended
    bfacet = bulk.boundary_facet
    insulated = bulk._label_mask(FacetLabel.INSULATED)
    iface = insulated & ~np.isin(bfacet, skipped_facets)
    top, side = _rows(top, 2), _rows(side, 2)

    glued = TriMesh(
        domain=domain,
        nodes=nodes,
        tris=np.concatenate([bulk.tris, layer_tris]),
        region=np.concatenate([bulk.region,
                               np.full(len(layer_tris), LAYER, dtype=np.uint8)]),
        boundary_edges=np.concatenate([bulk.boundary_edges[~iface], top, side]),
        boundary_facet=np.concatenate([
            np.where(insulated, LAYER_TOP, bfacet)[~iface],
            np.full(len(top), LAYER_TOP), np.full(len(side), LAYER_SIDE)]),
        node_facet_param=bulk.node_facet_param,
        n_bulk_nodes=len(bulk.nodes),
        n_bulk_tris=bulk.n_bulk_tris,
        extrusion=ExtrusionInfo(eps=eps, n_t=n_t, layer_base=layer_base,
                                layer_t=layer_t, fiber_nodes=fiber_nodes),
        interface_edges=bulk.boundary_edges[iface],
    )
    if np.any(glued.signed_areas()[len(bulk.tris):] <= 0):
        raise NonInjectiveLayer(
            "extruded layer contains inverted cells; eps exceeds the "
            "injectivity threshold of this mesh")
    return glued


def _rows(blocks, width):
    """Row-wise concatenation of (., width) blocks; (0, width) when none."""
    return np.concatenate([np.zeros((0, width), dtype=int), *blocks])


def _facet_node_indices(cc, comp):
    """Chain node indices bounding each facet of a component.

    Corner nodes are recorded on their incoming facet (local parameter 1),
    so the start corner of a facet is the chain node just before its first
    recorded node.
    """
    out = {}
    for fid in comp.facets:
        idx = list(np.where(cc.node_facet == fid)[0])
        if idx and cc.node_lam[idx[0]] > 1e-15:
            prev = idx[0] - 1
            if cc.cyclic:
                prev %= len(cc.nodes)
            if prev >= 0:
                idx = [prev] + idx
        out[fid] = idx
    return out
