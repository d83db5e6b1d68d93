"""Bulk triangulation and thin-layer extrusion.

The bulk mesh comes from ear clipping followed by uniform red refinement,
which is deterministic and keeps boundary nodes exactly on the polygon
facets.  Each refinement appends its midpoints after the nodes it refines,
numbered in order of first appearance over the triangle edges ab, bc, ca,
so every level's nodes are a prefix of the next level's, and the mesh keeps
the parent pairs of the midpoints per level (``TriMesh.hierarchy``, the
multigrid hierarchy).  Every boundary edge carries the facet parameter lam
of both its ends (``TriMesh.boundary_lam``, x = a + lam (b - a) on facet
[a, b]); a facet's edges run in place by increasing lam, and refinement
splits each one in place.  The insulating layer is extruded along the
transversal field from the insulated boundary nodes and glued conformingly.

Glued layout: the bulk nodes and triangles come first, unchanged, so bulk
indices are a stable prefix.  The thickness d >= 0 may vanish: a fiber over
a chain node with d = 0 collapses onto its base node.  The other fibers add
n_t nodes each, numbered fiber-major after the bulk (chain node j, levels
1..n_t, in chain order), and the layer triangles follow segment by segment;
a quad next to a collapsed fiber keeps only its non-degenerate triangle.
The interface is every insulated bulk edge.  Boundary edges are the other
bulk edges, then the top edges, then the side edges; the top edges put
every collapsed base in the zero-trace set, and between two collapsed
fibers the top edge is the bulk edge itself.  The table ``fibers[j, l]``
(level 0 is the bulk node; a collapsed fiber repeats it) is the one
description of the layer: every layer consumer (recovery sequence, fiber
Poincare check, layer offsets, the multigrid levels of the layer) indexes
it instead of walking nodes.  Since the bulk is a prefix, a glued mesh
carries the bulk hierarchy and the bulk's insulated chain as they are, and
it keeps its bulk mesh (``TriMesh.bulk``), whose operators are its bulk
operators; its layer edges have NaN lam.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import MeshFailure, NonInjectiveLayer
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
    layer_t: np.ndarray      # fiber offset, NaN outside fibers
    # (N, n_t+1) node ids of the fibers over the chain nodes, in chain
    # order; a collapsed fiber repeats its base node
    fibers: np.ndarray


@dataclass
class TriMesh:
    domain: object
    nodes: np.ndarray
    tris: np.ndarray
    region: np.ndarray
    boundary_edges: np.ndarray       # (B,2) node ids
    boundary_facet: np.ndarray       # (B,) facet id or LAYER_TOP/LAYER_SIDE
    # (B,2) facet parameter lam of both ends, x = a + lam (b - a) on the
    # edge's facet [a, b]; NaN on layer edges
    boundary_lam: np.ndarray
    n_bulk_nodes: int
    n_bulk_tris: int
    extrusion: ExtrusionInfo | None = None
    # red-refinement levels, coarse to fine: the (E, 2) parent nodes of the
    # E midpoints a level appends after the nodes of the level below it
    hierarchy: tuple = ()
    # lazy per-mesh stores, sound because a mesh is never modified once
    # built: the unit stiffness and mass matrices per region (None = whole
    # mesh), filled by fem.stiffness and fem.mass, and the field-free
    # insulated chain
    operator_cache: dict = dc_field(default_factory=dict, init=False,
                                    repr=False, compare=False)
    chain_cache: InsulatedChain | None = dc_field(
        default=None, init=False, repr=False, compare=False)
    # the bulk mesh a glued mesh was extruded from; its nodes and triangles
    # are the glued mesh's prefix, so its operators are the glued bulk's
    bulk: TriMesh | None = dc_field(default=None, init=False, repr=False,
                                    compare=False)

    def signed_areas(self):
        p = self.nodes[self.tris]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))

    def edge_lengths(self):
        return _edge_lengths(self.nodes, self.tris)

    def label_mask(self, label):
        """Mask of the boundary edges whose facet carries the domain label."""
        of_facet = np.array([f.label is label for f in self.domain.facets])
        fid = self.boundary_facet
        return (fid >= 0) & of_facet[np.maximum(fid, 0)]

    def boundary_edges_of(self, label):
        """(E, 3) rows (node_a, node_b, facet id) of the boundary edges
        whose facet carries the given domain label."""
        mask = self.label_mask(label)
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


def _refine(nodes, tris, bedges, bfacet, blam, domain):
    """One red refinement: split every triangle into four and every
    boundary edge into two, with the midpoints appended after ``nodes`` in
    order of first appearance over the triangle edges ab, bc, ca."""
    n = len(nodes)
    ends = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys, first, inverse = np.unique(lo * n + hi, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # int32 halves what every mesh keeps
    parents = np.column_stack([lo, hi])[first[order]].astype(np.int32)
    nodes = np.concatenate([nodes, (nodes[parents[:, 0]]
                                    + nodes[parents[:, 1]]) / 2.0])

    a, b, c = tris.T
    mab, mbc, mca = (n + rank[inverse]).reshape(-1, 3).T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                    axis=1).reshape(-1, 3)

    # boundary midpoints are placed exactly on their facet
    ea, eb = bedges.T
    m = n + rank[np.searchsorted(keys, np.minimum(ea, eb) * n
                                 + np.maximum(ea, eb))]
    lam_m = 0.5 * (blam[:, 0] + blam[:, 1])
    v = domain.vertices  # facet i runs from vertex i to vertex i + 1
    start, end = v[bfacet], v[(bfacet + 1) % len(v)]
    nodes[m] = start + lam_m[:, None] * (end - start)
    bedges = np.stack([ea, m, m, eb], axis=1).reshape(-1, 2)
    blam = np.stack([blam[:, 0], lam_m, lam_m, blam[:, 1]],
                    axis=1).reshape(-1, 2)
    return nodes, tris, bedges, np.repeat(bfacet, 2), blam, parents


def triangulate_bulk(domain, h_target):
    """Triangulate the polygon with max edge length <= 1.5*h_target."""
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    nodes = domain.vertices.copy()
    n = len(nodes)
    tris = np.asarray(ear_clip(nodes), dtype=int)
    bfacet = np.arange(n)
    bedges = np.column_stack([bfacet, (bfacet + 1) % n])
    blam = np.tile([0.0, 1.0], (n, 1))
    hierarchy = []
    while _edge_lengths(nodes, tris).max() > 1.5 * h_target:
        nodes, tris, bedges, bfacet, blam, parents = _refine(
            nodes, tris, bedges, bfacet, blam, domain)
        hierarchy.append(parents)

    mesh = TriMesh(
        domain=domain,
        nodes=nodes,
        tris=tris,
        region=np.zeros(len(tris), dtype=np.uint8),
        boundary_edges=bedges,
        boundary_facet=bfacet,
        boundary_lam=blam,
        n_bulk_nodes=len(nodes),
        n_bulk_tris=len(tris),
        hierarchy=tuple(hierarchy),
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
    """The insulated chain of ``mesh``, with k.n of ``field`` at its nodes
    (NaN without a field).

    The field-free chain is built on first use and cached on the mesh;
    every caller shares it, so its arrays are read-only.
    """
    chain = mesh.chain_cache
    if chain is None:
        chain = mesh.chain_cache = _build_chain(mesh)
    if field is None:
        return chain
    facets = np.concatenate([cc.node_facet for cc in chain.components])
    lams = np.concatenate([cc.node_lam for cc in chain.components])
    return replace(chain, kn=field.k_dot_n(facets, lams))


def _build_chain(mesh):
    domain = mesh.domain
    components = []
    for comp in domain.insulated_components:
        ids, coords, nfac, nlam = [], [], [], []
        for j, fid in enumerate(comp.facets):
            on = np.flatnonzero(mesh.boundary_facet == fid)
            on = on[np.argsort(mesh.boundary_lam[on, 0])]
            # the facet's nodes by increasing lam; after the first facet the
            # start node (lam = 0) is the previous facet's end node
            skip = 1 if j else 0
            node = np.append(mesh.boundary_edges[on[0], 0],
                             mesh.boundary_edges[on, 1])[skip:]
            lam = np.append(mesh.boundary_lam[on[0], 0],
                            mesh.boundary_lam[on, 1])[skip:]
            ids.append(node)
            coords.append(comp.facet_offsets[fid] + lam * domain.lengths[fid])
            nfac.append(np.full(len(lam), fid))
            nlam.append(lam)
        ids, coords, nfac, nlam = map(np.concatenate, (ids, coords, nfac, nlam))
        if comp.cyclic and ids[-1] == ids[0]:
            ids, coords, nfac, nlam = ids[:-1], coords[:-1], nfac[:-1], nlam[:-1]
        components.append(ChainComponent(
            nodes=ids, coords=coords, node_facet=nfac, node_lam=nlam,
            cyclic=comp.cyclic, length=comp.length))

    nodes = np.concatenate([cc.nodes for cc in components])
    chain = InsulatedChain(
        components=components,
        nodes=nodes,
        coords=np.concatenate([cc.coords + comp.start_arc for comp, cc
                               in zip(domain.insulated_components, components)]),
        weights=np.concatenate([_lumped_weights(cc.coords, cc.cyclic, cc.length)
                                for cc in components]),
        kn=np.full(len(nodes), np.nan),
    )
    for cc in components:
        for arr in (cc.nodes, cc.coords, cc.node_facet, cc.node_lam):
            arr.flags.writeable = False
    for arr in (chain.nodes, chain.coords, chain.weights, chain.kn):
        arr.flags.writeable = False
    return chain


# ---------------------------------------------------------------------------
# Layer extrusion
# ---------------------------------------------------------------------------

def extrude_layer(bulk, field, dist, eps, n_t):
    """Glue the extruded insulating layer onto the bulk mesh.

    Each insulated boundary node spawns a fiber of ``n_t`` segments along
    eps*d(s)*k(s); quads between adjacent fibers are split along the diagonal
    from the lower-s, lower-t corner.  Where d = 0 the fiber collapses onto
    its base node, which joins the zero-trace set, and the triangles and side
    edges that would repeat a node are dropped; a component with d = 0
    throughout adds no cells, and its edges become the zero-trace set.
    """
    if bulk.extrusion is not None:
        raise MeshFailure("mesh already carries a layer")
    if eps <= 0 or n_t < 1:
        raise ValueError("eps must be positive and n_t >= 1")
    chain = insulated_chain(bulk)
    comps = chain.components
    d = chain.thickness(dist)
    live = d > 0

    # fibers[j, l]: node at level l of the fiber over chain node j; level 0
    # is the bulk node, the levels 1..n_t of the live fibers are numbered
    # fiber-major after the bulk
    n_live = int(np.count_nonzero(live))
    fibers = np.repeat(chain.nodes[:, None], n_t + 1, axis=1)
    fibers[live, 1:] = len(bulk.nodes) + np.arange(n_live * n_t).reshape(
        n_live, n_t)
    t = (eps * d)[:, None] * np.arange(1, n_t + 1) / n_t
    facets = np.concatenate([cc.node_facet for cc in comps])
    lams = np.concatenate([cc.node_lam for cc in comps])
    k = field.k_at(facets[live], lams[live])
    nodes = np.concatenate([bulk.nodes, (
        bulk.nodes[chain.nodes[live]][:, None, :]
        + t[live][:, :, None] * k[:, None, :]).reshape(-1, 2)])
    layer_t = np.full(len(nodes), np.nan)
    layer_t[fibers[:, 1:]] = t
    layer_t[fibers[:, 0]] = 0.0

    # the segments j -> nxt[j] of the chain, component by component; an
    # open component has none from its last node, and has two ends
    sizes = np.array([len(cc.nodes) for cc in comps])
    is_open = ~np.array([cc.cyclic for cc in comps])
    first = np.cumsum(sizes) - sizes
    last = first + sizes - 1
    nxt = np.arange(1, len(fibers) + 1)
    nxt[last] = first
    seg = np.ones(len(fibers), dtype=bool)
    seg[last[is_open]] = False
    lo, hi = fibers[seg], fibers[nxt[seg]]
    a0, a1, b0, b1 = lo[:, :-1], lo[:, 1:], hi[:, :-1], hi[:, 1:]
    # a triangle repeats a node exactly where its fiber edge has collapsed
    layer_tris = np.stack([a0, b1, b0, a0, a1, b1], axis=-1).reshape(-1, 3)[
        np.stack([b0 != b1, a0 != a1], axis=-1).ravel()]
    top = np.stack([lo[:, -1], hi[:, -1]], axis=1)
    ends = fibers[np.stack([first, last], axis=1)[is_open]]
    side = np.stack([ends[..., :-1], ends[..., 1:]], axis=-1).swapaxes(
        1, 2).reshape(-1, 2)
    side = side[side[:, 0] != side[:, 1]]

    # every insulated bulk edge is interface; the top and side edges of the
    # layer follow the other bulk edges
    iface = bulk.label_mask(FacetLabel.INSULATED)
    glued = TriMesh(
        domain=bulk.domain,
        nodes=nodes,
        tris=np.concatenate([bulk.tris, layer_tris]),
        region=np.concatenate([bulk.region,
                               np.full(len(layer_tris), LAYER, dtype=np.uint8)]),
        boundary_edges=np.concatenate([bulk.boundary_edges[~iface], top, side]),
        boundary_facet=np.concatenate([
            bulk.boundary_facet[~iface],
            np.full(len(top), LAYER_TOP), np.full(len(side), LAYER_SIDE)]),
        boundary_lam=np.concatenate([
            bulk.boundary_lam[~iface],
            np.full((len(top) + len(side), 2), np.nan)]),
        n_bulk_nodes=len(bulk.nodes),
        n_bulk_tris=bulk.n_bulk_tris,
        extrusion=ExtrusionInfo(eps=eps, n_t=n_t, layer_t=layer_t,
                                fibers=fibers),
        hierarchy=bulk.hierarchy,
    )
    glued.chain_cache, glued.bulk = bulk.chain_cache, bulk
    if np.any(glued.signed_areas()[len(bulk.tris):] <= 0):
        raise NonInjectiveLayer(
            "extruded layer contains inverted cells; eps exceeds the "
            "injectivity threshold of this mesh")
    return glued
