"""Bulk triangulation and thin-layer extrusion.

The bulk mesh comes from ear clipping followed by uniform red refinement,
which is deterministic and keeps boundary nodes exactly on the polygon
facets.  The insulating layer is extruded fiber-by-fiber from the insulated
boundary nodes along the transversal field and glued conformingly: bulk node
indices are a stable prefix of the glued mesh.
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
    chain: "InsulatedChain"
    layer_base: np.ndarray   # per node: base chain node id, -1 outside fibers
    layer_t: np.ndarray      # fiber offset, NaN outside fibers
    layer_T: np.ndarray      # full fiber height eps*d(s), NaN outside fibers
    fiber_nodes: list        # per component: (n_chain, n_t+1) node id array


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
        p = self.nodes[self.tris]
        out = []
        for i in range(3):
            d = p[:, (i + 1) % 3] - p[:, i]
            out.append(np.hypot(d[:, 0], d[:, 1]))
        return np.concatenate(out)

    def boundary_edges_of(self, label):
        """Boundary edges whose facet carries the given domain label."""
        keep = []
        for e, fid in zip(self.boundary_edges, self.boundary_facet):
            if fid >= 0 and self.domain.facets[fid].label is label:
                keep.append((e[0], e[1], fid))
        return keep

    def marker_edges(self, marker):
        mask = self.boundary_facet == marker
        return self.boundary_edges[mask]


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

    def max_edge(nodes_arr, tris_list):
        p = nodes_arr[np.asarray(tris_list)]
        m = 0.0
        for i in range(3):
            d = p[:, (i + 1) % 3] - p[:, i]
            m = max(m, float(np.hypot(d[:, 0], d[:, 1]).max()))
        return m

    while max_edge(nodes, tris) > 1.5 * h_target:
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

    comp_d, comp_facet_nodes, comp_node_facets = [], [], []
    skipped_facets = set()
    for ci, cc in enumerate(chain.components):
        comp_obj = domain.insulated_components[ci]
        d = dist.value_at(ci, cc.coords)
        comp_d.append(d)
        fnodes = _facet_node_indices(cc, comp_obj)
        comp_facet_nodes.append(fnodes)
        nfacets = [set() for _ in range(len(cc.nodes))]
        for fid, idx in fnodes.items():
            if np.all(d[idx] == 0.0):
                skipped_facets.add(fid)
            for j in idx:
                nfacets[j].add(fid)
        comp_node_facets.append(nfacets)

    for ci, cc in enumerate(chain.components):
        d = comp_d[ci]
        for j, node in enumerate(cc.nodes):
            if d[j] == 0.0 and not comp_node_facets[ci][j] <= skipped_facets:
                raise DegenerateFiber(
                    f"zero thickness at insulated boundary node {int(node)} "
                    "on a facet with non-zero thickness")

    nodes = list(map(tuple, bulk.nodes))
    tris = list(map(tuple, bulk.tris))
    region = list(bulk.region)
    fiber_nodes = []
    new_tris_start = len(tris)

    base_count = len(bulk.nodes)
    node_base, node_t, node_T = {}, {}, {}

    top_edges, side_edges = [], []
    for ci, cc in enumerate(chain.components):
        d = comp_d[ci]
        active = [j for j in range(len(cc.nodes))
                  if not comp_node_facets[ci][j] <= skipped_facets]
        if not active:
            fiber_nodes.append(np.zeros((0, n_t + 1), dtype=int))
            continue
        if len(active) != len(cc.nodes):
            raise MeshFailure(
                "insulated component is only partly extruded; the zero-node "
                "check should leave it all-active or all-skipped")
        fibers = np.zeros((len(cc.nodes), n_t + 1), dtype=int)
        for j, node in enumerate(cc.nodes):
            fibers[j, 0] = node
            k = field.k_at(cc.node_facet[j], cc.node_lam[j])[0]
            base_pt = np.asarray(nodes[node])
            T = eps * d[j]
            node_base[node] = node
            node_t[node] = 0.0
            node_T[node] = T
            for lev in range(1, n_t + 1):
                t = T * lev / n_t
                nodes.append(tuple(base_pt + t * k))
                nid = len(nodes) - 1
                fibers[j, lev] = nid
                node_base[nid] = node
                node_t[nid] = t
                node_T[nid] = T
        fiber_nodes.append(fibers)

        n_seg = len(cc.nodes) if cc.cyclic else len(cc.nodes) - 1
        for j in range(n_seg):
            jn = (j + 1) % len(cc.nodes)
            for lev in range(n_t):
                a0 = fibers[j, lev]
                b0 = fibers[jn, lev]
                b1 = fibers[jn, lev + 1]
                a1 = fibers[j, lev + 1]
                tris.append((a0, b1, b0))
                tris.append((a0, a1, b1))
                region += [LAYER, LAYER]
            top_edges.append((fibers[j, n_t], fibers[jn, n_t]))
        if not cc.cyclic:
            for lev in range(n_t):
                side_edges.append((fibers[0, lev], fibers[0, lev + 1]))
                side_edges.append((fibers[-1, lev], fibers[-1, lev + 1]))

    nodes = np.asarray(nodes, dtype=float)
    tris = np.asarray(tris, dtype=int)
    region = np.asarray(region, dtype=np.uint8)

    # boundary bookkeeping: extruded insulated edges become the interface
    keep, iface = [], []
    for e, fid in zip(bulk.boundary_edges, bulk.boundary_facet):
        if fid >= 0 and domain.facets[fid].label is FacetLabel.INSULATED:
            if fid in skipped_facets:
                keep.append((e[0], e[1], LAYER_TOP))
            else:
                iface.append((e[0], e[1]))
        else:
            keep.append((e[0], e[1], fid))
    keep += [(a, b, LAYER_TOP) for a, b in top_edges]
    keep += [(a, b, LAYER_SIDE) for a, b in side_edges]

    nbase = np.full(len(nodes), -1, dtype=int)
    nt = np.full(len(nodes), np.nan)
    nT = np.full(len(nodes), np.nan)
    for nid, b in node_base.items():
        nbase[nid] = b
        nt[nid] = node_t[nid]
        nT[nid] = node_T[nid]

    glued = TriMesh(
        domain=domain,
        nodes=nodes,
        tris=tris,
        region=region,
        boundary_edges=np.array([(a, b) for a, b, _ in keep], dtype=int),
        boundary_facet=np.array([f for _, _, f in keep], dtype=int),
        node_facet_param=bulk.node_facet_param,
        n_bulk_nodes=base_count,
        n_bulk_tris=bulk.n_bulk_tris,
        extrusion=ExtrusionInfo(eps=eps, n_t=n_t, chain=chain,
                                layer_base=nbase, layer_t=nt, layer_T=nT,
                                fiber_nodes=fiber_nodes),
        interface_edges=np.array(iface, dtype=int).reshape(-1, 2),
    )
    areas = glued.signed_areas()
    if np.any(areas[new_tris_start:] <= 0):
        raise NonInjectiveLayer(
            "extruded layer contains inverted cells; eps exceeds the "
            "injectivity threshold of this mesh")
    return glued


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
