"""Triangle id-sets over one triangulation, with the connectivity views the
void machinery relies on.

Two notions of connectivity are first-class and deliberately distinct:
edge-connectivity (components of the open set, `components`) and
vertex-connectivity (components of the closure, `closure_components`).
Complement components are computed in the whole plane: everything beyond
the triangulated region counts as one unbounded component.  Every
connectivity query, here and in the solver's gauging and the boundary
graph, goes through one numpy labelling function, `component_labels`,
which names each component by its smallest node index.  Only the search
for cut vertices in void modification walks its small graph depth-first.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import segment_clip_rect_length
from .mesh import Triangulation


@dataclass
class TriangleSet:
    """Sorted set of triangle ids of one mesh plus derived geometric views."""

    mesh: Triangulation
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        ids = np.unique(np.asarray(self.ids, dtype=np.int64))
        if len(ids) and (ids[0] < 0 or ids[-1] >= self.mesh.n_triangles):
            raise ValueError("triangle id out of range")
        self.ids = ids

    # -- set algebra --------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def __contains__(self, t):
        return bool(np.isin(t, self.ids))

    def union(self, other) -> "TriangleSet":
        oids = other.ids if isinstance(other, TriangleSet) else np.asarray(other)
        return TriangleSet(self.mesh, np.union1d(self.ids, oids))

    def difference(self, other) -> "TriangleSet":
        oids = other.ids if isinstance(other, TriangleSet) else np.asarray(other)
        return TriangleSet(self.mesh, np.setdiff1d(self.ids, oids))

    def intersection(self, other) -> "TriangleSet":
        oids = other.ids if isinstance(other, TriangleSet) else np.asarray(other)
        return TriangleSet(self.mesh, np.intersect1d(self.ids, oids))

    def issubset(self, other) -> bool:
        oids = other.ids if isinstance(other, TriangleSet) else np.asarray(other)
        return bool(np.isin(self.ids, oids).all())

    @cached_property
    def mask(self):
        m = np.zeros(self.mesh.n_triangles, dtype=bool)
        m[self.ids] = True
        m.setflags(write=False)
        return m

    # -- measures ------------------------------------------------------------

    @cached_property
    def area(self) -> float:
        """Full area of the member triangles."""
        return float(self.mesh.areas[self.ids].sum())

    @cached_property
    def area_in_omega_prime(self) -> float:
        return float(self.mesh.area_in_omega_prime[self.ids].sum())

    @cached_property
    def boundary_edges(self):
        """Edges with exactly one incident member triangle."""
        et = self.mesh.edge_tris
        in0 = self.mask[et[:, 0]]
        in1 = (et[:, 1] >= 0) & self.mask[np.maximum(et[:, 1], 0)]
        return np.where(in0 ^ in1)[0]

    @cached_property
    def boundary_length(self) -> float:
        return float(self.mesh.edge_lengths[self.boundary_edges].sum())

    def boundary_length_in_rect(self, rect) -> float:
        """Boundary length clipped to an axis-aligned rectangle."""
        total = 0.0
        for e in self.boundary_edges:
            a, b = self.mesh.edges[e]
            total += segment_clip_rect_length(self.mesh.nodes[a],
                                              self.mesh.nodes[b], rect)
        return total

    # -- connectivity ---------------------------------------------------------

    @cached_property
    def components(self):
        """Edge-connected components: list of id arrays, sorted by min id."""
        return edge_components(self.mesh, self.ids)

    @cached_property
    def closure_components(self):
        """Vertex-connected components of the closure."""
        return _closure_components(self.mesh, self.mask)

    @cached_property
    def complement_components(self):
        """Connected components of the plane minus the closure.

        Returns (comps, bounded) where comps is a list of id arrays over
        non-member triangles.  The unbounded component (reached through the
        outside of the triangulated region) carries bounded=False; an empty
        id array stands for the pure outside when no non-member triangle
        touches it.
        """
        return complement_components(self.mesh, self.mask)

    def saturation_ids(self) -> np.ndarray:
        """Member ids plus all triangles in bounded complement components."""
        comps, bounded = self.complement_components
        extra = [c for c, b in zip(comps, bounded) if b]
        if not extra:
            return self.ids
        return np.union1d(self.ids, np.concatenate(extra))


def component_labels(n: int, edges) -> np.ndarray:
    """Label each node of an n-node graph with the smallest node index of
    its connected component.

    `edges` is a (k,2) array of node pairs.  Each round hooks the labels
    at both ends of every edge to the smaller of the two, then jumps
    pointers until every label is its own label; it stops once both ends
    of every edge carry the same label.  Labels only decrease and always
    name a node of the same component, so the fixed point is the minimum.
    """
    lab = np.arange(n)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    while True:
        la, lb = lab[a], lab[b]
        if np.array_equal(la, lb):
            return lab
        low = np.minimum(la, lb)
        np.minimum.at(lab, la, low)
        np.minimum.at(lab, lb, low)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


def _split_by_label(ids, lab):
    """Id arrays grouped by label, in increasing label order; each keeps
    the order of `ids`."""
    if not len(ids):
        return []
    order = np.argsort(lab, kind="stable")
    cuts = np.flatnonzero(np.diff(lab[order])) + 1
    return np.split(ids[order], cuts)


def _edge_graph(mesh: Triangulation, ids):
    """(pos, pairs) for the sorted id array `ids`: pos maps a triangle id
    to its index in `ids` (-1 if absent), pairs holds the index pairs of
    members that share an edge, each once with the smaller index first.

    The pairs are read from the members' rows of `tri_neighbors`, so the
    work beyond filling `pos` scales with the set, not the mesh.  It serves
    `edge_components`, `complement_components` and the solver's gauge."""
    pos = np.full(mesh.n_triangles, -1, dtype=np.int64)
    pos[ids] = np.arange(len(ids))
    nb = mesh.tri_neighbors[ids]
    other = np.where(nb >= 0, pos[nb], -1)
    own = np.broadcast_to(np.arange(len(ids))[:, None], nb.shape)
    keep = other > own
    return pos, np.column_stack([own[keep], other[keep]])


def edge_components(mesh: Triangulation, ids):
    """Edge-connected components of the sorted id array `ids`, as id
    arrays sorted by min id."""
    _, pairs = _edge_graph(mesh, ids)
    return _split_by_label(ids, component_labels(len(ids), pairs))


def _closure_components(mesh: Triangulation, mask, skip=-1):
    """Vertex-connected components of the member closure, without vertex
    `skip`: a graph of the member triangles (numbered first, so each label
    is a triangle) and their vertices.  Edge adjacency needs no extra
    edges: two triangles sharing an edge also share a vertex other than
    `skip`."""
    ids = np.where(mask)[0]
    if not len(ids):
        return []
    tris = mesh.triangles[ids]
    verts, inv = np.unique(tris, return_inverse=True)
    inv = inv.reshape(tris.shape)
    tri_of = np.repeat(np.arange(len(ids)), 3).reshape(tris.shape)
    keep = tris != skip
    pairs = np.column_stack([tri_of[keep], len(ids) + inv[keep]])
    lab = component_labels(len(ids) + len(verts), pairs)
    return _split_by_label(ids, lab[:len(ids)])


def closure_components_minus_vertex(mesh: Triangulation, mask, v: int):
    """Vertex-connected components of the closure with the point v removed.

    Triangles sharing an edge stay connected even if the edge contains v
    (an edge minus one point is still connected); the vertex fan at v no
    longer glues."""
    return _closure_components(mesh, mask, skip=int(v))


def complement_components(mesh: Triangulation, mask):
    """Components of the open complement of the closed member set.

    Non-member triangles connect across shared edges; edges on the outer
    boundary of the triangulated region connect to the unbounded outside.
    Returns (list of id arrays, list of bounded flags), sorted by min id
    with a possible trailing empty unbounded entry.
    """
    comp_ids = np.where(~mask)[0]
    n = len(comp_ids)
    outside = n  # extra node, numbered last so it never names a component
    pos, pairs = _edge_graph(mesh, comp_ids)
    rim = pos[mesh.edge_tris[mesh.mesh_boundary_edges, 0]]
    rim = rim[rim >= 0]
    pairs = np.concatenate(
        [pairs, np.column_stack([rim, np.full(len(rim), outside)])])
    lab = component_labels(n + 1, pairs)
    comps = _split_by_label(comp_ids, lab[:n])
    root_out = lab[outside]
    bounded = (np.unique(lab[:n]) != root_out).tolist()
    if root_out == outside:
        comps.append(np.empty(0, dtype=np.int64))
        bounded.append(False)
    return comps, bounded


def local_saturation(mesh: Triangulation, ids) -> np.ndarray:
    """Saturation of a (typically small) id set by bounded local flooding.

    Holes of a set lie inside its bounding box, so a complement flood that
    escapes the inflated box or reaches the outer mesh boundary cannot be a
    hole.  Cost scales with the saturated region, not the mesh.
    """
    ids = np.asarray(sorted(ids), dtype=np.int64)
    if not len(ids):
        return ids
    member_mask = np.zeros(mesh.n_triangles, dtype=bool)
    member_mask[ids] = True
    pts = mesh.nodes[np.unique(mesh.triangles[ids].ravel())]
    pad = mesh.params.grid_spacing
    bx0, by0 = pts.min(axis=0) - pad
    bx1, by1 = pts.max(axis=0) + pad
    nb = mesh.tri_neighbors
    on_bdy = mesh.tri_on_mesh_boundary
    bbox = mesh.tri_bbox

    def in_box(t):
        x0, y0, x1, y1 = bbox[t]
        return x0 >= bx0 and x1 <= bx1 and y0 >= by0 and y1 <= by1

    visited = set()
    fill = []
    for seed in ids:
        for t0 in nb[seed]:
            t0 = int(t0)
            if t0 < 0 or member_mask[t0] or t0 in visited:
                continue
            comp = []
            stack = [t0]
            comp_set = {t0}
            bounded = True
            while stack:
                t = stack.pop()
                comp.append(t)
                if on_bdy[t]:
                    bounded = False
                if not in_box(t):
                    bounded = False
                    continue  # out-of-box triangles are not expanded
                for s in nb[t]:
                    s = int(s)
                    if s < 0:
                        bounded = False
                        continue
                    if member_mask[s] or s in comp_set:
                        continue
                    comp_set.add(s)
                    stack.append(s)
            visited.update(comp)
            if bounded:
                fill.extend(comp)
    if not fill:
        return ids
    return np.union1d(ids, np.asarray(fill, dtype=np.int64))
