"""Triangle id-sets over one triangulation, with the connectivity views the
void machinery relies on.

Two notions of connectivity are first-class and deliberately distinct:
edge-connectivity (components of the open set, `components`) and
vertex-connectivity (components of the closure, `closure_components`).
Complement components are computed in the whole plane: everything beyond
the triangulated region counts as one unbounded component.  The bounded
ones, holes, are counted by Euler's formula per closure component and
labelled only inside the boxes of the strips of non-members along the
holed components (see `bounded_components`).  Every connectivity query,
here and in the solver's gauging and the boundary graph, goes through
one numpy labelling function, `component_labels`, which names each
component by its smallest node index.  Only the search
for cut vertices in void modification walks its small graph depth-first.
Every dedupe of ids in the package goes through one function, `_distinct`;
`np.unique` is called only for an inverse or counts, and a difference or
intersection of id sets is taken by mask selection.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import clip_lengths_rect
from .mesh import Triangulation


@dataclass
class TriangleSet:
    """Sorted set of triangle ids of one mesh plus derived geometric views."""

    mesh: Triangulation
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        ids = _distinct(np.asarray(self.ids, dtype=np.int64))
        if len(ids) and (ids[0] < 0 or ids[-1] >= self.mesh.n_triangles):
            raise ValueError("triangle id out of range")
        self.ids = ids

    # -- set algebra --------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def __contains__(self, t):
        return bool(np.isin(t, self.ids))

    def difference(self, other) -> "TriangleSet":
        oids = other.ids if isinstance(other, TriangleSet) else \
            np.asarray(other, dtype=np.int64)
        drop = np.zeros(self.mesh.n_triangles, dtype=bool)
        drop[oids] = True
        return TriangleSet(self.mesh, self.ids[~drop[self.ids]])

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
    def boundary_edges(self):
        """Sorted ids of the edges with exactly one incident member
        triangle: those that occur once among the members' own edges."""
        edges, count = np.unique(self.mesh.tri_edges[self.ids],
                                 return_counts=True)
        return edges[count == 1]

    @cached_property
    def boundary_length(self) -> float:
        return float(self.mesh.edge_lengths[self.boundary_edges].sum())

    def boundary_length_in_rect(self, rect) -> float:
        """Boundary length clipped to an axis-aligned rectangle: the
        edges' clipped lengths added one after another in edge order (a
        cumulative sum, not the pairwise summation of `sum`)."""
        lengths = clip_lengths_rect(self.mesh.nodes,
                                    self.mesh.edges[self.boundary_edges],
                                    *rect)
        return float(np.cumsum(lengths)[-1]) if len(lengths) else 0.0

    # -- connectivity ---------------------------------------------------------

    @cached_property
    def components(self):
        """Edge-connected components: list of id arrays, sorted by min id."""
        return edge_components(self.mesh, self.ids)

    @cached_property
    def closure_components(self):
        """Vertex-connected components of the closure."""
        return _split_by_label(self.ids, self._closure_labels)

    @cached_property
    def _closure_labels(self):
        return _closure_labels(self.mesh, self.ids)

    @cached_property
    def complement_components(self):
        """Connected components of the plane minus the closure, all of them
        labelled over the whole mesh.

        Returns (comps, bounded) where comps is a list of id arrays over
        non-member triangles.  The unbounded component (reached through the
        outside of the triangulated region) carries bounded=False; an empty
        id array stands for the pure outside when no non-member triangle
        touches it.  Void modification reads only the bounded ones, from
        `holes`.
        """
        return complement_components(self.mesh, self.mask)

    @cached_property
    def n_holes(self) -> int:
        """Number of bounded complement components, by Euler's formula.

        The closure K of the members is a planar complex with V vertices,
        E edges, F triangles and b0 components (`closure_components`).
        By Alexander duality the plane minus K has b0 - (V - E + F)
        bounded components: the sum over the closure components K_c of
        their own holes, 1 - (V_c - E_c + F_c) (`_hole_counts`).  When
        the triangulated region is a closed disk, as the background
        grid's rectangle is, these are exactly the bounded entries of
        `complement_components`.
        """
        return int(self._hole_counts.sum())

    @cached_property
    def _hole_counts(self):
        """Holes of each closure component, in the order of
        `closure_components`, counted off the closure's labels without
        splitting the set into its components."""
        lab = self._closure_labels
        root = lab == np.arange(len(lab))
        which = (np.cumsum(root) - 1)[lab]
        return _euler_holes(self.mesh, self.ids, which,
                            int(np.count_nonzero(root)))

    @cached_property
    def holes(self):
        """Bounded complement components as id arrays sorted by min id,
        labelled only near the holes of the closure components that have
        one (see `bounded_components`)."""
        if not self.n_holes:
            return []
        holed = [c for c, k in zip(self.closure_components, self._hole_counts)
                 if k]
        return bounded_components(self.mesh, self.mask, holed)


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


def _closure_labels(mesh: Triangulation, ids, skip=-1):
    """Label of each triangle of the sorted ids `ids` in the member
    closure without vertex `skip`: the smallest index into `ids` of its
    vertex-connected component.  The graph holds the member triangles
    (numbered first, so each label is a triangle) and their vertices.
    Edge adjacency needs no extra edges: two triangles sharing an edge
    also share a vertex other than `skip`."""
    tris = mesh.triangles[ids]
    verts = _distinct(tris)
    inv = np.searchsorted(verts, tris)
    tri_of = np.repeat(np.arange(len(ids)), 3).reshape(tris.shape)
    keep = tris != skip
    pairs = np.column_stack([tri_of[keep], len(ids) + inv[keep]])
    return component_labels(len(ids) + len(verts), pairs)[:len(ids)]


def _closure_components(mesh: Triangulation, mask, skip=-1):
    """Vertex-connected components of the member closure, without vertex
    `skip` (see _closure_labels)."""
    ids = np.where(mask)[0]
    if not len(ids):
        return []
    return _split_by_label(ids, _closure_labels(mesh, ids, skip))


def closure_components_minus_vertex(mesh: Triangulation, mask, v: int):
    """Vertex-connected components of the closure with the point v removed.

    Triangles sharing an edge stay connected even if the edge contains v
    (an edge minus one point is still connected); the vertex fan at v no
    longer glues."""
    return _closure_components(mesh, mask, skip=int(v))


def _distinct(a) -> np.ndarray:
    """Sorted distinct values of an int array of any shape, as `np.unique`
    gives them, by one sort and a comparison of neighbors: on the few
    thousand values of a set's vertices or edges this is several times
    faster than the hashing `np.unique` does.  The package's one dedupe
    (a union is the `_distinct` of a concatenation)."""
    a = np.sort(a, axis=None)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def hole_counts(mesh: Triangulation, comps) -> np.ndarray:
    """1 - (V - E + F), the holes, of each closure-connected piece in
    `comps`, all in one pass; pieces may overlap (as the candidates of
    void modification do) and each counts its own."""
    if not comps:
        return np.zeros(0, dtype=np.int64)
    sizes = np.array([len(c) for c in comps])
    return _euler_holes(mesh, np.concatenate(comps),
                        np.repeat(np.arange(len(comps)), sizes), len(comps))


def _euler_holes(mesh: Triangulation, ids, which, k) -> np.ndarray:
    """1 - (V - E + F) of each of k pieces, where triangle ids[i] lies in
    piece which[i]: each vertex and edge is coded with its piece's index,
    so one `_distinct` of each counts them per piece."""
    n_v, n_e = mesh.n_nodes, len(mesh.edges)
    v = _distinct(which[:, None] * n_v + mesh.triangles[ids]) // n_v
    e = _distinct(which[:, None] * n_e + mesh.tri_edges[ids]) // n_e
    return (1 - np.bincount(v, minlength=k) + np.bincount(e, minlength=k)
            - np.bincount(which, minlength=k))


def _node_fans(mesh: Triangulation, nodes):
    """(k, t): every triangle t at each of the nodes, with k the node's
    index in `nodes`."""
    indptr, tri_ids = mesh.node_tris
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    k = np.repeat(np.arange(len(nodes)), count)
    return k, tri_ids[np.arange(len(k)) + (start - np.cumsum(count) + count)[k]]


def bounded_components(mesh: Triangulation, mask, holed):
    """Bounded complement components of the member set `mask`, as id
    arrays sorted by min id, given a list `holed` of closure components
    that holds every one with a hole.

    The outer boundary of a bounded component H lies in one closure
    component c, which then has a hole.  A strip of c is a maximal
    edge-connected set of non-members that share a vertex with c.  The
    non-members of H along that boundary lie in one strip: at each
    boundary vertex they fill the fan between the two boundary edges,
    and the triangle on a boundary edge is in the fans of both its ends.
    That strip lies in H, so it has no rim edge and no vertex outside
    c's node bounding box, and its own box holds the boundary's vertices
    and with them all of H.  The complement is labelled only over the
    triangles inside the boxes of the strips that pass both tests: a
    region component that reaches a non-member outside them is not
    bounded, and every bounded component is a whole region component.
    A strip of the unbounded face reaches the rim or passes c's extreme
    vertex, so it adds no box.
    """
    boxes = []
    for c in holed:
        verts = _distinct(mesh.triangles[c])
        lo, hi = mesh.nodes[verts].min(axis=0), mesh.nodes[verts].max(axis=0)
        ring = _distinct(_node_fans(mesh, verts)[1])
        ring = ring[~mask[ring]]
        lab = component_labels(len(ring), _edge_graph(mesh, ring)[1])
        order = np.argsort(lab, kind="stable")
        strips = ring[order]
        starts = np.flatnonzero(np.diff(lab[order], prepend=-1))
        pts = mesh.nodes[mesh.triangles[strips]]
        s_lo = np.minimum.reduceat(pts.min(axis=1), starts)
        s_hi = np.maximum.reduceat(pts.max(axis=1), starts)
        rim = np.logical_or.reduceat(
            (mesh.tri_neighbors[strips] < 0).any(axis=1), starts)
        keep = ~rim & (s_lo >= lo).all(axis=1) & (s_hi <= hi).all(axis=1)
        boxes += [(*a, *b) for a, b in zip(s_lo[keep], s_hi[keep])]
    comps, bounded = complement_components(mesh, mask,
                                           _tris_in_boxes(mesh, boxes))
    return [c for c, b in zip(comps, bounded) if b]


def _tris_in_boxes(mesh: Triangulation, boxes):
    """Sorted ids of the triangles whose nodes all lie in one of the
    closed rectangles (x0, y0, x1, y1) of `boxes`; only the triangles
    whose least x lies in a box's x range are tested."""
    order, tb = mesh.tri_boxes
    inside = np.zeros(mesh.n_triangles, dtype=bool)
    for x0, y0, x1, y1 in boxes:
        lo = np.searchsorted(tb[0], x0, side="left")
        hi = np.searchsorted(tb[0], x1, side="right")
        sub = tb[:, lo:hi]
        inside[order[lo:hi][(sub[1] >= y0) & (sub[2] <= x1)
                            & (sub[3] <= y1)]] = True
    return np.flatnonzero(inside)


def complement_components(mesh: Triangulation, mask, region=None):
    """Components of the open complement of the closed member set.

    Non-member triangles connect across shared edges; edges on the outer
    boundary of the triangulated region connect to the unbounded outside.
    `region`, a sorted array of triangle ids, limits the labelling to its
    non-members; an edge to a non-member outside it then also leads to
    the outside.  The bounded components inside the region come out as
    over the whole mesh, and the unbounded entry holds only the region's
    share of the unbounded component.
    Returns (list of id arrays, list of bounded flags), sorted by min id
    with a possible trailing empty unbounded entry.
    """
    comp_ids = np.where(~mask)[0] if region is None else region[~mask[region]]
    n = len(comp_ids)
    outside = n  # extra node, numbered last so it never names a component
    pos, pairs = _edge_graph(mesh, comp_ids)
    nb = mesh.tri_neighbors[comp_ids]
    # a rim edge, or an edge to a non-member left out of the labelling
    exits = np.flatnonzero(
        ((nb < 0) | ((pos[nb] < 0) & ~mask[nb])).any(axis=1))
    pairs = np.concatenate(
        [pairs, np.column_stack([exits, np.full(len(exits), outside)])])
    lab = component_labels(n + 1, pairs)
    comps = _split_by_label(comp_ids, lab[:n])
    root_out = lab[outside]
    bounded = (_distinct(lab[:n]) != root_out).tolist()
    if root_out == outside:
        comps.append(np.empty(0, dtype=np.int64))
        bounded.append(False)
    return comps, bounded
