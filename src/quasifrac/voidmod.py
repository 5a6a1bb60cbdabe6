"""Void modification: boundary-graph analysis, hole filling, removal of
small separating pieces, healing, and the sharp-perimeter post-processing
of cracked-triangle sets.

The pipeline turns a triangle set A with bounded energy into A_mod whose
boundary length is dominated by 2|A|/(eps sin theta0) up to O(eta):
small holes of the closure are filled; small pieces hanging at separating
vertices (and whole small closure components) are cut off with the field
extended elastically over them; remaining small pieces touching the rest
in at most two points are peeled iteratively; finally exposed triangles
with an exclusive vertex are healed away.  Every stage removes whole saturated
pieces or single triangles, which keeps filled triangles interior and
makes the construction monotone under set inclusion.

The passes cost in proportion to the set, not the mesh: edge-connectivity
reads the members' rows of the neighbor table, holes are counted by
Euler's formula on the closure (`TriangleSet.n_holes`; a connected piece
needs no closure labelling) and labelled only inside the node bounding
boxes of the closure components that hold one
(`trisets.bounded_components`), the pieces split at one vertex come from
one depth-first search per set, a piece is healable when it owns no rim
triangle (no -1 in its rows of the neighbor table), and triangle healing
tests all members at once.  Each pass works on all its pieces together:
the candidates of a pass are tested in one batch (`_small_saturations`,
`_touch_counts`), and every piece a pass removes is healed in one batch
(`_remove_pieces`).  What still scales with the mesh is the clipped
areas of the inner window and the audit energies over the complement,
whose strains are evaluated only on the triangles of positive weight.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._kernels import clip_areas_rect, strain_blocks, strains_from_values
from .mesh import DisplacementField, Triangulation
from .trisets import (TriangleSet, _distinct, bounded_components,
                      component_labels, hole_counts)


class VoidModError(Exception):
    pass


@dataclass(frozen=True)
class VoidModParams:
    """Smallness parameter eta of the void modification."""

    eta: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.eta <= 0.5):
            raise VoidModError(f"eta must lie in (0, 0.5], got {self.eta}")

    def hole_threshold(self, eps: float) -> float:
        """Area budget eps^2 / eta^2 for holes and removable pieces."""
        return eps * eps / (self.eta * self.eta)


# ---------------------------------------------------------------------------
# boundary graph


@dataclass
class BoundaryGraph:
    """Planar graph carried by the boundary of a triangle set.

    Vertices are mesh nodes on the set boundary, edges the triangle edges
    contained in it.  `cycles[i]` lists, for edge-component i, the
    concatenated vertex tuples of its boundary curves; `d_of_component[i]`
    counts tuple positions whose vertex has degree >= 4.
    """

    vertices: np.ndarray
    edge_ids: np.ndarray
    degree: dict
    v2l_counts: dict
    n_faces: int
    n_graph_components: int
    n_components: int
    n_bounded_complement: int
    cycles: list
    d_of_component: list

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    def euler_identity(self):
        """(V - E + F, nu): equal by the planar Euler formula."""
        return (self.n_vertices - self.n_edges + self.n_faces,
                self.n_graph_components)

    def edge_count_identity(self):
        """(E, sum_k k * #V_2k): equal since every edge joins two vertices."""
        rhs = sum(k * c for k, c in self.v2l_counts.items())
        return (self.n_edges, rhs)

    def d_sum_identity(self):
        """(sum_l l * #D_l, sum_{k>=2} k * #V_2k): equal by cycle counting."""
        lhs = sum(self.d_of_component)
        rhs = sum(k * c for k, c in self.v2l_counts.items() if k >= 2)
        return (lhs, rhs)


def _boundary_members(tset: TriangleSet):
    """(boundary edges, the member triangle owning each)."""
    be = tset.boundary_edges
    et = tset.mesh.edge_tris[be]
    return be, np.where(tset.mask[et[:, 0]], et[:, 0], et[:, 1])


def build_boundary_graph(H: TriangleSet) -> BoundaryGraph:
    """Boundary graph of a nonempty set, with degree partition, faces,
    boundary-cycle tuples per edge-component, and touch counts."""
    if not len(H):
        raise VoidModError("boundary graph of an empty set")
    mesh = H.mesh
    be = H.boundary_edges
    deg = np.bincount(mesh.edges[be].ravel(), minlength=mesh.n_nodes)
    verts = np.where(deg > 0)[0]
    degree = {int(v): int(deg[v]) for v in verts}
    v2l = {}
    for v, d in degree.items():
        v2l[d // 2] = v2l.get(d // 2, 0) + 1

    comps = H.components
    comp_of = np.full(mesh.n_triangles, -1, dtype=np.int64)
    for i, c in enumerate(comps):
        comp_of[c] = i
    _, bounded = H.complement_components
    n_bounded = int(sum(bounded))
    n_faces = len(comps) + n_bounded

    # graph components: vertices labelled by their own index are the roots
    lab = component_labels(len(verts), np.searchsorted(verts, mesh.edges[be]))
    nu = int((lab == np.arange(len(verts))).sum())

    cycles, d_of_component = _boundary_cycles(H, comp_of, len(comps), degree)
    return BoundaryGraph(vertices=verts, edge_ids=be, degree=degree,
                         v2l_counts=v2l, n_faces=n_faces,
                         n_graph_components=nu, n_components=len(comps),
                         n_bounded_complement=n_bounded,
                         cycles=cycles, d_of_component=d_of_component)


def _boundary_cycles(H: TriangleSet, comp_of, n_comps, degree):
    """Traverse boundary curves with the member material kept on the left.

    Starting from each unvisited directed boundary edge, the walk rotates
    around the head vertex through member triangles until it exits across
    the next boundary edge of the same material wedge, so curves never
    cross at pinch vertices.
    """
    mesh = H.mesh
    mask = H.mask
    tris = mesh.triangles
    te = mesh.tri_edges
    nb = mesh.tri_neighbors
    be, member = _boundary_members(H)
    is_boundary = np.zeros(len(mesh.edges), dtype=bool)
    is_boundary[be] = True
    # each boundary edge directed counterclockwise in its member triangle
    pos = np.argmax(te[member] == be[:, None], axis=1)
    tails = tris[member, pos]
    heads = tris[member, (pos + 1) % 3]

    def next_edge(v, t):
        """(v, w, member) of the first boundary edge met by rotating around
        v through member triangles from t; in each, the edge tried is the
        one leaving v counterclockwise, at v's slot."""
        while True:
            tri = tris[t].tolist()
            i = tri.index(v)
            if is_boundary[te[t, i]]:
                return (v, tri[(i + 1) % 3], t)
            # hop to the member triangle across that edge
            t = int(nb[t, i])
            if t < 0 or not mask[t]:
                raise VoidModError("boundary walk left the member set")

    visited = set()
    comp_cycles = [[] for _ in range(n_comps)]
    for a0, b0, t0 in zip(tails.tolist(), heads.tolist(), member.tolist()):
        if (a0, b0) in visited:
            continue
        cyc = []
        a, b, t = a0, b0, t0
        while True:
            visited.add((a, b))
            cyc.append(b)
            a, b, t = next_edge(b, t)
            if (a, b) == (a0, b0):
                break
        comp_cycles[comp_of[t0]].append(cyc)

    d_of_component = []
    cycles = []
    for i in range(n_comps):
        tup = []
        for cyc in comp_cycles[i]:
            tup.extend(cyc)
        cycles.append(comp_cycles[i])
        d_of_component.append(sum(1 for v in tup if degree.get(v, 0) >= 4))
    return cycles, d_of_component


# ---------------------------------------------------------------------------
# modification 1: filling small holes


def fill_holes(A: TriangleSet, vm: VoidModParams) -> TriangleSet:
    """Absorb bounded complement components of area <= eps^2/eta^2; they
    are labelled only inside the boxes of the closure components that
    the Euler count finds a hole in (`TriangleSet.holes`)."""
    mesh = A.mesh
    budget = vm.hole_threshold(mesh.params.eps)
    fill = [c for c in A.holes if float(mesh.areas[c].sum()) <= budget]
    if not fill:
        return A
    return TriangleSet(mesh, np.concatenate([A.ids, *fill]))


# ---------------------------------------------------------------------------
# healing primitives


def _node_fans(mesh: Triangulation, nodes):
    """(k, t): every triangle t at each of the nodes, with k the node's
    index in `nodes`."""
    indptr, tri_ids = mesh.node_tris
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    k = np.repeat(np.arange(len(nodes)), count)
    return k, tri_ids[np.arange(len(k)) + (start - np.cumsum(count) + count)[k]]


def _piece_healable(mesh: Triangulation, z_ids) -> bool:
    """Gate: the piece is nonempty and owns no edge of the mesh rim.

    In a planar tiling (triangles meeting edge to edge, each edge in at
    most two of them) such a piece always has a nonempty neighborhood (the
    triangles outside it that share a vertex with it) to take healing data
    from: the union of its triangles is bounded, so it has a boundary edge,
    and as that edge is not on the rim, the triangle across it lies outside
    the piece."""
    z_ids = np.asarray(z_ids, dtype=np.int64)
    return len(z_ids) > 0 and not (mesh.tri_neighbors[z_ids] < 0).any()


def _tri_strain_energy(mesh: Triangulation, u: DisplacementField,
                       ids) -> np.ndarray:
    """Area-weighted squared Frobenius strain of each triangle in ids."""
    s = strains_from_values(np.take(mesh.strain_gradients, ids, axis=1),
                            mesh.triangles[ids], u.values)
    return mesh.areas[ids] * (s * s).sum(axis=1)


def _complement_strain_energy(u: DisplacementField, member_mask,
                              weights) -> float:
    """Weighted squared Frobenius strain summed over the non-members in id
    order.  Strains are evaluated only where the weight is positive; the
    other terms are +0.0, as a zero weight times a finite square gives, so
    the sum has the terms, order and bits of the sum over the complement's
    ids alone."""
    mesh = u.mesh
    ids = np.flatnonzero(weights > 0.0)
    s = strains_from_values(np.take(mesh.strain_gradients, ids, axis=1),
                            mesh.triangles[ids], u.values)
    terms = np.zeros(mesh.n_triangles)
    terms[ids] = weights[ids] * (s * s).sum(axis=1)
    return float(terms[~member_mask].sum())


# ---------------------------------------------------------------------------
# modification 2: separating vertices


def _sep_piece_candidates(B: TriangleSet, budget: float):
    """The whole closure components of B, plus every part of area <=
    budget that the closure of its component splits into at one vertex;
    sorted id arrays in lexicographic order, without repeats.

    Removing a vertex never splits an edge-component (two triangles sharing
    an edge share a second vertex), so one depth-first search runs over the
    graph of edge-components and the vertices shared by two or more of them,
    on an explicit stack since a chain of pieces can be long.  Rooted at a component, every cut vertex v is an
    inner node; it cuts off each child subtree c with low[c] >= disc[v],
    a contiguous slice of visit order, and the rest of its tree is the
    remaining part.  Prefix sums of the components' areas along visit order
    rule out parts that are far too large; the others are decided on their
    sorted ids, as `_small_saturations` sums them.
    """
    mesh = B.mesh
    comps = B.components
    n_c = len(comps)
    if not n_c:
        return []
    # (vertex, component) incidences; junctions touch two or more components
    flat = np.concatenate(comps)
    sizes = np.array([len(c) for c in comps])
    code = _distinct(mesh.triangles[flat] * n_c
                     + np.repeat(np.arange(n_c), sizes)[:, None])
    vert, comp = np.divmod(code, n_c)
    first = np.r_[True, vert[1:] != vert[:-1]]
    count = np.diff(np.r_[np.flatnonzero(first), len(vert)])
    shared = np.repeat(count >= 2, count)
    junction = n_c - 1 + np.cumsum(first[shared])  # graph node of the vertex
    nbrs = [[] for _ in range(n_c + int(first[shared].sum()))]
    for j, c in zip(junction.tolist(), comp[shared].tolist()):
        nbrs[j].append(c)
        nbrs[c].append(j)

    n = len(nbrs)
    disc, low, parent = [-1] * n, [0] * n, [-1] * n
    span, root = [1] * n, [0] * n
    order = []
    for r in range(n_c):
        if disc[r] >= 0:
            continue
        disc[r] = low[r] = len(order)
        order.append(r)
        stack = [(r, iter(nbrs[r]))]
        while stack:
            u, it = stack[-1]
            for w in it:
                if disc[w] < 0:
                    parent[w], root[w] = u, r
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    stack.append((w, iter(nbrs[w])))
                    break
                if w != parent[u]:
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if stack:
                    p = parent[u]
                    low[p] = min(low[p], low[u])
                    span[p] += span[u]

    node_area = np.zeros(n)
    node_area[:n_c] = np.add.reduceat(mesh.areas[flat],
                                      np.cumsum(sizes) - sizes)
    cum = np.r_[0.0, np.cumsum(node_area[order])]
    slack = 1e-9 * cum[-1]  # far above the rounding of either sum

    def part(slices):
        """Sorted ids of the components in the visit-order slices."""
        return np.sort(np.concatenate(
            [comps[w] for a, b in slices for w in order[a:b] if w < n_c]))

    whole = [part([(disc[r], disc[r] + span[r])])
             for r in range(n_c) if parent[r] < 0]
    cuts = {}
    for c in range(n_c):
        v = parent[c]
        if v >= 0 and low[c] >= disc[v]:
            cuts.setdefault(v, []).append((disc[c], disc[c] + span[c]))
    split = []
    for v, cut in cuts.items():
        r = root[v]
        rest = [(disc[r], disc[r] + span[r])]
        rest_area = cum[disc[r] + span[r]] - cum[disc[r]]
        for a, b in sorted(cut):
            if cum[b] - cum[a] <= budget + slack:
                split.append(part([(a, b)]))
            rest_area -= cum[b] - cum[a]
            lo, hi = rest.pop()
            rest += [(lo, a), (b, hi)]
        if rest_area <= budget + slack:
            split.append(part(rest))
    small = [p for p in split if float(mesh.areas[p].sum()) <= budget]
    unique = {tuple(p.tolist()): p for p in whole + small}
    return [unique[k] for k in sorted(unique)]


def _small_saturations(mesh: Triangulation, pieces, budget: float):
    """Saturation of each piece when it is small and healable, else None.

    Every piece is nonempty and closure-connected (a separating-vertex
    candidate or an edge-component), so its holes number 1 - (V - E + F);
    the holes of all pieces that pass the area test are counted in one
    pass (`hole_counts`, which allows pieces to overlap), and the rim test
    of the pieces without one is one `reduceat` over their rows of the
    neighbor table.  Only a piece with a hole gets a mask and a hole
    labelling."""
    out = [None] * len(pieces)
    # per piece: its bits decide the comparison, and saturation only grows
    small = [i for i, p in enumerate(pieces)
             if float(mesh.areas[p].sum()) <= budget]
    if not small:
        return out
    cand = [pieces[i] for i in small]
    sizes = np.array([len(p) for p in cand])
    on_rim = (mesh.tri_neighbors[np.concatenate(cand)] < 0).any(axis=1)
    rim = np.logical_or.reduceat(on_rim, np.cumsum(sizes) - sizes)
    for i, p, holes, r in zip(small, cand, hole_counts(mesh, cand), rim):
        if not holes:
            out[i] = None if r else p
            continue
        mask = np.zeros(mesh.n_triangles, dtype=bool)
        mask[p] = True
        sat = _distinct(np.concatenate(
            [p, *bounded_components(mesh, mask, [p])]))
        if (float(mesh.areas[sat].sum()) <= budget
                and _piece_healable(mesh, sat)):
            out[i] = sat
    return out


def _maximal_small_pieces(B: TriangleSet, vm: VoidModParams):
    """(piece, saturation) pairs of the separating-vertex candidates of B
    that are small and healable and lie in no other such piece."""
    mesh = B.mesh
    budget = vm.hole_threshold(mesh.params.eps)
    cands = _sep_piece_candidates(B, budget)
    small = [(p, sat) for p, sat in zip(
        cands, _small_saturations(mesh, cands, budget)) if sat is not None]
    sets = [frozenset(p.tolist()) for p, _ in small]
    return [pair for pair, s in zip(small, sets)
            if not any(s < other for other in sets)]


def _bounds(keys, n):
    """Slice bounds of keys 0..n-1 in the sorted key array `keys`: key k
    occupies [bounds[k], bounds[k + 1])."""
    return np.r_[0, np.cumsum(np.bincount(keys, minlength=n))]


def _remove_pieces(W: TriangleSet, u: DisplacementField, pieces,
                   stats: dict):
    """Remove the (piece, saturation) pairs from W and heal u over each
    closure component of the removed saturations, with the data taken from
    its neighborhood minus what W keeps; counts the pieces and healing
    ratios in stats.

    Each component's extension minimizes the strain energy over it with
    its nodes on a data triangle pinned (a minimum-norm solve fixes any
    leftover rigid freedom), and its ratio is ||e(u_new)||^2 over the
    component plus its data relative to ||e(u_old)||^2 on the data (0.0
    when that is 0.0).  All components are healed in one batch, which
    gives the field and ratios of healing them one after another in any
    order: the components share no vertex, and a data triangle lies
    outside the kept set and outside every component, so a data triangle
    of one component that touches another is data for that one too, and
    its nodes are pinned in both.  No extension thus moves a node that
    another component's extension or ratio reads.  The neighborhoods come
    from one pass over the node fans, keyed by (component, triangle); the
    element blocks from one `strain_blocks` call; only the dense assembly
    (in id order) and the `lstsq` run per component, and only where a
    node is free.
    """
    mesh = W.mesh
    m, n_nodes = mesh.n_triangles, mesh.n_nodes
    rest = W.difference(np.concatenate([p for p, _ in pieces]))
    region = TriangleSet(mesh, np.concatenate([sat for _, sat in pieces]))
    comps = region.closure_components
    sizes = np.array([len(c) for c in comps])
    flat = np.concatenate(comps)
    which = np.repeat(np.arange(len(comps)), sizes)
    # (component, node) pairs in that order, and the triangles at each node
    comp_of, nodes = np.divmod(
        _distinct(which[:, None] * n_nodes + mesh.triangles[flat]), n_nodes)
    k, fan = _node_fans(mesh, nodes)
    is_data = ~region.mask[fan] & ~rest.mask[fan]
    pinned = np.zeros(len(nodes), dtype=bool)
    pinned[k[is_data]] = True
    data_comp, data = np.divmod(
        _distinct(comp_of[k[is_data]] * m + fan[is_data]), m)

    out = u
    free = np.flatnonzero(np.bincount(comp_of[~pinned], minlength=len(comps)))
    if len(free):
        out = u.copy()
        node_at = _bounds(comp_of, len(comps))
        ext = np.concatenate([comps[c] for c in free])
        b = strain_blocks(mesh.strain_gradients, ext)
        ke = np.swapaxes(b, 1, 2) @ b * mesh.areas[ext][:, None, None]
        at = 0
        for c in free.tolist():
            z_ids = comps[c]
            znodes = nodes[node_at[c]:node_at[c + 1]]
            shared = pinned[node_at[c]:node_at[c + 1]]
            local = np.searchsorted(znodes, mesh.triangles[z_ids])
            dof = (2 * local[:, :, None] + np.arange(2)).reshape(len(z_ids), 6)
            n = 2 * len(znodes)
            kz = np.zeros((n, n))
            # summed in id order, as a loop over the triangles would
            np.add.at(kz, (dof[:, :, None], dof[:, None, :]),
                      ke[at:at + len(z_ids)])
            at += len(z_ids)
            x = u.values[znodes].ravel()
            fixed = np.repeat(shared, 2)
            f_idx = np.flatnonzero(~fixed)
            p_idx = np.flatnonzero(fixed)
            kff = kz[np.ix_(f_idx, f_idx)]
            rhs = -kz[np.ix_(f_idx, p_idx)] @ x[p_idx] if len(p_idx) \
                else np.zeros(len(f_idx))
            x[f_idx] = np.linalg.lstsq(kff, rhs, rcond=None)[0]
            out.values[znodes[~shared]] = x.reshape(-1, 2)[~shared]

    # ratios: the new field on each component's sorted piece-plus-data
    # ids, the old one on its data ids, each summed over its own slice
    num_comp, num_ids = np.divmod(
        np.sort(np.concatenate([which * m + flat, data_comp * m + data])), m)
    num = _tri_strain_energy(mesh, out, num_ids)
    den = _tri_strain_energy(mesh, u, data)
    num_at = _bounds(num_comp, len(comps)).tolist()
    den_at = _bounds(data_comp, len(comps)).tolist()
    ratios = stats.setdefault("heal_ratios", [])
    for c in range(len(comps)):
        d = float(den[den_at[c]:den_at[c + 1]].sum())
        ratios.append(0.0 if d == 0.0 else
                      float(num[num_at[c]:num_at[c + 1]].sum()) / d)
    stats["sep_removed"] = stats.get("sep_removed", 0) + len(pieces)
    return rest, out


def remove_separating_small(B: TriangleSet, u: DisplacementField,
                            vm: VoidModParams, stats: Optional[dict] = None):
    """Remove maximal small pieces hanging at separating vertices (and
    whole small closure components), healing the field over each; pieces
    touching the outer boundary of the triangulated region are kept."""
    stats = {} if stats is None else stats
    stats.setdefault("sep_removed", 0)
    keep = _maximal_small_pieces(B, vm)
    if not keep:
        return B, u
    return _remove_pieces(B, u, keep, stats)


# ---------------------------------------------------------------------------
# modification 3: iterated peeling of two-touch small pieces


def _touch_counts(mesh: Triangulation, comps):
    """Per component of a list that partitions a set, the number of its
    nodes that a triangle of another component shares: those where two or
    more components meet."""
    sizes = np.array([len(c) for c in comps])
    which = np.repeat(np.arange(len(comps)), sizes)
    node, comp = np.divmod(_distinct(
        mesh.triangles[np.concatenate(comps)] * len(comps) + which[:, None]),
        len(comps))
    meets = np.bincount(node, minlength=mesh.n_nodes)[node] >= 2
    return np.bincount(comp[meets], minlength=len(comps))


def _peel_round(W: TriangleSet, vm: VoidModParams):
    """(piece, saturation) pairs removed in one simultaneous round: small
    edge-components touching the rest in at most two points, plus small
    single-vertex-separated pieces, each piece once (a whole small closure
    component is both)."""
    mesh = W.mesh
    budget = vm.hole_threshold(mesh.params.eps)
    comps = W.components
    sats = _small_saturations(mesh, comps, budget)
    removal = []
    if any(sat is not None for sat in sats):
        touch = _touch_counts(mesh, comps)
        removal = [(c, sat) for c, sat, k in zip(comps, sats, touch.tolist())
                   if sat is not None and k <= 2]
    once = {}
    for p, sat in removal + _maximal_small_pieces(W, vm):
        once.setdefault(tuple(p.tolist()), (p, sat))
    return list(once.values())


# ---------------------------------------------------------------------------
# triangle healing


def heal_triangles(H: TriangleSet, u: DisplacementField,
                   stats: Optional[dict] = None) -> TriangleSet:
    """Drop member triangles exposing two or more edges that own a vertex
    exclusive to them (no other member shares it); one simultaneous pass.

    The strain of a dropped triangle is already determined by continuity
    along the two shared edges with its good neighbors, so the field needs
    no modification; the induced amplification is measured and reported,
    which is all `u` is read for.  Triangles at the outer boundary of the
    triangulated region are kept.

    The test runs on whole arrays: the members' neighbor rows, and the
    number of members at each node (1 marks an exclusive vertex).  Strains
    are evaluated only on the dropped triangles and their exposed
    neighbors.
    """
    mesh = H.mesh
    if not len(H):
        return H
    ratios = stats.setdefault("tri_heal_ratios", []) if stats is not None else []
    ids = H.ids
    nbs = mesh.tri_neighbors[ids]
    member_nb = (nbs >= 0) & H.mask[nbs]
    owners = np.bincount(mesh.triangles[ids].ravel(), minlength=mesh.n_nodes)
    # missing neighbors: cannot heal at the mesh rim.  With all three
    # present, at most one a member, two or more edges are exposed, and the
    # triangle is off the rim with a nonempty neighborhood: healable
    drop = ((nbs >= 0).all(axis=1) & (member_nb.sum(axis=1) <= 1)
            & (owners[mesh.triangles[ids]] == 1).any(axis=1))
    removal = ids[drop]
    if not len(removal):
        return H
    if stats is not None:
        exposed = ~member_nb[drop]
        nb_energy = np.zeros(exposed.shape)
        nb_energy[exposed] = _tri_strain_energy(mesh, u, nbs[drop][exposed])
        # summed in neighbor order, as a running sum over the exposed ones
        den = nb_energy[:, 0] + nb_energy[:, 1] + nb_energy[:, 2]
        num = _tri_strain_energy(mesh, u, removal)
        ratios.extend(np.divide(num, den, out=np.zeros_like(num),
                                where=den != 0.0).tolist())
        stats["healed_triangles"] = stats.get("healed_triangles", 0) + len(removal)
    return H.difference(removal)


def _unfill_exposed(H: TriangleSet, filled) -> TriangleSet:
    """Remove filled (non-input) triangles that own a boundary edge,
    cascading until none is exposed.

    Removing non-input triangles preserves nesting under set inclusion and
    restores the invariant that hole fills stay interior even when a
    neighboring triangle was healed away."""
    if not len(filled) or not len(H):
        return H
    mesh = H.mesh
    fmask = np.zeros(mesh.n_triangles, dtype=bool)
    fmask[np.asarray(filled, dtype=np.int64)] = True
    out = H
    while len(out):
        _, member = _boundary_members(out)
        exposed = member[fmask[member]]
        if not len(exposed):
            break
        out = out.difference(exposed)
    return out


# ---------------------------------------------------------------------------
# full pipeline


@dataclass
class ModResult:
    a_mod: TriangleSet
    u_mod: DisplacementField
    t_mod: TriangleSet
    filled: np.ndarray
    stats: dict = field(default_factory=dict)


def modify_voids(A: TriangleSet, u: DisplacementField,
                 vm: VoidModParams) -> ModResult:
    """Full void-modification pipeline producing A_mod, u_mod, and audit
    statistics (areas, boundary length, component count, healing
    amplification, and the measured constants of the sharp bound).  An
    empty A takes the same path: the sets come out empty, the field
    unchanged, and the stats carry the same keys as for any other A."""
    mesh = A.mesh
    eps = mesh.params.eps
    sin0 = math.sin(mesh.params.theta0)
    stats = {"area_A": A.area, "eta": vm.eta}
    energy_in = _complement_strain_energy(u, A.mask, mesh.area_in_omega)
    stats["energy_in"] = energy_in

    b = fill_holes(A, vm)
    filled = b.ids[~A.mask[b.ids]]

    work = {}
    b_sep, u_mod = remove_separating_small(b, u, vm, stats=work)

    # every piece a round returns is a nonempty part of w, and the round
    # removes it, so each round shrinks w and the rounds end
    w = b_sep
    while pieces := _peel_round(w, vm):
        w, u_mod = _remove_pieces(w, u_mod, pieces, work)

    a_mod = heal_triangles(w, u_mod, stats=work)
    a_mod = _unfill_exposed(a_mod, filled)

    t_mod = TriangleSet(mesh, A.ids[a_mod.mask[A.ids]])
    perim = a_mod.boundary_length
    n_comp = len(a_mod.components)
    heal_ratios = work.get("heal_ratios", []) + work.get("tri_heal_ratios", [])

    # changed region and reference energy inside the inner window
    window = _inner_window(mesh, vm)
    if window is not None:
        wx0, wy0, wx1, wy1 = window
        w_in = clip_areas_rect(mesh.nodes, mesh.triangles, wx0, wy0, wx1, wy1)
        changed_tris = _changed_triangles(mesh, u, u_mod)
        changed_area = float(w_in[changed_tris].sum()) if len(changed_tris) else 0.0
        energy_out = _complement_strain_energy(u_mod, a_mod.mask, w_in)
    else:
        changed_area = 0.0
        energy_out = 0.0

    stats.update(
        area_Amod=a_mod.area,
        perim_Amod=perim,
        n_components=n_comp,
        healed_triangle_count=work.get("healed_triangles", 0),
        removed_component_count=work.get("sep_removed", 0),
        energy_out=energy_out,
        c_eta=a_mod.area / eps,
        c_perimeter=(perim - 2.0 * A.area / (eps * sin0)) / vm.eta,
        c_components=n_comp * eps / vm.eta,
        max_heal_ratio=max(heal_ratios) if heal_ratios else 0.0,
        changed_area=changed_area,
        window=window,
    )
    return ModResult(a_mod, u_mod, t_mod, filled, stats)


def _changed_triangles(mesh: Triangulation, u, u_mod):
    """Triangles with a node where u_mod differs from u."""
    diff = np.any(u.values != u_mod.values, axis=1)
    return np.flatnonzero(diff[mesh.triangles].any(axis=1))


def _inner_window(mesh: Triangulation, vm: VoidModParams):
    """Rectangle {x : dist(x, boundary of omega_prime) > 2 omega(eps) + eps/eta^3};
    None when empty."""
    px0, py0, px1, py1 = mesh.domain.omega_prime
    m = 2.0 * mesh.params.omega + mesh.params.eps / vm.eta ** 3
    wx0, wy0, wx1, wy1 = px0 + m, py0 + m, px1 - m, py1 - m
    if wx0 >= wx1 or wy0 >= wy1:
        return None
    return (wx0, wy0, wx1, wy1)
