"""Independent oracles used to pin expected values.

These deliberately avoid the code paths they check: the crack-pattern
oracle enumerates every subset instead of alternating, the quadrature
helpers integrate loads directly, the component oracle floods triangle
sets breadth-first over adjacency read straight from the vertex triples,
the collar oracle measures each triangle's distance to the body
rectangle one triangle at a time with scalar segment predicates, the clipped-area and background oracles
take one triangle at a time, the pre-crack oracle measures one triangle
center at a time, the filled-boundary oracle finds a set's boundary edges
from its vertex triples, the edge-table and coordinate-key oracles fill one
triangle at a time, point location scans every triangle, the
stiffness oracle converts the element blocks from COO to CSR with SciPy,
the separating-piece oracle splits the home closure component at every
vertex of boundary degree four or more, and the triangle-healing oracle
tests one member triangle at a time against the whole-mesh strains.
"""

from collections import deque

import numpy as np
import scipy.sparse as sp

from quasifrac._kernels import _clip_area_rect, point_seg_dist
from quasifrac.mesh import MeshError
from quasifrac.solver import assemble_stiffness, solve_elastic
from quasifrac.trisets import TriangleSet, closure_components_minus_vertex
from quasifrac.voidmod import _piece_healable


def exhaustive_minimum(mesh, bc, hist_ids, material, params):
    """Minimum history energy over all crack patterns.

    Every subset S of triangles is frozen, the elastic complement solved,
    and the true energy of the resulting field evaluated: per triangle the
    smaller of its elastic energy |T n omega| |e|_C^2 and its crack cost
    kappa |T n omega'| / eps (ties crack, history always cracks), summed
    here directly.  The minimum over all 2^m patterns is returned.
    """
    m = mesh.n_triangles
    if m > 14:
        raise ValueError("exhaustive enumeration limited to small meshes")
    every = np.arange(m)
    w_omega = mesh.area_in_omega
    w_prime = mesh.area_in_omega_prime
    in_hist = np.zeros(m, dtype=bool)
    in_hist[np.asarray(hist_ids, dtype=np.int64)] = True
    best = None
    for bits in range(2 ** m):
        s = np.array([i for i in range(m) if bits >> i & 1], dtype=np.int64)
        active = np.setdiff1d(every, np.union1d(s, hist_ids))
        v = solve_elastic(mesh, active, bc, material)
        strains = v.strains()
        sq = np.einsum("mi,ij,mj->m", strains, material.elasticity, strains)
        elastic = w_omega * sq
        crack = material.kappa * w_prime / params.eps
        cracked = in_hist | (crack <= elastic)
        e = float(elastic[~cracked].sum() + crack[cracked].sum())
        if best is None or e < best:
            best = e
    return best


def _flood(members, adjacent):
    """Components of `members` (sorted ids) under `adjacent(t)`, found
    breadth-first, as sorted id arrays in the order of their smallest id."""
    seen = set()
    comps = []
    for t0 in members:
        if t0 in seen:
            continue
        seen.add(t0)
        comp = [t0]
        queue = deque([t0])
        while queue:
            for s in adjacent(queue.popleft()):
                if s not in seen:
                    seen.add(s)
                    comp.append(s)
                    queue.append(s)
        comps.append(np.asarray(sorted(comp), dtype=np.int64))
    return comps


def bfs_components(mesh, mask, kind, v=None):
    """Components of the member triangles by breadth-first flooding.

    kind "edge": triangles sharing two vertices are adjacent; "closure":
    triangles sharing any vertex other than `v` are adjacent (v=None keeps
    every vertex).  Returns sorted id arrays ordered by smallest id.
    """
    tris = [tuple(int(x) for x in row) for row in mesh.triangles]
    members = [t for t in range(len(tris)) if mask[t]]
    by_vertex = {}
    for t in members:
        for w in tris[t]:
            by_vertex.setdefault(w, []).append(t)
    need = 2 if kind == "edge" else 1

    def adjacent(t):
        counts = {}
        for w in tris[t]:
            if w == v:
                continue
            for s in by_vertex[w]:
                counts[s] = counts.get(s, 0) + 1
        return [s for s, c in counts.items() if s != t and c >= need]

    return _flood(members, adjacent)


def filled_boundary_edges(mesh, member_ids, filled_ids):
    """Number of boundary edges of the member triangles owned by a triangle
    of `filled_ids`.  An edge of a member is on the boundary when no other
    member has the same two vertices."""
    owners = {}
    for t in member_ids:
        tri = [int(w) for w in mesh.triangles[t]]
        for k in range(3):
            key = frozenset((tri[k], tri[(k + 1) % 3]))
            owners.setdefault(key, []).append(int(t))
    filled = {int(t) for t in filled_ids}
    return sum(len(ts) == 1 and ts[0] in filled for ts in owners.values())


def bfs_complement(mesh, mask):
    """(components, bounded flags) of the non-member triangles in the plane.

    Non-members sharing an edge are adjacent, and a non-member with an edge
    that no other mesh triangle has touches the outside, one extra node.
    The component holding the outside is the unbounded one; it is an empty
    trailing entry when no non-member touches the outside.
    """
    out = -1
    tris = [tuple(int(x) for x in row) for row in mesh.triangles]
    owners = {}
    for t, (a, b, c) in enumerate(tris):
        for e in ((a, b), (b, c), (c, a)):
            owners.setdefault(frozenset(e), []).append(t)

    def sides(t):
        a, b, c = tris[t]
        return [owners[frozenset(e)] for e in ((a, b), (b, c), (c, a))]

    free = [t for t in range(len(tris)) if not mask[t]]
    rim = [t for t in free if any(len(o) == 1 for o in sides(t))]
    on_rim = set(rim)

    def adjacent(t):
        if t == out:
            return rim
        nbrs = [s for o in sides(t) for s in o if s != t and not mask[s]]
        return nbrs + [out] if t in on_rim else nbrs

    comps, bounded = [], []
    for c in _flood(free + [out], adjacent):
        bounded.append(c[0] != out)
        comps.append(c[c != out])
    return comps, bounded


def _orient(ax, ay, bx, by, cx, cy):
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def _on_seg(ax, ay, bx, by, px, py):
    return (min(ax, bx) <= px <= max(ax, bx)) and (min(ay, by) <= py <= max(ay, by))


def segs_intersect(ax, ay, bx, by, cx, cy, dx, dy):
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_seg(ax, ay, bx, by, cx, cy):
        return True
    if o2 == 0 and _on_seg(ax, ay, bx, by, dx, dy):
        return True
    if o3 == 0 and _on_seg(cx, cy, dx, dy, ax, ay):
        return True
    if o4 == 0 and _on_seg(cx, cy, dx, dy, bx, by):
        return True
    return False


def seg_seg_dist(ax, ay, bx, by, cx, cy, dx, dy):
    """Distance between segments AB and CD (0 when they intersect)."""
    if segs_intersect(ax, ay, bx, by, cx, cy, dx, dy):
        return 0.0
    d1 = point_seg_dist(ax, ay, cx, cy, dx, dy)
    d2 = point_seg_dist(bx, by, cx, cy, dx, dy)
    d3 = point_seg_dist(cx, cy, ax, ay, bx, by)
    d4 = point_seg_dist(dx, dy, ax, ay, bx, by)
    return min(min(d1, d2), min(d3, d4))


def point_in_tri(x, y, t):
    d1 = (x - t[1, 0]) * (t[0, 1] - t[1, 1]) - (t[0, 0] - t[1, 0]) * (y - t[1, 1])
    d2 = (x - t[2, 0]) * (t[1, 1] - t[2, 1]) - (t[1, 0] - t[2, 0]) * (y - t[2, 1])
    d3 = (x - t[0, 0]) * (t[2, 1] - t[0, 1]) - (t[2, 0] - t[0, 0]) * (y - t[0, 1])
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)


def tri_rect_distance(tri_pts, rect) -> float:
    """Distance between a triangle and a closed rectangle (0 if touching)."""
    x0, y0, x1, y1 = rect
    for p in tri_pts:
        if x0 <= p[0] <= x1 and y0 <= p[1] <= y1:
            return 0.0
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    tri_arr = np.asarray(tri_pts, dtype=float)
    for c in corners:
        if point_in_tri(c[0], c[1], tri_arr):
            return 0.0
    best = np.inf
    for i in range(3):
        a = tri_pts[i]
        b = tri_pts[(i + 1) % 3]
        for j in range(4):
            c = corners[j]
            d = corners[(j + 1) % 4]
            best = min(best, seg_seg_dist(a[0], a[1], b[0], b[1],
                                          c[0], c[1], d[0], d[1]))
    return float(best)


def collar_mask_by_distance(mesh):
    """Triangles at positive distance from the closed body rectangle."""
    rect = mesh.domain.omega
    return np.array([tri_rect_distance(mesh.nodes[t], rect) > 0.0
                     for t in mesh.triangles], dtype=bool)


def clip_areas_by_loop(mesh, rect):
    """Area of each triangle inside the rectangle, every triangle clipped."""
    x0, y0, x1, y1 = rect
    return np.array([_clip_area_rect(mesh.nodes[t], x0, y0, x1, y1)
                     for t in mesh.triangles])


def is_background_by_loop(mesh):
    """Triangles whose lattice vertices form one half of a grid cell,
    decided one triangle at a time with coordinate sets."""
    out = np.zeros(mesh.n_triangles, dtype=bool)
    if mesh.grid_shape is None:
        return out
    _, _, ox, oy = mesh.grid_shape
    h = mesh.params.grid_spacing
    rel = (mesh.nodes - np.array([ox, oy])) / h
    ij = np.round(rel)
    on_lattice = np.max(np.abs(rel - ij), axis=1) * h <= mesh.params.point_tol
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        if not on_lattice[tri].all():
            continue
        pts = {(int(ij[v, 0]), int(ij[v, 1])) for v in tri}
        if len(pts) != 3:
            continue
        i0 = min(p[0] for p in pts)
        j0 = min(p[1] for p in pts)
        loc = {(p[0] - i0, p[1] - j0) for p in pts}
        out[t] = loc in ({(0, 0), (1, 0), (1, 1)}, {(0, 0), (1, 1), (0, 1)})
    return out


def precrack_ids_by_loop(mesh, precrack):
    """Triangles whose center lies within half the band width of the
    pre-crack segment (x1, y1, x2, y2, width), one center at a time."""
    x1, y1, x2, y2, width = precrack
    centers = mesh.nodes[mesh.triangles].mean(axis=1)
    return np.asarray([t for t in range(mesh.n_triangles)
                       if point_seg_dist(centers[t, 0], centers[t, 1],
                                         x1, y1, x2, y2) <= 0.5 * width],
                      dtype=np.int64)


def edge_tables_by_loop(mesh):
    """(edges, edge_tris): the sorted node pairs of the mesh edges, and the
    -1 padded triangles of each, filled one (triangle, slot) occurrence at
    a time; a third triangle on an edge raises MeshError."""
    pairs = [tuple(sorted((tri[k], tri[(k + 1) % 3])))
             for tri in mesh.triangles.tolist() for k in range(3)]
    edges = sorted(set(pairs))
    index = {e: i for i, e in enumerate(edges)}
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    for n, pair in enumerate(pairs):
        e, t = index[pair], n // 3
        if edge_tris[e, 0] < 0:
            edge_tris[e, 0] = t
        elif edge_tris[e, 1] < 0:
            edge_tris[e, 1] = t
        else:
            raise MeshError(f"edge {e} shared by more than two triangles")
    return np.asarray(edges, dtype=np.int64), edge_tris


def tri_keys_by_loop(mesh):
    """Sorted rounded coordinate keys of each triangle, one vertex at a
    time with Python's round."""
    tol = mesh.params.point_tol
    return [tuple(sorted((round(mesh.nodes[v, 0] / tol),
                          round(mesh.nodes[v, 1] / tol)) for v in tri))
            for tri in mesh.triangles]


def containing_triangle(mesh, p):
    """Id of the first triangle containing point p, or -1."""
    for t, tri in enumerate(mesh.triangles):
        if point_in_tri(p[0], p[1], mesh.nodes[tri]):
            return t
    return -1


def field_at(u, p):
    """Value of the piecewise-affine field u at point p (barycentric)."""
    t = containing_triangle(u.mesh, p)
    if t < 0:
        raise ValueError(f"point {p} outside mesh")
    tri = u.mesh.triangles[t]
    pts = u.mesh.nodes[tri]
    det = ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
           - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0]))
    l1 = ((p[0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
          - (p[1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0])) / det
    l2 = ((pts[1, 0] - pts[0, 0]) * (p[1] - pts[0, 1])
          - (pts[1, 1] - pts[0, 1]) * (p[0] - pts[0, 0])) / det
    l0 = 1.0 - l1 - l2
    return (l0 * u.values[tri[0]] + l1 * u.values[tri[1]]
            + l2 * u.values[tri[2]])


def coo_stiffness(mesh, active_ids, material):
    """SciPy CSR matrix of sum_T |T n omega| |e(v)|_C^2 over the active
    triangles of positive weight, summed by COO to CSR conversion, and the
    ids of those triangles."""
    active_ids = np.asarray(active_ids, dtype=np.int64)
    w = mesh.area_in_omega[active_ids]
    keep = w > 0.0
    ids = active_ids[keep]
    w = w[keep]
    n = 2 * mesh.n_nodes
    if not len(ids):
        return sp.csr_matrix((n, n)), ids
    bmats = mesh.b_matrices[ids]
    cb = np.einsum("ab,mbj->maj", material.elasticity, bmats)
    ke = np.einsum("mai,maj->mij", bmats, cb) * w[:, None, None]
    tris = mesh.triangles[ids]
    dof = np.empty((len(ids), 6), dtype=np.int32)
    dof[:, 0::2] = 2 * tris
    dof[:, 1::2] = 2 * tris + 1
    rows = np.repeat(dof, 6, axis=1).ravel()
    cols = np.tile(dof, (1, 6)).ravel()
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return k, ids


def scipy_csr(k):
    """SciPy CSR matrix of the program's CSRMatrix `k`."""
    return sp.csr_matrix((k.data, k.indices, k.indptr), shape=k.shape)


def kkt_residual(mesh, active, u, material, extra_pinned_nodes=None) -> float:
    """Norm of the reduced gradient at u relative to the load norm."""
    active_ids = active.ids if isinstance(active, TriangleSet) else \
        np.asarray(sorted(active), dtype=np.int64)
    k = scipy_csr(assemble_stiffness(mesh, active_ids, material)[0])
    x = u.values.ravel()
    g = k @ x
    pinned = mesh.collar_node_mask
    if extra_pinned_nodes is not None and len(extra_pinned_nodes):
        pinned = pinned.copy()
        pinned[np.asarray(extra_pinned_nodes, dtype=np.int64)] = True
    free = np.ones(2 * mesh.n_nodes, dtype=bool)
    free[0::2] = ~pinned
    free[1::2] = ~pinned
    diag = np.asarray(k.diagonal())
    free &= diag > 0.0
    load = np.linalg.norm(g[~free])
    if load == 0.0:
        load = 1.0
    return float(np.linalg.norm(g[free]) / load)


def sep_pieces_by_vertex(B):
    """Every closure component of B, plus every part that the closure of a
    component splits into at one vertex of boundary degree >= 4; sorted id
    arrays in lexicographic order, without repeats."""
    mesh = B.mesh
    deg = np.bincount(mesh.edges[B.boundary_edges].ravel(),
                      minlength=mesh.n_nodes)
    closure = B.closure_components
    pieces = [tuple(int(t) for t in c) for c in closure]
    comp_of = {int(t): i for i, c in enumerate(closure) for t in c}
    for v in np.where(deg >= 4)[0]:
        incident = [int(t) for t in mesh.tris_of_node(v) if B.mask[t]]
        if not incident:
            continue
        sub = np.zeros(mesh.n_triangles, dtype=bool)
        sub[closure[comp_of[incident[0]]]] = True
        parts = closure_components_minus_vertex(mesh, sub, int(v))
        if len(parts) > 1:
            pieces += [tuple(int(t) for t in p) for p in parts]
    return [np.asarray(p, dtype=np.int64) for p in sorted(set(pieces))]


def heal_triangles_by_loop(H, u):
    """(kept ids, ratios) of triangle healing: one member at a time, with
    the ratios taken from the strains of the whole mesh."""
    mesh = H.mesh
    mask = H.mask
    nb = mesh.tri_neighbors
    indptr, tri_ids = mesh.node_tris
    strains = u.strains()
    removal, ratios = [], []
    for t in H.ids.tolist():
        nbs = nb[t]
        member_nb = [int(s) for s in nbs if s >= 0 and mask[s]]
        exposed = [int(s) for s in nbs if s >= 0 and not mask[s]]
        if len(member_nb) > 1 or len(exposed) < 2 or (nbs < 0).any():
            continue
        exclusive = False
        for v in mesh.triangles[t]:
            owners = tri_ids[indptr[v]:indptr[v + 1]]
            if not np.any(mask[owners] & (owners != t)):
                exclusive = True
                break
        if not exclusive or not _piece_healable(mesh, np.array([t])):
            continue
        removal.append(t)
        num = float(mesh.areas[t] * (strains[t] ** 2).sum())
        den = sum(float(mesh.areas[s] * (strains[s] ** 2).sum())
                  for s in exposed)
        ratios.append(0.0 if den == 0.0 else num / den)
    return np.setdiff1d(H.ids, removal), ratios
