"""Independent oracles used to pin expected values.

These deliberately avoid the code paths they check: the crack-pattern
oracle enumerates every subset instead of alternating, the quadrature
helpers integrate loads directly, the component oracle floods triangle
sets breadth-first over adjacency read straight from the vertex triples,
the rim oracle counts the owners of each edge from the vertex triples,
the collar oracle measures each triangle's distance to the body
rectangle one triangle at a time with scalar segment predicates, the
overlap oracle clips and tests one triangle pair of a dict-keyed hash
grid at a time with a scalar polygon clipper and point-segment distance,
the clipped-area, strain, density and background oracles take one
triangle at a time, the clipped-length oracle clips one segment at a time
and the polyline oracle numbers the curve's nodes through a dict, the
pre-crack oracle measures one triangle center at a time, the filled-boundary oracle finds a set's boundary edges
from its vertex triples, the edge-table and coordinate-key oracles fill one
triangle at a time and a second edge-table oracle runs a row-wise
np.unique of vertex pairs, point location scans every triangle, the
stiffness oracle converts the element blocks from COO to CSR with SciPy,
the whole-set oracles set a system up from every weighted triangle at
once (the gauge of every active triangle, the diagonal and right-hand
side summed over every block, bands from a scan of every triangle's dofs),
the separating-piece oracle splits the home closure component at every
vertex of boundary degree four or more, the triangle-healing oracle
tests one member triangle at a time against the whole-mesh strains, the
field-healing oracle extends the field over one closure component after
another, and the candidate oracles test one piece at a time, with holes
from a flood of the piece's box and touch points from its node fans.
"""

import math
from collections import deque

import numpy as np
import scipy.sparse as sp

from quasifrac._kernels import strain_blocks, strains_from_values
from quasifrac.mesh import MeshError
from quasifrac.solver import _gauge_pins, solve_elastic
from quasifrac.trisets import closure_components_minus_vertex


def exhaustive_minimum(mesh, bc, hist_ids, material):
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
        crack = material.kappa * w_prime / mesh.params.eps
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


class ComplementFlood:
    """Breadth-first flood of the non-member triangles of one mesh, with
    the per-mesh tables built once: each triangle's vertex triple, the
    owners of each of its edges, and its node bounding box.

    Non-members sharing an edge are adjacent, and a non-member with an
    edge that no other mesh triangle has touches the outside, one extra
    node.  A flood limited to a box takes only the non-members whose nodes
    all lie in it, and an edge to a non-member outside them leads to the
    outside too (the box's frame counts as outside).
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.tris = [tuple(int(x) for x in row) for row in mesh.triangles]
        owners = {}
        for t, (a, b, c) in enumerate(self.tris):
            for e in ((a, b), (b, c), (c, a)):
                owners.setdefault(frozenset(e), []).append(t)
        self.sides = [[owners[frozenset(e)] for e in ((a, b), (b, c), (c, a))]
                      for a, b, c in self.tris]
        self.rim = np.array([any(len(o) == 1 for o in sides)
                             for sides in self.sides], dtype=bool)
        pts = mesh.nodes[mesh.triangles]
        self.lo, self.hi = pts.min(axis=1), pts.max(axis=1)

    def components(self, mask, box=None):
        """(components, bounded flags) of the non-member triangles in the
        plane, or in the closed box (x0, y0, x1, y1).  The component holding
        the outside is the unbounded one; it is an empty trailing entry when
        no flooded non-member touches the outside."""
        out = -1
        free = ~mask
        if box is not None:
            x0, y0, x1, y1 = box
            free &= ((self.lo[:, 0] >= x0) & (self.lo[:, 1] >= y0)
                     & (self.hi[:, 0] <= x1) & (self.hi[:, 1] <= y1))
        free = np.flatnonzero(free).tolist()
        flooded = set(free)

        def exits(t):
            return any(len(o) == 1 or any(s != t and s not in flooded
                                          and not mask[s] for s in o)
                       for o in self.sides[t])

        rim = [t for t in free if exits(t)]
        on_rim = set(rim)

        def adjacent(t):
            if t == out:
                return rim
            nbrs = [s for o in self.sides[t] for s in o
                    if s != t and s in flooded]
            return nbrs + [out] if t in on_rim else nbrs

        comps, bounded = [], []
        for c in _flood(free + [out], adjacent):
            bounded.append(c[0] != out)
            comps.append(c[c != out])
        return comps, bounded

    def holes(self, ids):
        """Bounded complement components of the triangles `ids` as a set of
        their own, flooded inside the node bounding box of `ids` grown by
        one grid cell."""
        ids = np.asarray(ids, dtype=np.int64)
        if not len(ids):
            return []
        mask = np.zeros(self.mesh.n_triangles, dtype=bool)
        mask[ids] = True
        h = self.mesh.params.grid_spacing
        box = (*(self.lo[ids].min(axis=0) - h),
               *(self.hi[ids].max(axis=0) + h))
        comps, bounded = self.components(mask, box)
        return [c for c, b in zip(comps, bounded) if b]

    def saturation(self, ids):
        """Sorted ids of the set plus its holes."""
        return np.unique(np.concatenate(
            [np.asarray(ids, dtype=np.int64), *self.holes(ids)]))


def bfs_complement(mesh, mask):
    """(components, bounded flags) of the non-member triangles in the plane,
    flooded over the whole mesh (see ComplementFlood)."""
    return ComplementFlood(mesh).components(mask)


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


def point_seg_dist(px, py, ax, ay, bx, by):
    """Distance from point p to segment ab, one point at a time."""
    ux, uy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    dot = ux * wx + uy * wy
    len2 = ux * ux + uy * uy
    if len2 <= 0.0:
        return np.sqrt(wx * wx + wy * wy)
    t = dot / len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    dx = px - (ax + t * ux)
    dy = py - (ay + t * uy)
    return np.sqrt(dx * dx + dy * dy)


def poly_area(pts) -> float:
    """Shoelace area (absolute) of a polygon given as an (n,2) sequence."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))) / 2.0


def clip_poly_convex(subject, clip):
    """Sutherland-Hodgman clip of `subject` against convex CCW `clip`,
    one vertex at a time."""
    out = [tuple(p) for p in subject]
    clip = [tuple(p) for p in clip]
    n = len(clip)
    for i in range(n):
        if not out:
            return []
        a = clip[i]
        b = clip[(i + 1) % n]
        inp = out
        out = []
        for j, cur in enumerate(inp):
            nxt = inp[(j + 1) % len(inp)]
            side_c = (b[0] - a[0]) * (cur[1] - a[1]) - (b[1] - a[1]) * (cur[0] - a[0])
            side_n = (b[0] - a[0]) * (nxt[1] - a[1]) - (b[1] - a[1]) * (nxt[0] - a[0])
            if side_c >= 0.0:
                out.append(cur)
            if (side_c >= 0.0) != (side_n >= 0.0):
                denom = side_c - side_n
                if denom != 0.0:
                    t = side_c / denom
                    out.append((cur[0] + t * (nxt[0] - cur[0]),
                                cur[1] + t * (nxt[1] - cur[1])))
    return out


def tjunction(pa, pb, tol) -> bool:
    """True if a vertex of pa lies strictly inside an edge of pb."""
    for p in pa:
        for k in range(3):
            a = pb[k]
            b = pb[(k + 1) % 3]
            if point_seg_dist(p[0], p[1], a[0], a[1], b[0], b[1]) < tol:
                da = math.hypot(p[0] - a[0], p[1] - a[1])
                db = math.hypot(p[0] - b[0], p[1] - b[1])
                if da > tol and db > tol:
                    return True
    return False


def overlaps_by_pair_loop(mesh, rep):
    """Add to rep the triangle pairs that meet improperly, one pair at a
    time: each triangle goes into every cell of a dict-keyed hash grid
    (cell size grid_spacing) that its bounding box meets, and each pair in
    a cell is clipped, then tested for partial edge contact."""
    nodes = mesh.nodes
    tris = mesh.triangles
    tol = mesh.params.point_tol
    h = mesh.params.grid_spacing
    x0 = nodes[:, 0].min()
    y0 = nodes[:, 1].min()
    cells = {}
    for t in range(len(tris)):
        pts = nodes[tris[t]]
        ci0 = int((pts[:, 0].min() - x0) // h)
        ci1 = int((pts[:, 0].max() - x0) // h)
        cj0 = int((pts[:, 1].min() - y0) // h)
        cj1 = int((pts[:, 1].max() - y0) // h)
        for ci in range(ci0, ci1 + 1):
            for cj in range(cj0, cj1 + 1):
                cells.setdefault((ci, cj), []).append(t)
    seen = set()
    area_tol = tol * mesh.params.eps  # tolerance on intersection area
    for lst in cells.values():
        for ii in range(len(lst)):
            for jj in range(ii + 1, len(lst)):
                a, b = lst[ii], lst[jj]
                if (a, b) in seen:
                    continue
                seen.add((a, b))
                pa = nodes[tris[a]]
                pb = nodes[tris[b]]
                inter = clip_poly_convex(pa, pb)
                if poly_area(inter) > area_tol:
                    rep.add("overlap", (a, b), "positive intersection area")
                    continue
                if tjunction(pa, pb, tol) or tjunction(pb, pa, tol):
                    rep.add("overlap", (a, b), "partial edge contact")


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


def rim_triangles_by_loop(mesh):
    """Triangles with an edge that no other triangle has."""
    owners = {}
    for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for e in ((a, b), (b, c), (c, a)):
            owners.setdefault(frozenset(e), []).append(t)
    rim = np.zeros(mesh.n_triangles, dtype=bool)
    rim[[ts[0] for ts in owners.values() if len(ts) == 1]] = True
    return rim


def collar_mask_by_distance(mesh):
    """Triangles at positive distance from the closed body rectangle."""
    rect = mesh.domain.omega
    return np.array([tri_rect_distance(mesh.nodes[t], rect) > 0.0
                     for t in mesh.triangles], dtype=bool)


def clip_area_by_loop(pts, x0, y0, x1, y1):
    """Sutherland-Hodgman clip of one triangle (3x2 vertex array) against
    the rectangle, one vertex at a time."""
    poly = [(pts[k, 0], pts[k, 1]) for k in range(3)]
    for side in range(4):
        if not poly:
            break
        res = []
        for j, cur in enumerate(poly):
            nxt = poly[(j + 1) % len(poly)]
            if side == 0:
                ins_c, ins_n = cur[0] >= x0, nxt[0] >= x0
            elif side == 1:
                ins_c, ins_n = cur[0] <= x1, nxt[0] <= x1
            elif side == 2:
                ins_c, ins_n = cur[1] >= y0, nxt[1] >= y0
            else:
                ins_c, ins_n = cur[1] <= y1, nxt[1] <= y1
            if ins_c:
                res.append(cur)
            if ins_c != ins_n:
                if side == 0:
                    t = (x0 - cur[0]) / (nxt[0] - cur[0])
                elif side == 1:
                    t = (x1 - cur[0]) / (nxt[0] - cur[0])
                elif side == 2:
                    t = (y0 - cur[1]) / (nxt[1] - cur[1])
                else:
                    t = (y1 - cur[1]) / (nxt[1] - cur[1])
                res.append((cur[0] + t * (nxt[0] - cur[0]),
                            cur[1] + t * (nxt[1] - cur[1])))
        poly = res
    area = 0.0
    for j in range(len(poly)):
        a = poly[j]
        b = poly[(j + 1) % len(poly)]
        area += a[0] * b[1] - b[0] * a[1]
    return abs(area) * 0.5


def clip_areas_by_loop(mesh, rect):
    """Area of each triangle inside the rectangle, every triangle clipped."""
    x0, y0, x1, y1 = rect
    return np.array([clip_area_by_loop(mesh.nodes[t], x0, y0, x1, y1)
                     for t in mesh.triangles])


def segment_clip_rect_length(a, b, rect) -> float:
    """Length of segment ab inside [x0,x1]x[y0,y1] (Liang-Barsky), one
    segment at a time."""
    x0, y0, x1, y1 = rect
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, a[0] - x0), (dx, x1 - a[0]), (-dy, a[1] - y0), (dy, y1 - a[1])):
        if p == 0.0:
            if q < 0.0:
                return 0.0
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return 0.0
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return 0.0
            if r < t1:
                t1 = r
    return float(np.hypot(dx, dy) * max(0.0, t1 - t0))


def boundary_length_in_rect_by_loop(tset, rect) -> float:
    """Clipped boundary length of a triangle set, one edge after another."""
    total = 0.0
    for e in tset.boundary_edges:
        a, b = tset.mesh.edges[e]
        total += segment_clip_rect_length(tset.mesh.nodes[a],
                                          tset.mesh.nodes[b], rect)
    return total


def boundary_polyline_by_dict(tset):
    """(points, segments) of a set's boundary edges, its nodes numbered
    through a dict in sorted order."""
    mesh = tset.mesh
    used = sorted({int(v) for e in tset.boundary_edges for v in mesh.edges[e]})
    remap = {v: i for i, v in enumerate(used)}
    pts = mesh.nodes[np.array(used, dtype=np.int64)].reshape(-1, 2)
    segs = [(remap[int(mesh.edges[e, 0])], remap[int(mesh.edges[e, 1])])
            for e in tset.boundary_edges]
    return pts, segs


def strains_by_loop(mesh, values):
    """Mandel strain rows of a nodal field, one triangle at a time in
    Python floats: hat-function gradients from the vertex coordinates
    (zero on a degenerate triangle), then each component as its x-dof sum
    plus its y-dof sum, each in vertex order, plus 0.0."""
    s = math.sqrt(2.0) / 2.0
    out = np.empty((mesh.n_triangles, 3))
    for t, tri in enumerate(mesh.triangles.tolist()):
        (ax, ay), (bx, by), (cx, cy) = mesh.nodes[tri].tolist()
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if det == 0.0:
            gx = gy = (0.0, 0.0, 0.0)
        else:
            gx = ((by - cy) / det, (cy - ay) / det, (ay - by) / det)
            gy = ((cx - bx) / det, (ax - cx) / det, (bx - ax) / det)
        ux, uy = values[tri, 0].tolist(), values[tri, 1].tolist()
        out[t, 0] = (gx[0] * ux[0] + gx[1] * ux[1] + gx[2] * ux[2]) + 0.0
        out[t, 1] = (gy[0] * uy[0] + gy[1] * uy[1] + gy[2] * uy[2]) + 0.0
        shear_x = s * gy[0] * ux[0] + s * gy[1] * ux[1] + s * gy[2] * ux[2]
        shear_y = s * gx[0] * uy[0] + s * gx[1] * uy[1] + s * gx[2] * uy[2]
        out[t, 2] = (shear_x + shear_y) + 0.0
    return out


def density_by_loop(strains, elasticity):
    """C e : e of each strain row, its nine terms (e_i C_ij) e_j summed in
    row-major order in Python floats."""
    c = elasticity.tolist()
    out = np.empty(len(strains))
    for t, e in enumerate(strains.tolist()):
        acc = (e[0] * c[0][0]) * e[0]
        for i in range(3):
            for j in range(3):
                if i or j:
                    acc += (e[i] * c[i][j]) * e[j]
        out[t] = acc
    return out


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


def edge_table_by_unique(mesh):
    """(edges, tri_edges): the sorted node pairs of the mesh edges, found
    by a row-wise np.unique of each triangle's sorted vertex pairs, and
    the edge of each (triangle, slot)."""
    t = mesh.triangles
    raw = np.sort(np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]],
                           axis=1).reshape(-1, 2), axis=1)
    edges, inv = np.unique(raw, axis=0, return_inverse=True)
    return edges, inv.reshape(-1, 3)


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
    bmats = strain_blocks(mesh.strain_gradients, ids)
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


def whole_set_setup(mesh, elements, active, pinned, bc_values):
    """(gauge dofs, free-dof mask, right-hand side on the free dofs) of the
    system with active weighted triangles `active` (a mask over the
    elements' weighted triangles) and pinned nodes `pinned`, each from
    every weighted triangle: _gauge_pins on every active triangle, the
    block diagonal summed over every triangle, and the product of every
    block with the held values of `bc_values`."""
    gauge = _gauge_pins(mesh, elements.ids[active], pinned)
    free = np.repeat(~pinned, 2) & (elements.diagonal(active) > 0.0)
    free[gauge] = False
    order = mesh.band_order
    free_idx = order[free[order]]
    x = bc_values.ravel().copy()
    x[free_idx] = 0.0
    return gauge, free, -elements.product(active, x)[free_idx]


def band_by_scan(elements, active, order, kd):
    """solver.assemble_stiffness's band with the triangles that touch the
    dofs `order` found by testing the six dofs of every weighted
    triangle."""
    pos = np.full(elements.n_dofs, -1, dtype=np.intp)
    pos[order] = np.arange(len(order))
    p = np.take(pos, elements.dofs)
    touched = np.flatnonzero(active & (p >= 0).any(axis=1))
    p = p[touched]
    i = np.broadcast_to(p[:, :, None], (len(p), 6, 6))
    j = np.broadcast_to(p[:, None, :], (len(p), 6, 6))
    upper = (i >= 0) & (i <= j)
    i, j = i[upper], j[upper]
    kd = max(int((j - i).max(initial=0)), kd)
    band = np.bincount((j + 1) * kd + i,
                       np.take(elements.blocks, touched, axis=0)[upper],
                       minlength=len(order) * (kd + 1))
    return band.astype(float, copy=False).reshape(len(order), kd + 1).T


def band_by_loop(elements, active, order, kd=0):
    """Upper band storage of the stiffness matrix of the `active` weighted
    triangles on the dofs `order`, renumbered in that order, from the
    reference's element blocks: the entries (a, b) of one triangle's block
    with a at or before b in `order` are added at a time, in id order; kd
    is the larger of the widest such pair and `kd`."""
    row = {int(d): i for i, d in enumerate(order)}
    entries = []
    for t in np.flatnonzero(active):
        for a, da in enumerate(elements.dofs[t]):
            for b, db in enumerate(elements.dofs[t]):
                i, j = row.get(int(da)), row.get(int(db))
                if i is not None and j is not None and i <= j:
                    entries.append((i, j, elements.blocks[t, a, b]))
    kd = max([kd] + [j - i for i, j, _ in entries])
    band = np.zeros((kd + 1, len(order)), order="F")
    for i, j, value in entries:
        band[kd + i - j, j] += value
    return band


def band_of_dense(a):
    """LAPACK upper band storage of the symmetric matrix `a`, entry (i, j),
    i <= j, at [kd + i - j, j], kd its half-bandwidth."""
    n = len(a)
    kd = max([j - i for i in range(n) for j in range(i, n) if a[i][j]] + [0])
    band = np.zeros((kd + 1, n))
    for i in range(n):
        for j in range(i, min(i + kd + 1, n)):
            band[kd + i - j, j] = a[i][j]
    return band


def dense_of_band(band):
    """Dense symmetric matrix of LAPACK upper band storage `band`, entry
    (i, j), i <= j, at [kd + i - j, j]."""
    kd, n = band.shape[0] - 1, band.shape[1]
    a = np.zeros((n, n))
    for d in range(min(kd + 1, n)):
        i = np.arange(n - d)
        a[i, i + d] = a[i + d, i] = band[kd - d, i + d]
    return a


def kkt_residual(mesh, active, u, material, extra_pinned_nodes=None) -> float:
    """Norm of the reduced gradient at u relative to the load norm."""
    active_ids = np.unique(np.asarray(active, dtype=np.int64))
    k = coo_stiffness(mesh, active_ids, material)[0]
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
    indptr, tri_ids = mesh.node_tris
    for v in np.where(deg >= 4)[0]:
        incident = [int(t) for t in tri_ids[indptr[v]:indptr[v + 1]]
                    if B.mask[t]]
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
        if not exclusive:
            continue
        removal.append(t)
        num = float(mesh.areas[t] * (strains[t] ** 2).sum())
        den = sum(float(mesh.areas[s] * (strains[s] ** 2).sum())
                  for s in exposed)
        ratios.append(0.0 if den == 0.0 else num / den)
    return np.setdiff1d(H.ids, removal), ratios


def neighborhood(mesh, z_ids):
    """Triangles outside Z whose closure meets the closure of Z."""
    indptr, tri_ids = mesh.node_tris
    fan = np.unique(np.concatenate(
        [tri_ids[indptr[v]:indptr[v + 1]]
         for v in np.unique(mesh.triangles[z_ids])]))
    return fan[~np.isin(fan, z_ids)]


def extend_field(mesh, u, z_ids, data_ids):
    """Extend u elastically over the piece Z from the data triangles, one
    piece at a time.

    The symmetric-gradient energy over Z is minimized with the nodes shared
    with the data pinned (a minimum-norm solve fixes any leftover rigid
    freedom).  The field object itself comes back when no node is free.
    """
    z_ids = np.asarray(z_ids, dtype=np.int64)
    data_ids = np.asarray(data_ids, dtype=np.int64)
    znodes = np.unique(mesh.triangles[z_ids])
    shared = np.isin(znodes, np.unique(mesh.triangles[data_ids]))
    if shared.all():
        return u
    out = u.copy()
    local = np.searchsorted(znodes, mesh.triangles[z_ids])
    dof = (2 * local[:, :, None] + np.arange(2)).reshape(len(z_ids), 6)
    b = strain_blocks(mesh.strain_gradients, z_ids)
    ke = np.swapaxes(b, 1, 2) @ b * mesh.areas[z_ids][:, None, None]
    n = 2 * len(znodes)
    k = np.zeros((n, n))
    np.add.at(k, (dof[:, :, None], dof[:, None, :]), ke)
    x = u.values[znodes].ravel()
    pinned = np.repeat(shared, 2)
    f_idx = np.flatnonzero(~pinned)
    p_idx = np.flatnonzero(pinned)
    kff = k[np.ix_(f_idx, f_idx)]
    rhs = -k[np.ix_(f_idx, p_idx)] @ x[p_idx] if len(p_idx) \
        else np.zeros(len(f_idx))
    x[f_idx] = np.linalg.lstsq(kff, rhs, rcond=None)[0]
    out.values[znodes[~shared]] = x.reshape(-1, 2)[~shared]
    return out


def frob_strain_energy(mesh, u, ids):
    """Area-weighted squared Frobenius strain summed over the ids."""
    ids = np.asarray(ids, dtype=np.int64)
    s = strains_from_values(np.take(mesh.strain_gradients, ids, axis=1),
                            mesh.triangles[ids], u.values)
    return float((mesh.areas[ids] * (s * s).sum(axis=1)).sum())


def healing_ratio(mesh, u_new, u_old, z_ids, data_ids):
    """||e(u_new)||^2 over Z plus data, relative to ||e(u_old)||^2 on data."""
    num = frob_strain_energy(mesh, u_new, np.union1d(z_ids, data_ids))
    den = frob_strain_energy(mesh, u_old, data_ids)
    if den == 0.0:
        return 0.0
    return num / den


def remove_pieces_by_loop(W, u, pieces):
    """(kept ids, field, ratios) of removing the (piece, saturation) pairs
    from W, healing u over one closure component of the removed
    saturations after another, each from its neighborhood minus what W
    keeps; the components come from the breadth-first flood."""
    mesh = W.mesh
    kept = np.setdiff1d(W.ids, np.concatenate([p for p, _ in pieces]))
    in_kept = np.zeros(mesh.n_triangles, dtype=bool)
    in_kept[kept] = True
    region = np.zeros(mesh.n_triangles, dtype=bool)
    region[np.concatenate([sat for _, sat in pieces])] = True
    ratios = []
    for zc in bfs_components(mesh, region, "closure"):
        nz = neighborhood(mesh, zc)
        data = nz[~in_kept[nz]]
        before = u
        u = extend_field(mesh, u, zc, data)
        ratios.append(healing_ratio(mesh, u, before, zc, data))
    return kept, u, ratios


def touch_points(mesh, piece_ids, other_mask):
    """Number of the piece's nodes that a triangle in other_mask shares,
    one node fan at a time."""
    indptr, tri_ids = mesh.node_tris
    return sum(bool(other_mask[tri_ids[indptr[v]:indptr[v + 1]]].any())
               for v in np.unique(mesh.triangles[piece_ids]))


def small_saturation_by_flood(flood, p, budget):
    """Saturation of the piece p when it and its saturation have area <=
    budget and the saturation owns no rim triangle, else None; the holes
    from the box-limited flood."""
    mesh = flood.mesh
    if float(mesh.areas[p].sum()) > budget:
        return None
    sat = flood.saturation(p)
    if float(mesh.areas[sat].sum()) > budget or flood.rim[sat].any():
        return None
    return sat


def maximal_small_pieces_by_piece(B, budget, flood):
    """(piece, saturation) pairs of the single-vertex split pieces of B
    (sep_pieces_by_vertex) that are small and healable and lie in no other
    such piece, tested one piece at a time."""
    small = []
    for p in sep_pieces_by_vertex(B):
        sat = small_saturation_by_flood(flood, p, budget)
        if sat is not None:
            small.append((p, sat))
    return [(p, sat) for p, sat in small
            if not any(set(p.tolist()) < set(q.tolist()) for q, _ in small)]


def peel_round_by_piece(W, budget, flood):
    """(piece, saturation) pairs of one peeling round, one edge-component
    at a time: the small healable ones with at most two nodes shared with
    the rest of W, then the maximal small split pieces that are not among
    them already."""
    removal = []
    for c in bfs_components(W.mesh, W.mask, "edge"):
        sat = small_saturation_by_flood(flood, c, budget)
        if sat is None:
            continue
        rest = W.mask.copy()
        rest[c] = False
        if touch_points(W.mesh, c, rest) <= 2:
            removal.append((c, sat))
    listed = [set(c.tolist()) for c, _ in removal]
    return removal + [(p, sat) for p, sat in maximal_small_pieces_by_piece(
        W, budget, flood) if set(p.tolist()) not in listed]


def euler_characteristic(mesh, ids):
    """V - E + F of the closure of the distinct triangles `ids`, one piece
    at a time."""
    return (len(np.unique(mesh.triangles[ids]))
            - len(np.unique(mesh.tri_edges[ids])) + len(ids))
