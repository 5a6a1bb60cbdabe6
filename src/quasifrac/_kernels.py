"""Hot numeric kernels in numpy.

Array kernels take whole triangle or edge arrays: the hat-function
gradient table of a mesh and the 3x6 strain blocks built from it, strains
of a nodal field, triangle-rectangle clipped areas and segment-rectangle
clipped lengths.  Each fixes its own summation order, so its results are
bitwise the same whatever the numpy build; the strain kernel and the
clipped areas sum in the order of the einsum and of the one-polygon
clipping loop they replaced, and each clipped length is bitwise what a
scalar Liang-Barsky clip gives.  The scalar geometry helpers
(point-segment distance, polygon area and convex polygon clipping) serve
the mesh validator.  `cg_deflated`, a Jacobi-
preconditioned conjugate gradient, has no program caller: the solver
tests use it as an independent minimizer, and the benchmark's span
tracer wraps it by name.
"""

import numpy as np

SHEAR = np.sqrt(2.0) / 2.0  # Mandel factor of each shear gradient


# ---------------------------------------------------------------------------
# triangle geometry


def tri_signed_areas(nodes, tris):
    a = nodes[tris[:, 0]]
    b = nodes[tris[:, 1]]
    c = nodes[tris[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def strain_gradients(nodes, tris):
    """Per-triangle gradients of the three vertex hat functions, as one
    contiguous (6, m) table: rows gx0, gx1, gx2, gy0, gy1, gy2, so the
    strain of a field is e11 = sum_j gx_j u_jx, e22 = sum_j gy_j u_jy and
    sqrt(2) e12 = sum_j (s gy_j) u_jx + (s gx_j) u_jy with s = sqrt(2)/2.
    Degenerate triangles get zero gradients.
    """
    a = nodes[tris[:, 0]]
    b = nodes[tris[:, 1]]
    c = nodes[tris[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    safe = np.where(det == 0.0, 1.0, det)
    grads = np.stack([b[:, 1] - c[:, 1], c[:, 1] - a[:, 1], a[:, 1] - b[:, 1],
                      c[:, 0] - b[:, 0], a[:, 0] - c[:, 0], b[:, 0] - a[:, 0]])
    grads /= safe
    grads[:, det == 0.0] = 0.0
    return grads


def strain_blocks(grads, ids):
    """The 3x6 matrices of triangles `ids` mapping nodal dofs to Mandel
    strain [e11, e22, sqrt(2) e12], whose Euclidean norm is the Frobenius
    norm of the strain tensor.  Dof order per triangle: (u0x, u0y, u1x,
    u1y, u2x, u2y)."""
    g = np.take(grads, ids, axis=1)
    blocks = np.zeros((len(ids), 3, 6))
    for j in range(3):
        blocks[:, 0, 2 * j] = g[j]
        blocks[:, 1, 2 * j + 1] = g[3 + j]
        blocks[:, 2, 2 * j] = SHEAR * g[3 + j]
        blocks[:, 2, 2 * j + 1] = SHEAR * g[j]
    return blocks


def strains_from_values(grads, tris, values):
    """Mandel strain rows [e11, e22, sqrt(2) e12] of a nodal field, one
    per triangle of `tris`, whose gradients are the columns of `grads`.

    Each component is an x-dof sum plus a y-dof sum, each summed in
    vertex order, then 0.0 is added; that is the order of an einsum of
    the 3x6 blocks with the dofs, bit for bit, signed zeros included.
    """
    u = np.take(values, tris.T, axis=0)
    ux, uy = u[:, :, 0], u[:, :, 1]
    gx, gy = grads[:3], grads[3:]
    out = np.empty((len(tris), 3))
    out[:, 0] = _vertex_sum(gx, ux)
    out[:, 1] = _vertex_sum(gy, uy)
    out[:, 2] = _vertex_sum(SHEAR * gy, ux) + _vertex_sum(SHEAR * gx, uy)
    out += 0.0  # a zero sum reads 0.0, never -0.0
    return out


def _vertex_sum(g, u):
    """g0 u0 + g1 u1 + g2 u2 per column, summed in that order."""
    s = g[0] * u[0]
    s += g[1] * u[1]
    s += g[2] * u[2]
    return s


# ---------------------------------------------------------------------------
# clipping triangles and segments to an axis-aligned rectangle


def clip_areas_rect(nodes, tris, x0, y0, x1, y1):
    """Area of each triangle intersected with [x0,x1]x[y0,y1].

    Triangles inside the rectangle take their shoelace area and triangles
    wholly beyond one side take 0.0, exactly what clipping would give them;
    the triangles straddling a side are clipped together (_clip_areas).
    """
    x = np.take(nodes[:, 0], tris.T)
    y = np.take(nodes[:, 1], tris.T)
    lo_x, hi_x = np.minimum.reduce(x), np.maximum.reduce(x)
    lo_y, hi_y = np.minimum.reduce(y), np.maximum.reduce(y)
    inside = (lo_x >= x0) & (hi_x <= x1) & (lo_y >= y0) & (hi_y <= y1)
    beyond = (hi_x < x0) | (lo_x > x1) | (hi_y < y0) | (lo_y > y1)
    cross = [x[j] * y[(j + 1) % 3] - x[(j + 1) % 3] * y[j] for j in range(3)]
    # summed in the clipping's order, so the areas agree bit for bit
    out = np.where(inside, np.abs((cross[0] + cross[1]) + cross[2]) * 0.5, 0.0)
    cut = np.flatnonzero(~inside & ~beyond)
    out[cut] = _clip_areas(x[:, cut].T, y[:, cut].T, x0, y0, x1, y1)
    return out


def _clip_areas(px, py, x0, y0, x1, y1):
    """Sutherland-Hodgman clip of the triangles with vertex coordinates
    px, py (k, 3) against the rectangle, all at once.

    Polygons are padded rows of vertex coordinates with a vertex count
    each.  The sides are clipped in the order x >= x0, x <= x1, y >= y0,
    y <= y1; against each, every vertex in turn is kept if inside, and
    followed by the crossing point when its edge to the next vertex
    crosses the side.  The shoelace terms are summed in vertex order, so
    each area is bitwise what one polygon clipped at a time gives.
    """
    n = np.full(len(px), 3)
    for on_x, bound, lower in ((True, x0, True), (True, x1, False),
                               (False, y0, True), (False, y1, False)):
        live = np.arange(px.shape[1]) < n[:, None]
        nxt = _successor(n, px.shape[1])
        c = px if on_x else py
        ins = live & ((c >= bound) if lower else (c <= bound))
        crossing = live & (ins != np.take_along_axis(ins, nxt, axis=1))
        emit = ins.astype(np.int64) + crossing
        at = np.cumsum(emit, axis=1) - emit  # output slot of each vertex
        n = emit.sum(axis=1)
        qx = np.zeros((len(px), max(int(n.max(initial=0)), 1)))
        qy = np.zeros_like(qx)
        r, k = np.nonzero(ins)
        qx[r, at[r, k]] = px[r, k]
        qy[r, at[r, k]] = py[r, k]
        r, k = np.nonzero(crossing)
        ax, ay = px[r, k], py[r, k]
        bx, by = px[r, nxt[r, k]], py[r, nxt[r, k]]
        t = (bound - ax) / (bx - ax) if on_x else (bound - ay) / (by - ay)
        qx[r, at[r, k] + ins[r, k]] = ax + t * (bx - ax)
        qy[r, at[r, k] + ins[r, k]] = ay + t * (by - ay)
        px, py = qx, qy
    nxt = _successor(n, px.shape[1])
    bx = np.take_along_axis(px, nxt, axis=1)
    by = np.take_along_axis(py, nxt, axis=1)
    area = np.zeros(len(px))
    for k in range(px.shape[1]):
        term = px[:, k] * by[:, k] - bx[:, k] * py[:, k]
        area += np.where(k < n, term, 0.0)
    return np.abs(area) * 0.5


def _successor(n, width):
    """Column of the next vertex around each of `width` padded columns of
    polygons with n vertices (0 past the last)."""
    j = np.arange(width)
    return np.where(j + 1 < n[:, None], j + 1, 0)


def clip_lengths_rect(nodes, edges, x0, y0, x1, y1):
    """Length of each segment (a, b) of `edges`, a (k, 2) array of node
    indices, inside [x0,x1]x[y0,y1].

    Liang-Barsky on all segments at once: the sides x >= x0, x <= x1,
    y >= y0, y <= y1, in that order, narrow the parameter range [t0, t1]
    of the segments that enter or leave through them, with the divisions
    and comparisons of the one-segment clip.  That clip stops at a side
    that leaves the range empty; here the range stays empty, since t0 only
    grows and t1 only shrinks, and the length comes out 0.0 as well.  So
    every length is bitwise the one-segment clip's.  A segment parallel to
    a side is cut off only when it lies beyond it.
    """
    ax, ay = nodes[edges[:, 0], 0], nodes[edges[:, 0], 1]
    dx, dy = nodes[edges[:, 1], 0] - ax, nodes[edges[:, 1], 1] - ay
    t0, t1 = np.zeros(len(edges)), np.ones(len(edges))
    beyond = np.zeros(len(edges), dtype=bool)
    for p, q in ((-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0), (dy, y1 - ay)):
        beyond |= (p == 0.0) & (q < 0.0)
        r = q / np.where(p == 0.0, 1.0, p)
        t0 = np.where((p < 0.0) & (r > t0), r, t0)
        t1 = np.where((p > 0.0) & (r < t1), r, t1)
    span = t1 - t0
    return np.where(beyond | ~(span > 0.0), 0.0, np.hypot(dx, dy) * span)


# ---------------------------------------------------------------------------
# scalar geometry helpers


def point_seg_dist(px, py, ax, ay, bx, by):
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
    """Sutherland-Hodgman clip of `subject` against convex CCW `clip`."""
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


# ---------------------------------------------------------------------------
# Jacobi-preconditioned conjugate gradients on CSR


def cg_deflated(indptr, indices, data, x, free, inv_diag, rel_tol, max_iter):
    """Minimize v^T K v over free dofs with pinned dofs held at x's values.

    K is given in CSR form and `free` is a 0/1 float mask; the iteration is
    Jacobi-preconditioned CG.  Returns (x, iterations, relative_residual).
    Strictly serial so results do not depend on thread count.  No program
    path calls it: tests use it as an oracle for the unconstrained
    minimum, and qfbench's tracer wraps it by this name, which outlived
    its deflation space.
    """
    nrow = len(indptr) - 1
    rows = np.repeat(np.arange(nrow), np.diff(indptr))

    def matvec(v):
        if not len(data):
            return np.zeros(nrow)
        out = np.bincount(rows, weights=data * v[indices], minlength=nrow)
        return out * free

    x = x.copy()
    r = -matvec(x)
    norm0 = float(np.linalg.norm(r))
    if norm0 == 0.0:
        return x, 0, 0.0
    tol = rel_tol * norm0
    z = r * inv_diag * free
    p = z.copy()
    rz = float(r @ z)
    it = 0
    res = norm0
    while it < max_iter:
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        it += 1
        res = float(np.linalg.norm(r))
        if res <= tol:
            break
        z = r * inv_diag * free
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, it, res / norm0
