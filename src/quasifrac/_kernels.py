"""Hot numeric kernels in numpy.

Array kernels take whole triangle or edge arrays: the hat-function
gradient table of a mesh and the 3x6 strain blocks built from it, strains
of a nodal field, clipped areas of triangles, segment-rectangle clipped
lengths and point-segment distances.  One polygon clipper, `clip_areas`,
clips triangles against the sides of a rectangle (`clip_areas_rect`) or
of other triangles (`triangle_sides`, for the mesh validator).  Each
kernel fixes its own summation order, so its results are bitwise the same
whatever the numpy build; the strain kernel and the clipped areas sum in
the order of the einsum and of the one-polygon clipping loop they
replaced, and each clipped length and distance is bitwise what the
scalar Liang-Barsky clip or projection gives.  `cg_deflated`, a Jacobi-
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
# clipping triangles to convex regions and segments to a rectangle


def clip_areas_rect(nodes, tris, x0, y0, x1, y1):
    """Area of each triangle intersected with [x0,x1]x[y0,y1].

    Triangles inside the rectangle take their shoelace area and triangles
    wholly beyond one side take 0.0, exactly what clipping would give them;
    the triangles straddling a side are clipped together (clip_areas)
    against the sides x >= x0, x <= x1, y >= y0, y <= y1, in that order,
    each crossed where t = (bound - a) / (b - a) along its coordinate.
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
    sides = ((lambda qx, qy: (qx >= x0, qx), lambda a, b: (x0 - a) / (b - a)),
             (lambda qx, qy: (qx <= x1, qx), lambda a, b: (x1 - a) / (b - a)),
             (lambda qx, qy: (qy >= y0, qy), lambda a, b: (y0 - a) / (b - a)),
             (lambda qx, qy: (qy <= y1, qy), lambda a, b: (y1 - a) / (b - a)))
    out[cut] = clip_areas(x[:, cut].T, y[:, cut].T, sides)
    return out


def triangle_sides(qx, qy):
    """The three edges of the counterclockwise triangles with vertex
    coordinates qx, qy (k, 3), one clip region per polygon, as the sides
    of `clip_areas`: for the edge from a to b, a vertex p has the value
    s = (b - a) x (p - a), lies inside when s >= 0.0, and the edge from
    p to q crosses where t = s_p / (s_p - s_q), whose divisor is never 0
    since one of s_p, s_q is negative and the other not."""
    def side(k):
        ax, ay = qx[:, k, None], qy[:, k, None]
        ex = qx[:, (k + 1) % 3, None] - ax
        ey = qy[:, (k + 1) % 3, None] - ay

        def test(px, py):
            s = ex * (py - ay) - ey * (px - ax)
            return s >= 0.0, s
        return test, lambda sp, sq: sp / (sp - sq)
    return [side(k) for k in range(3)]


def clip_areas(px, py, sides):
    """Sutherland-Hodgman clip of the triangles with vertex coordinates
    px, py (k, 3), each against its own convex region, all at once; the
    package's one polygon clipper.

    `sides` lists the region's sides in clipping order, each a pair
    (test, crossing): test(qx, qy) takes the (k, w) vertex coordinates and
    gives which vertices lie inside and a value per vertex, and
    crossing(va, vb) gives, from the values at the ends, the parameter t
    where the edge from vertex a to vertex b crosses the side.  Polygons
    are padded rows of vertex coordinates with a vertex count each.
    Against each side, every vertex in turn is kept if inside, and
    followed by the crossing point a + t (b - a) when its edge to the next
    vertex crosses the side.  The shoelace terms are summed in vertex
    order, so each area is bitwise what one polygon clipped at a time
    gives.
    """
    n = np.full(len(px), 3)
    for test, crossing in sides:
        live = np.arange(px.shape[1]) < n[:, None]
        nxt = _successor(n, px.shape[1])
        inside, value = test(px, py)
        ins = live & inside
        cut = live & (ins != np.take_along_axis(ins, nxt, axis=1))
        emit = ins.astype(np.int64) + cut
        at = np.cumsum(emit, axis=1) - emit  # output slot of each vertex
        n = emit.sum(axis=1)
        qx = np.zeros((len(px), max(int(n.max(initial=0)), 1)))
        qy = np.zeros_like(qx)
        r, k = np.nonzero(ins)
        qx[r, at[r, k]] = px[r, k]
        qy[r, at[r, k]] = py[r, k]
        r, k = np.nonzero(cut)
        ax, ay = px[r, k], py[r, k]
        bx, by = px[r, nxt[r, k]], py[r, nxt[r, k]]
        t = crossing(value[r, k], value[r, nxt[r, k]])
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
# point-segment distance


def point_seg_dist(px, py, ax, ay, bx, by):
    """Distance from each point p to the segment from a to b, all
    broadcast together: p's projection onto the segment's line, clipped to
    its ends; a segment of length zero gives the distance to a."""
    ux, uy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    len2 = ux * ux + uy * uy
    # where len2 is 0, u is too small for t u to move a off its place
    t = np.clip((ux * wx + uy * wy) / np.where(len2 > 0.0, len2, 1.0),
                0.0, 1.0)
    dx = px - (ax + t * ux)
    dy = py - (ay + t * uy)
    return np.sqrt(dx * dx + dy * dy)


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
