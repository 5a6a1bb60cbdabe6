"""Hot numeric kernels in numpy.

Array kernels (strain matrices, triangle-rectangle clipped areas and the
Jacobi-preconditioned conjugate gradient) take whole triangle or dof
arrays; the scalar geometry helpers work on single points, segments and
triangles.
"""

import numpy as np


# ---------------------------------------------------------------------------
# triangle geometry


def tri_signed_areas(nodes, tris):
    a = nodes[tris[:, 0]]
    b = nodes[tris[:, 1]]
    c = nodes[tris[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def strain_b_matrices(nodes, tris):
    """Per-triangle 3x6 matrices mapping nodal dofs to Mandel strain.

    Strain vector convention (Mandel): [e11, e22, sqrt(2)*e12], so the
    Euclidean norm of the vector equals the Frobenius norm of the tensor.
    Dof order per triangle: (u0x, u0y, u1x, u1y, u2x, u2y).  Returns
    (bmats, signed areas); degenerate triangles get zero matrices.
    """
    a = nodes[tris[:, 0]]
    b = nodes[tris[:, 1]]
    c = nodes[tris[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    areas = 0.5 * det
    safe = np.where(det == 0.0, 1.0, det)
    gx = np.stack([(b[:, 1] - c[:, 1]) / safe,
                   (c[:, 1] - a[:, 1]) / safe,
                   (a[:, 1] - b[:, 1]) / safe], axis=1)
    gy = np.stack([(c[:, 0] - b[:, 0]) / safe,
                   (a[:, 0] - c[:, 0]) / safe,
                   (b[:, 0] - a[:, 0]) / safe], axis=1)
    gx[det == 0.0] = 0.0
    gy[det == 0.0] = 0.0
    m = tris.shape[0]
    s2 = np.sqrt(2.0) / 2.0
    bmats = np.zeros((m, 3, 6))
    for j in range(3):
        bmats[:, 0, 2 * j] = gx[:, j]
        bmats[:, 1, 2 * j + 1] = gy[:, j]
        bmats[:, 2, 2 * j] = s2 * gy[:, j]
        bmats[:, 2, 2 * j + 1] = s2 * gx[:, j]
    return bmats, areas


def strains_from_values(bmats, tris, values):
    """Mandel strain vectors of a nodal field, one row per triangle."""
    dofs = values[tris].reshape(tris.shape[0], 6)
    return np.einsum("mij,mj->mi", bmats, dofs)


# ---------------------------------------------------------------------------
# polygon clipping (triangle vs axis-aligned rectangle)


def clip_areas_rect(nodes, tris, x0, y0, x1, y1):
    """Area of each triangle intersected with [x0,x1]x[y0,y1].

    Triangles inside the rectangle take their shoelace area and triangles
    wholly beyond one side take 0.0, exactly what clipping would give them;
    only the triangles straddling a side are clipped.
    """
    p = nodes[tris]
    xs, ys = p[:, :, 0], p[:, :, 1]
    lo_x, hi_x = xs.min(axis=1), xs.max(axis=1)
    lo_y, hi_y = ys.min(axis=1), ys.max(axis=1)
    inside = (lo_x >= x0) & (hi_x <= x1) & (lo_y >= y0) & (hi_y <= y1)
    beyond = (hi_x < x0) | (lo_x > x1) | (hi_y < y0) | (lo_y > y1)
    cross = [xs[:, j] * ys[:, (j + 1) % 3] - xs[:, (j + 1) % 3] * ys[:, j]
             for j in range(3)]
    # summed in the clipping loop's order, so the areas agree bit for bit
    out = np.where(inside, np.abs((cross[0] + cross[1]) + cross[2]) * 0.5, 0.0)
    for i in np.where(~inside & ~beyond)[0]:
        out[i] = _clip_area_rect(p[i], x0, y0, x1, y1)
    return out


def _clip_area_rect(pts, x0, y0, x1, y1):
    """Sutherland-Hodgman clip of one triangle against the rectangle."""
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


def tri_tri_dist(p, q):
    """Distance between triangles given as (3,2) vertex arrays."""
    for k in range(3):
        if point_in_tri(q[k, 0], q[k, 1], p) or point_in_tri(p[k, 0], p[k, 1], q):
            return 0.0
    best = 1e300
    for i in range(3):
        i2 = (i + 1) % 3
        for j in range(3):
            j2 = (j + 1) % 3
            d = seg_seg_dist(p[i, 0], p[i, 1], p[i2, 0], p[i2, 1],
                             q[j, 0], q[j, 1], q[j2, 0], q[j2, 1])
            if d < best:
                best = d
    return best


# ---------------------------------------------------------------------------
# Jacobi-preconditioned conjugate gradients on CSR


def cg_deflated(indptr, indices, data, x, free, inv_diag, rel_tol, max_iter):
    """Minimize v^T K v over free dofs with pinned dofs held at x's values.

    K is given in CSR form and `free` is a 0/1 float mask; the iteration is
    Jacobi-preconditioned CG.  Returns (x, iterations, relative_residual).
    Strictly serial so results do not depend on thread count.  The name
    outlived its deflation space; qfbench's tracer wraps it by this name.
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
