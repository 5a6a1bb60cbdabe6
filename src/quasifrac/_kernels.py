"""Hot numeric kernels in numpy.

Array kernels (strain matrices, triangle-rectangle clipped areas and a
Jacobi-preconditioned conjugate gradient) take whole triangle or dof
arrays.  The scalar geometry helpers (point-segment distance, polygon
area, convex polygon clipping and segment length inside a rectangle)
serve the mesh validator and the clipped crack-curve length.  The solver
factors every elastic system directly, so the conjugate gradient serves
only as an independent minimizer in tests and as a target of the
benchmark's span tracer.
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


def segment_clip_rect_length(a, b, rect) -> float:
    """Length of segment ab inside [x0,x1]x[y0,y1] (Liang-Barsky)."""
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
