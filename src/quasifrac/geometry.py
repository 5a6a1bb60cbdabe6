"""Shared planar geometry helpers built on the kernels."""

import numpy as np

from ._kernels import (
    clip_areas_rect,
    point_in_tri,
    point_seg_dist,
    tri_signed_areas,
    tri_tri_dist,
)

__all__ = [
    "poly_area",
    "clip_poly_convex",
    "point_in_tri",
    "point_seg_dist",
    "tri_tri_dist",
    "tri_signed_areas",
    "clip_areas_rect",
    "segment_clip_rect_length",
]


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
