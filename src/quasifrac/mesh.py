"""Admissible triangulations: background grid, validation and
interpolation.

A triangulation is admissible when triangles meet only along full shared
edges or vertices, every interior angle is at least theta0, every edge
length lies in [eps, omega_factor*eps], and the union covers the body
rectangle.  A run uses one mesh, the regular half-square background grid,
so a triangle id names one triangle for the whole run and crack history is
kept by id.  Meshes built by hand or loaded from files need not be
background grids; the crack classification treats every triangle alike.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import (clip_areas, clip_areas_rect, point_seg_dist,
                       strain_gradients, strains_from_values, triangle_sides,
                       tri_signed_areas)


class MeshError(Exception):
    pass


class InadmissibleParams(MeshError):
    pass


@dataclass(frozen=True)
class MeshParams:
    """Mesh-family parameters: minimal angle, minimal edge length eps and
    maximal edge length omega_factor*eps."""

    theta0: float
    eps: float
    omega_factor: float = 1.0e6

    def __post_init__(self):
        if not (0.0 < self.theta0 <= math.pi / 3.0):
            raise InadmissibleParams(f"theta0 must be in (0, pi/3], got {self.theta0}")
        if self.eps <= 0.0:
            raise InadmissibleParams(f"eps must be positive, got {self.eps}")
        if self.omega_factor < 6.0:
            raise InadmissibleParams(
                f"omega_factor must be >= 6, got {self.omega_factor}")

    @property
    def omega(self) -> float:
        return self.omega_factor * self.eps

    @property
    def grid_spacing(self) -> float:
        """Background cell size: 2 * eps * cos(theta0)."""
        return 2.0 * self.eps * math.cos(self.theta0)

    @property
    def point_tol(self) -> float:
        return 1.0e-9 * self.eps


@dataclass(frozen=True)
class Domain:
    """Body rectangle omega inside the enclosing rectangle omega_prime.

    The Dirichlet collar is omega_prime minus the closure of omega.
    """

    omega: tuple
    omega_prime: tuple

    def __post_init__(self):
        ox0, oy0, ox1, oy1 = self.omega
        px0, py0, px1, py1 = self.omega_prime
        if not (ox0 < ox1 and oy0 < oy1):
            raise ValueError(f"degenerate omega {self.omega}")
        if not (px0 <= ox0 and py0 <= oy0 and px1 >= ox1 and py1 >= oy1):
            raise ValueError("omega must be contained in omega_prime")
        if self.collar_area <= 0.0:
            raise ValueError("omega_prime \\ omega must have positive area")

    @property
    def omega_area(self) -> float:
        x0, y0, x1, y1 = self.omega
        return (x1 - x0) * (y1 - y0)

    @property
    def collar_area(self) -> float:
        px0, py0, px1, py1 = self.omega_prime
        x0, y0, x1, y1 = self.omega
        return (px1 - px0) * (py1 - py0) - (x1 - x0) * (y1 - y0)

    def to_dict(self):
        return {"omega": list(self.omega), "omega_prime": list(self.omega_prime)}

    @staticmethod
    def from_dict(d):
        if "notch" in d:
            raise ValueError("domains with a notch are not supported")
        return Domain(tuple(d["omega"]), tuple(d["omega_prime"]))


@dataclass
class ValidationReport:
    """Deterministic list of admissibility violations; empty means admissible."""

    violations: list = field(default_factory=list)

    def add(self, kind: str, ids, detail: str = ""):
        self.violations.append((kind, tuple(int(i) for i in ids), detail))

    def finalize(self):
        self.violations.sort(key=lambda v: (v[0], v[1]))
        return self

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self):
        return sorted({v[0] for v in self.violations})

    def __str__(self):
        if self.ok:
            return "admissible"
        lines = [f"{k} {ids} {d}".rstrip() for k, ids, d in self.violations]
        return "\n".join(lines)


class Triangulation:
    """Conforming triangle mesh of the enclosing rectangle.

    Nodes are (n,2) float64, triangles (m,3) int64 in counterclockwise
    order, both read-only.  Derived tables (edges, adjacency, clipped
    areas, strain gradients, the band order of the dofs) are built lazily
    and cached.  The one mutable attribute, `factor_slot`, holds the
    solver's factors and is not part of the mesh's value, so one mesh
    serves one solve at a time.
    """

    def __init__(self, nodes, triangles, domain: Domain, params: MeshParams,
                 grid_shape=None):
        nodes = np.ascontiguousarray(np.asarray(nodes, dtype=np.float64))
        triangles = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m,3) index array")
        signed = tri_signed_areas(nodes, triangles)
        flip = signed < 0.0
        if flip.any():
            triangles = triangles.copy()
            triangles[flip] = triangles[flip][:, ::-1]
        self.nodes = nodes
        self.triangles = triangles
        self.domain = domain
        self.params = params
        self.grid_shape = grid_shape  # (nx, ny, origin_x, origin_y) for grid family
        # the intact reference factor and the latest elastic system factored
        # on this mesh (solver._FactorSlot), or None, owned by
        # solver.solve_elastic; the one mutable attribute, and not part of
        # the mesh's value
        self.factor_slot = None
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)

    # -- basic sizes ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    # -- cached geometry ---------------------------------------------------

    @cached_property
    def areas(self):
        return np.abs(tri_signed_areas(self.nodes, self.triangles))

    @cached_property
    def edge_table(self):
        """(edges (e,2) sorted pairs, tri_edges (m,3), edge_tris (e,2), -1 pad)."""
        m = self.n_triangles
        # edge k of a triangle joins its vertices k and k+1 (mod 3); edges
        # are keyed a*n + b with a < b, so sorted keys are sorted pairs
        t = self.triangles
        nxt = t[:, [1, 2, 0]]
        keys = np.minimum(t, nxt) * self.n_nodes + np.maximum(t, nxt)
        keys, inv = np.unique(keys, return_inverse=True)
        edges = np.column_stack(np.divmod(keys, self.n_nodes))
        tri_edges = inv.reshape(m, 3)
        # occurrences t*3+k grouped by edge, each group in (t, k) order
        flat = tri_edges.ravel()
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=len(edges))
        first = np.cumsum(counts) - counts
        if (counts > 2).any():
            third = order[first[counts > 2] + 2].min()
            raise MeshError(
                f"edge {flat[third]} shared by more than two triangles")
        edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
        edge_tris[:, 0] = order[first] // 3
        two = counts == 2
        edge_tris[two, 1] = order[first[two] + 1] // 3
        return edges, tri_edges, edge_tris

    @property
    def edges(self):
        return self.edge_table[0]

    @property
    def tri_edges(self):
        return self.edge_table[1]

    @property
    def edge_tris(self):
        return self.edge_table[2]

    @cached_property
    def edge_lengths(self):
        e = self.edges
        d = self.nodes[e[:, 0]] - self.nodes[e[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    @cached_property
    def tri_neighbors(self):
        """(m,3) edge-neighbor ids, -1 where the edge is on the outer boundary."""
        et = self.edge_tris
        te = self.tri_edges
        n0 = et[te, 0]
        n1 = et[te, 1]
        own = np.arange(self.n_triangles)[:, None]
        nb = np.where(n0 == own, n1, n0)
        return nb

    @cached_property
    def tri_boxes(self):
        """(order, boxes): the triangle ids in order of the least x of
        their nodes, and the (4, m) rows xmin, ymin, xmax, ymax of the
        nodes' bounding box of each triangle in that order, for finding
        the triangles inside a rectangle."""
        pts = self.nodes[self.triangles]
        boxes = np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1).T
        order = np.argsort(boxes[0], kind="stable")
        return order, np.ascontiguousarray(boxes[:, order])

    @cached_property
    def node_tris(self):
        """CSR node-to-triangle incidence: (indptr, tri_ids)."""
        flat = self.triangles.ravel()
        order = np.argsort(flat, kind="stable")
        tri_ids = order // 3
        counts = np.bincount(flat, minlength=self.n_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return indptr.astype(np.int64), tri_ids.astype(np.int64)

    @cached_property
    def strain_gradients(self):
        """(6, m) hat-function gradients gx0, gx1, gx2, gy0, gy1, gy2 of
        each triangle (see _kernels.strain_gradients)."""
        return strain_gradients(self.nodes, self.triangles)

    @cached_property
    def area_in_omega(self):
        """|T `intersect` omega| per triangle."""
        x0, y0, x1, y1 = self.domain.omega
        return clip_areas_rect(self.nodes, self.triangles, x0, y0, x1, y1)

    @cached_property
    def band_order(self):
        """The 2 n_nodes dofs in an order that keeps the stiffness matrix
        banded: nodes swept along the longer side of their bounding box,
        row by row across the shorter side (y counts as the longer side of
        a square), each node's x dof before its y dof.  On the grid family
        of a box no wider than tall this is the node numbering itself, and
        the half-bandwidth is about twice the nodes of one row."""
        lo, hi = self.nodes.min(axis=0), self.nodes.max(axis=0)
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        long_short = (x, y) if hi[0] - lo[0] > hi[1] - lo[1] else (y, x)
        nodes = np.lexsort(long_short[::-1])
        return (2 * nodes[:, None] + np.arange(2)).ravel()

    @cached_property
    def area_in_omega_prime(self):
        x0, y0, x1, y1 = self.domain.omega_prime
        return clip_areas_rect(self.nodes, self.triangles, x0, y0, x1, y1)

    @cached_property
    def collar_mask(self):
        """Triangles whose closure misses the closed body rectangle.

        Separating-axis test of two convex sets: they are disjoint exactly
        when the triangle's bounding box lies strictly outside the rectangle
        in x or y, or all four rectangle corners lie strictly right of one
        edge of the counterclockwise triangle.
        """
        x0, y0, x1, y1 = self.domain.omega
        p = self.nodes[self.triangles]
        xs, ys = p[:, :, 0], p[:, :, 1]
        out = ((xs.max(axis=1) < x0) | (xs.min(axis=1) > x1)
               | (ys.max(axis=1) < y0) | (ys.min(axis=1) > y1))
        corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        for k in range(3):
            a, b = p[:, k], p[:, (k + 1) % 3]
            ex, ey = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
            right = np.ones(self.n_triangles, dtype=bool)
            for cx, cy in corners:
                right &= ex * (cy - a[:, 1]) - ey * (cx - a[:, 0]) < 0.0
            out |= right
        return out

    @cached_property
    def collar_node_mask(self):
        """Read-only mask of the nodes of collar triangles, which every
        elastic solve pins to the boundary program."""
        pinned = np.zeros(self.n_nodes, dtype=bool)
        pinned[self.triangles[self.collar_mask].ravel()] = True
        pinned.setflags(write=False)
        return pinned

    @cached_property
    def is_background(self):
        """Triangles coinciding with cells of the regular background grid.

        A triangle qualifies when its vertices lie on the lattice and, taken
        relative to their lowest lattice row and column, occupy exactly the
        cell corners of a lower {(0,0),(1,0),(1,1)} or an upper
        {(0,0),(1,1),(0,1)} half-square.  The crack rule does not read
        it; tests and the benchmark's table timings do.
        """
        if self.grid_shape is None:
            return np.zeros(self.n_triangles, dtype=bool)
        nx, ny, ox, oy = self.grid_shape
        h = self.params.grid_spacing
        tol = self.params.point_tol
        rel = (self.nodes - np.array([ox, oy])) / h
        ij = np.round(rel)
        on_lattice = np.max(np.abs(rel - ij), axis=1) * h <= tol
        loc = ij[self.triangles]
        loc = loc - loc.min(axis=1, keepdims=True)
        in_cell = ((loc == 0.0) | (loc == 1.0)).all(axis=(1, 2))
        # corner (a, b) of the unit cell is bit 2a+b; three distinct corners
        # of one half-square set bits {0,2,3} (lower) or {0,1,3} (upper)
        code = np.where(in_cell[:, None], 2 * loc[:, :, 0] + loc[:, :, 1], 0)
        corners = np.bitwise_or.reduce(1 << code.astype(np.int64), axis=1)
        return (on_lattice[self.triangles].all(axis=1) & in_cell
                & ((corners == 0b1101) | (corners == 0b1011)))

    @cached_property
    def tri_keys(self):
        """Coordinate keys of the triangles, for checks that compare sets
        across meshes by position; the program itself identifies triangles
        by id.

        One (m,) array of 48-byte strings: the bytes of each triangle's
        three vertices sorted by (x, y), every coordinate rounded half to
        even in units of point_tol and held as int64, which has no signed
        zero.  An entry is a hashable `np.bytes_`, and two triangles have
        equal keys exactly when their rounded vertices are equal; the
        fixed width keeps numpy's stripping of trailing NUL bytes from
        merging two keys."""
        q = np.round(self.nodes / self.params.point_tol).astype(np.int64)
        q = q[self.triangles]
        order = np.lexsort((q[:, :, 1], q[:, :, 0]))
        pts = np.take_along_axis(q, order[:, :, None], axis=1)
        return pts.reshape(-1, 6).view("S48").ravel()

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        d = {
            "nodes": [[float(x), float(y)] for x, y in self.nodes],
            "triangles": [[int(a), int(b), int(c)] for a, b, c in self.triangles],
            "params": {
                "theta0": self.params.theta0,
                "eps": self.params.eps,
                "omega_factor": self.params.omega_factor,
            },
            "domain": self.domain.to_dict(),
        }
        if self.grid_shape is not None:
            d["grid_shape"] = list(self.grid_shape)
        return d

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f)

    @staticmethod
    def from_dict(d) -> "Triangulation":
        """Mesh of a mesh-file dict (see `to_dict`); raises MeshError when
        the file names no domain or has an edge in more than two
        triangles."""
        if "domain" not in d:
            raise MeshError("mesh file has no domain")
        p = d["params"]
        params = MeshParams(theta0=float(p["theta0"]), eps=float(p["eps"]),
                            omega_factor=float(p.get("omega_factor", 1e6)))
        grid_shape = tuple(d["grid_shape"]) if "grid_shape" in d else None
        mesh = Triangulation(np.asarray(d["nodes"], dtype=float),
                             np.asarray(d["triangles"]),
                             Domain.from_dict(d["domain"]), params,
                             grid_shape=grid_shape)
        mesh.edge_table  # the edge table is where that fault is found
        return mesh

    @staticmethod
    def load(path) -> "Triangulation":
        with open(path, "r", encoding="utf-8") as f:
            return Triangulation.from_dict(json.load(f))


@dataclass(slots=True)
class DisplacementField:
    """Continuous piecewise-affine field given by one value per mesh node."""

    mesh: Triangulation
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (self.mesh.n_nodes, 2):
            raise MeshError(
                f"field shape {self.values.shape} does not match node count "
                f"{self.mesh.n_nodes}")

    def copy(self) -> "DisplacementField":
        return DisplacementField(self.mesh, self.values.copy())

    def strains(self):
        """Mandel strain [e11, e22, sqrt(2) e12] per triangle."""
        return strains_from_values(self.mesh.strain_gradients,
                                   self.mesh.triangles, self.values)


# ---------------------------------------------------------------------------
# operations


def _grid_counts(domain: Domain, params: MeshParams):
    px0, py0, px1, py1 = domain.omega_prime
    h = params.grid_spacing
    w = px1 - px0
    ht = py1 - py0
    nx = int(math.ceil(w / h - 1e-12))
    ny = int(math.ceil(ht / h - 1e-12))
    return max(nx, 1), max(ny, 1), px0, py0


def build_background_mesh(domain: Domain, params: MeshParams) -> Triangulation:
    """Regular half-square mesh on the grid of size 2*eps*cos(theta0).

    Nodes sit on the grid lattice anchored at the lower-left corner of
    omega_prime, extended by full cells so the union covers omega_prime.
    Each cell is split along its lower-left to upper-right diagonal; the
    resulting 45-45-90 triangles are admissible only for theta0 <= pi/4.
    """
    if params.theta0 > math.pi / 4.0 + 1e-15:
        raise InadmissibleParams(
            "background half-squares have 45 degree angles; need theta0 <= pi/4")
    h = params.grid_spacing
    if h < params.eps - 1e-12 * params.eps:
        raise InadmissibleParams("grid spacing below minimal edge length")
    if h * math.sqrt(2.0) > params.omega + 1e-12 * params.eps:
        raise InadmissibleParams("cell diagonal exceeds maximal edge length")
    nx, ny, ox, oy = _grid_counts(domain, params)
    xs = ox + h * np.arange(nx + 1)
    ys = oy + h * np.arange(ny + 1)
    xx, yy = np.meshgrid(xs, ys)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    # lower-left node of each cell, row by row; cell (i, j) holds triangles
    # 2k (lower half) and 2k+1 (upper half) with k = j*nx + i
    n00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    n10, n01, n11 = n00 + 1, n00 + nx + 1, n00 + nx + 2
    tris = np.stack([np.column_stack([n00, n10, n11]),
                     np.column_stack([n00, n11, n01])], axis=1).reshape(-1, 3)
    return Triangulation(nodes, tris, domain, params, grid_shape=(nx, ny, ox, oy))


def check_admissible(mesh: Triangulation) -> ValidationReport:
    """Report every violated admissibility constraint; empty report = admissible."""
    rep = ValidationReport()
    params = mesh.params
    rel = 1.0 + 1e-12

    areas = mesh.areas
    degenerate = np.where(areas <= 1e-14 * params.eps ** 2)[0]
    for t in degenerate:
        rep.add("degenerate", (t,), f"area={areas[t]:.3e}")

    lengths = mesh.edge_lengths
    short = np.where(lengths < params.eps / rel)[0]
    for e in short:
        rep.add("edge_short", (e,), f"len={lengths[e]:.6e}")
    long_ = np.where(lengths > params.omega * rel)[0]
    for e in long_:
        rep.add("edge_long", (e,), f"len={lengths[e]:.6e}")

    # interior angles
    p0 = mesh.nodes[mesh.triangles[:, 0]]
    p1 = mesh.nodes[mesh.triangles[:, 1]]
    p2 = mesh.nodes[mesh.triangles[:, 2]]
    min_ang = np.full(mesh.n_triangles, np.inf)
    for a, b, c in ((p0, p1, p2), (p1, p2, p0), (p2, p0, p1)):
        u = b - a
        v = c - a
        nu = np.hypot(u[:, 0], u[:, 1])
        nv = np.hypot(v[:, 0], v[:, 1])
        denom = np.where(nu * nv == 0.0, 1.0, nu * nv)
        cosang = np.clip((u * v).sum(axis=1) / denom, -1.0, 1.0)
        min_ang = np.minimum(min_ang, np.arccos(cosang))
    bad_ang = np.where(min_ang < params.theta0 - 1e-12)[0]
    for t in bad_ang:
        if t in degenerate:
            continue
        rep.add("angle", (t,), f"min_angle={min_ang[t]:.6f}")

    # triangle inequality |T| >= eps sin(theta0)/2 * max edge
    max_edge = lengths[mesh.tri_edges].max(axis=1)
    bound = 0.5 * params.eps * math.sin(params.theta0) * max_edge
    bad_ti = np.where(areas < bound * (1.0 - 1e-12))[0]
    for t in bad_ti:
        if t in degenerate or t in bad_ang:
            continue
        rep.add("area_edge_bound", (t,), f"|T|={areas[t]:.3e} bound={bound[t]:.3e}")

    _check_overlaps(mesh, rep)

    cov = float(mesh.area_in_omega.sum())
    target = mesh.domain.omega_area
    tol = max(1e-10 * params.eps, 1e-12 * abs(target))
    if cov < target - tol:
        rep.add("coverage", (), f"covered={cov!r} omega={target!r}")

    return rep.finalize()


# triangle pairs that _check_overlaps tests at once
_OVERLAP_CHUNK = 1 << 14


def _check_overlaps(mesh: Triangulation, rep: ValidationReport):
    """Report the triangle pairs whose intersection has an area above
    point_tol * eps, and the rest where a vertex of one lies strictly
    inside an edge of the other (see _edge_contact).  The pairs tested
    share a cell of side grid_spacing that both bounding boxes meet,
    cells counted by floor division from the least node coordinates."""
    from .trisets import _distinct  # trisets imports this module

    m, tol = mesh.n_triangles, mesh.params.point_tol
    pts = mesh.nodes[mesh.triangles]
    lo, hi = (((q - mesh.nodes.min(axis=0)) // mesh.params.grid_spacing)
              .astype(np.int64) for q in (pts.min(axis=1), pts.max(axis=1)))
    span = hi - lo + 1
    # cell * m + triangle for each cell of each triangle's box, sorted
    tri = np.repeat(np.arange(m), span[:, 0] * span[:, 1])
    ci, cj = np.divmod(np.arange(len(tri)) - np.searchsorted(tri, tri),
                       span[tri, 1])
    rows = int(hi[:, 1].max(initial=0)) + 1
    cell, tri = np.divmod(np.sort(
        ((lo[tri, 0] + ci) * rows + lo[tri, 1] + cj) * m + tri), m)
    # each entry pairs with every later entry of its cell
    later = np.searchsorted(cell, cell, side="right") - np.arange(len(cell)) - 1
    first = np.repeat(np.arange(len(cell)), later)
    second = first + 1 + np.arange(len(first)) - np.searchsorted(first, first)
    a, b = np.divmod(_distinct(tri[first] * m + tri[second]), m)

    # the pairs are tested a chunk at a time, so the clipping's work
    # arrays stay small
    positive = np.zeros(len(a), dtype=bool)
    contact = np.zeros(len(a), dtype=bool)
    for lo in range(0, len(a), _OVERLAP_CHUNK):
        chunk = slice(lo, lo + _OVERLAP_CHUNK)
        pa, pb = pts[a[chunk]], pts[b[chunk]]
        area = clip_areas(pa[..., 0], pa[..., 1],
                          triangle_sides(pb[..., 0], pb[..., 1]))
        positive[chunk] = area > tol * mesh.params.eps
        contact[chunk] = ~positive[chunk] & (_edge_contact(pa, pb, tol)
                                             | _edge_contact(pb, pa, tol))
    for i in np.flatnonzero(positive).tolist():
        rep.add("overlap", (a[i], b[i]), "positive intersection area")
    for i in np.flatnonzero(contact).tolist():
        rep.add("overlap", (a[i], b[i]), "partial edge contact")


def _edge_contact(pa, pb, tol):
    """Per pair of triangles (k, 3, 2), whether a vertex of pa lies within
    tol of an edge of pb and farther than tol from both its ends; all nine
    vertex-edge combinations at once."""
    (px, py), (ax, ay), (bx, by) = (np.moveaxis(q, -1, 0) for q in (
        pa[:, :, None], pb[:, None], pb[:, None, [1, 2, 0]]))
    return ((point_seg_dist(px, py, ax, ay, bx, by) < tol)
            & (np.hypot(px - ax, py - ay) > tol)
            & (np.hypot(px - bx, py - by) > tol)).any(axis=(1, 2))


def interpolate(mesh: Triangulation, g, t: float) -> DisplacementField:
    """Nodal interpolation of the boundary program g(t, .)."""
    vals = g.eval(t, mesh.nodes)
    return DisplacementField(mesh, vals)
