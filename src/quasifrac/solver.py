"""Minimization of the history-dependent energy on a fixed mesh.

The inner subproblem (crack set frozen) is a linear elastic solve with
collar nodes pinned to the boundary program.  The zero-energy motions
left after pinning (pieces of the active region that float, or hinge on
a single node) are fixed by `_gauge_pins`, which pins exactly one dof per
such motion to its bc value, so every reduced system is symmetric positive
definite.  The path uses numpy and LAPACK alone.  The element block
B^T C B |T n omega| of a triangle is the one form of a system's matrix:
`assemble_stiffness` sums the blocks of the active triangles straight
into LAPACK band storage on a dof order (the mesh's band order,
`Triangulation.band_order`, or a window of it), the solve's products
multiply the blocks triangle by triangle, and every band is factored the
same way, by `_factor`: LAPACK's band Cholesky `dpbtrf`.  SciPy's LAPACK
extension is loaded alone, with its bundled OpenBLAS held to one thread,
so results are independent of the thread count; no part of
`scipy.sparse` or `scipy.linalg` is imported.

Every system of a run equals the mesh's intact system (every weighted
triangle active, the collar pinned) outside a window of band rows around
the crack.  So each mesh factors its intact system once per elasticity,
in two halves that overlap at its middle row (`_intact_reference`), and a
system builds and factors only its window: the Schur complement of the
window against the reference's rows above and below it, read off the
reference's bands (`_twisted_factor`).  The reference is fixed per mesh,
so a factor is a function of its system alone.  It also keeps the element
blocks of the weighted triangles, computed once, which every band and
product is built from.  The mesh keeps the reference and the factor of
its latest system (`Triangulation.factor_slot`) and reuses the factor
while the system repeats; any other system drops it first, so at most one
system factor is kept.

A system is set up from its frozen set I (the weighted triangles it does
not count) and its window, not from the whole mesh.  The reference keeps
a table of the weighted triangles at each node, and with it a band, the
positive-diagonal test at the dofs of I, and the right-hand side visit
only the triangles they need: those that touch the window's dofs, the
dofs of I, or a nonzero held value.  The reference also checks once that
every node a weighted triangle shares with an unweighted triangle or the
mesh rim is pinned.  Then an active piece outside the holes of I reaches
the rim and is held, so only the active triangles in those holes are
gauged (`_gauge`), and a set without holes costs its Euler count.

The outer loop alternates solve / reclassify until the cracked set
stabilizes; multi-starts guard against the nonconvexity of the truncated
density.  Within one step the later starts often replay an earlier
trajectory, so every solve of the step goes through a memo
(`_FrozenSolves`, freed when the step returns).  A solve depends only on
its reduced system and bc, so the memo keys on the frozen crack set alone,
a hit is bitwise the field a new solve would give, and each distinct
system is solved once per step.

The history is the sorted id array of the accumulated cracked triangles,
and eps is the mesh's own; the start from the previous state is the
history set itself.
"""

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ._kernels import strain_blocks
from .energy import (
    MaterialModel,
    EnergyReport,
    _check_field,
    _density,
    classify_cracked,
    energy_given_crack_set,
)
from .mesh import DisplacementField, Triangulation
from .trisets import (TriangleSet, _distinct, _edge_graph, _split_by_label,
                      component_labels)


class SolverError(Exception):
    pass


class SingularSystem(SolverError):
    pass


@dataclass
class SolveOptions:
    max_outer: int = 200
    seed: int = 0
    multi_starts: int = 3    # deterministic starts plus random crack seeds

    def __post_init__(self):
        if self.max_outer < 1 or self.multi_starts < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass
class SolveResult:
    u: DisplacementField
    energy: EnergyReport
    cracked_now: TriangleSet
    outer_iters: int
    converged: bool
    energy_history: list = field(default_factory=list)
    factored_systems: int = 0   # systems the step factored
    factored_rows: int = 0      # band rows those factorizations took


def _element_blocks(mesh: Triangulation, ids, material: MaterialModel):
    """Element blocks B^T C B |T n omega| of the triangles `ids`, each
    computed from its own triangle alone."""
    ke = strain_blocks(mesh.strain_gradients, ids)
    ke = np.swapaxes(ke, 1, 2) @ (material.elasticity @ ke)
    ke *= mesh.area_in_omega[ids][:, None, None]
    return ke


class _Elements(NamedTuple):
    """Element blocks B^T C B |T n omega| of a mesh's weighted triangles
    (sorted ids `ids`) under one elasticity, in id order, and the dofs of
    each triangle (u0x, u0y, u1x, ..., u2y) among the mesh's `n_dofs`.

    `index` holds the weighted triangles at each node (see _node_table),
    so a system reaches the triangles near the dofs it changes without a
    pass over the triangles' dofs.  `live` marks the dofs whose
    summed block diagonal is positive with every weighted triangle active.
    `rim_held` tells whether every node that a weighted triangle shares
    with an unweighted triangle or with the mesh rim is pinned by the
    collar.  A mask `active` over the weighted triangles picks the ones a
    system counts, and a sorted array `rows` of weighted triangles (all of
    them by default) the ones a sum visits."""

    blocks: np.ndarray   # (w, 6, 6)
    dofs: np.ndarray     # (w, 6)
    n_dofs: int
    ids: np.ndarray      # (w,)
    index: np.ndarray    # (n_nodes, d)
    live: Optional[np.ndarray]
    rim_held: bool

    def touching(self, dofs):
        """Sorted weighted triangles with a dof among `dofs`."""
        hit = np.zeros(len(self.dofs) + 1, dtype=bool)
        hit[self.index[np.asarray(dofs, dtype=np.intp) // 2]] = True
        return np.flatnonzero(hit[:-1])

    def sum_onto_dofs(self, active, values, rows=slice(None)):
        """Per-dof sums of the (k, 6) `values` of the active triangles
        among `rows`, each dof's summed in triangle-id order (`values` is
        overwritten).  A dof gets the bits a sum over every weighted
        triangle gives it when `rows` holds every active triangle at it."""
        values[~active[rows]] = 0.0
        # (bincount returns ints when it has nothing to count)
        return np.bincount(self.dofs[rows].ravel(), values.ravel(),
                           minlength=self.n_dofs).astype(float, copy=False)

    def product(self, active, x, rows=slice(None)):
        """Product of the active triangles' stiffness matrix with x,
        summed over the triangles `rows`."""
        y = self.blocks[rows] @ np.take(x, self.dofs[rows])[:, :, None]
        return self.sum_onto_dofs(active, y[:, :, 0], rows)

    def diagonal(self, active, rows=slice(None)):
        """Diagonal of the active triangles' stiffness matrix, summed over
        the triangles `rows`."""
        return self.sum_onto_dofs(
            active, np.diagonal(self.blocks[rows], axis1=1, axis2=2).copy(),
            rows)


def assemble_stiffness(elements: _Elements, active, order, kd):
    """LAPACK upper band storage of the stiffness matrix of the `active`
    weighted triangles on the dofs `order`, renumbered in that order: a
    (kd + 1, n) Fortran-ordered array holding entry (i, j),
    i <= j <= i + kd, at [kd + i - j, j], where kd is the larger of the
    matrix's half-bandwidth and `kd`.

    Entry (i, j) sums, in triangle-id order, the block entries (a, b) with
    a = order[i] and b = order[j], only from the active triangles that
    touch the dofs `order`, which the elements' node index finds.  It
    takes the row dof's side of each block, whose transpose agrees only to
    roundoff.
    """
    pos = np.full(elements.n_dofs, -1, dtype=np.intp)
    pos[order] = np.arange(len(order))
    touched = elements.touching(order)
    touched = touched[active[touched]]
    p = np.take(pos, elements.dofs[touched])
    i = np.broadcast_to(p[:, :, None], (len(p), 6, 6))
    j = np.broadcast_to(p[:, None, :], (len(p), 6, 6))
    upper = (i >= 0) & (i <= j)
    i, j = i[upper], j[upper]
    kd = max(int((j - i).max(initial=0)), kd)
    # [kd + i - j, j] of the transpose is flat position (j + 1) kd + i
    band = np.bincount((j + 1) * kd + i,
                       np.take(elements.blocks, touched, axis=0)[upper],
                       minlength=len(order) * (kd + 1))
    # (bincount returns ints when it has nothing to count)
    return band.astype(float, copy=False).reshape(len(order), kd + 1).T


def _gauge_pins(mesh: Triangulation, asm_ids, pinned_node_mask):
    """Sorted dofs that fix the zero-energy motions of the assembled
    triangles (sorted ids `asm_ids`), one dof per motion.

    With C positive definite, a field of zero energy moves each
    edge-connected piece of the assembled triangles rigidly, by (tx, ty, w).
    It vanishes at pinned nodes, and pieces sharing a node agree there.  A
    piece with two fixed nodes (pinned, or in a piece already held) cannot
    move and drops out.  The other pieces fall into groups joined through
    shared nodes that are not fixed; groups move independently, and the
    motions of one group are the null space of a small dense system (see
    _group_gauge).
    """
    ids = np.asarray(asm_ids, dtype=np.int64)
    if not len(ids):
        return np.empty(0, dtype=np.int64)
    nn = mesh.n_nodes
    _, pairs = _edge_graph(mesh, ids)
    piece = component_labels(len(ids), pairs)
    code = _distinct(np.repeat(piece, 3) * nn + mesh.triangles[ids].ravel())
    p, v = np.divmod(code, nn)  # (piece, node) incidences
    fixed = pinned_node_mask.copy()
    while True:
        held = np.bincount(p, weights=fixed[v], minlength=len(ids)) >= 2
        grow = held[p] & ~fixed[v]
        if not grow.any():
            break
        fixed[v[grow]] = True
    p, v = p[~held[p]], v[~held[p]]
    pieces, q = np.unique(p, return_inverse=True)
    # the groups, over the pieces and after them their shared unfixed nodes
    link = ~fixed[v]
    nodes, at = np.unique(v[link], return_inverse=True)
    group = component_labels(len(pieces) + len(nodes), np.column_stack(
        [q[link], len(pieces) + at]))[q]
    chosen = [_group_gauge(mesh, q[inc], v[inc], fixed)
              for inc in _split_by_label(np.arange(len(q)), group)]
    return np.sort(np.concatenate(chosen)) if chosen else \
        np.empty(0, dtype=np.int64)


def _group_gauge(mesh: Triangulation, q, v, fixed):
    """Gauge dofs of one group of moving pieces, given as (piece, node)
    incidences.

    The rigid motions of the pieces that vanish at fixed nodes and agree at
    shared ones are the null space of the stacked constraints.  The dofs
    are chosen greedily, each the dof on which the null-space basis is
    largest once the dofs chosen before are projected out, so the basis
    restricted to them is invertible and fixing them leaves no zero-energy
    motion.
    """
    pieces, q = np.unique(q, return_inverse=True)
    n_cols = 3 * len(pieces)
    # the motion of piece q at node v, rotating about the piece's node mean
    # and scaled by its extent, so every column is of order one
    xy = mesh.nodes[v]
    centre = np.column_stack([np.bincount(q, weights=xy[:, 0]),
                              np.bincount(q, weights=xy[:, 1])])
    rel = xy - centre[q] / np.bincount(q)[q][:, None]
    extent = np.zeros(len(pieces))
    np.maximum.at(extent, q, np.abs(rel).max(axis=1))
    rel /= extent[q][:, None]
    motion = np.zeros((len(v), 2, n_cols))
    at = np.arange(len(v))
    motion[at, 0, 3 * q] = 1.0
    motion[at, 1, 3 * q + 1] = 1.0
    motion[at, 0, 3 * q + 2] = -rel[:, 1]
    motion[at, 1, 3 * q + 2] = rel[:, 0]
    # constraints: no motion at fixed nodes, agreement at shared nodes
    by_node = np.lexsort((q, v))
    same = v[by_node[1:]] == v[by_node[:-1]]
    a = np.concatenate([motion[fixed[v]],
                        motion[by_node[1:][same]] - motion[by_node[:-1][same]]])
    a = a.reshape(-1, n_cols)
    lam, vec = np.linalg.eigh(a.T @ a)
    basis = vec[:, lam <= 1e-10 * max(float(lam[-1]), 1.0)]
    # nodal motions of the basis at the group's unfixed nodes, by dof
    lead = by_node[np.concatenate([[True], ~same])]
    lead = lead[~fixed[v[lead]]]
    dofs = (2 * v[lead][:, None] + np.arange(2)).ravel()
    r = (motion[lead] @ basis).reshape(len(dofs), -1)
    chosen = []
    for _ in range(basis.shape[1]):
        r2 = (r * r).sum(axis=1)
        # the lowest dof among the (numerically) largest rows
        i = int(np.flatnonzero(r2 >= (1.0 - 1e-9) * r2.max())[0])
        chosen.append(dofs[i])
        d = r[i] / np.sqrt(r2[i])
        r = r - np.outer(r @ d, d)
    return np.asarray(chosen, dtype=np.int64)


_lapack_module = None  # loaded once per process, like an import


def _lapack():
    """SciPy's LAPACK extension module, loaded alone from SciPy's `linalg`
    directory on the first factorization, without importing the
    `scipy.linalg` package.  The OpenBLAS that SciPy's wheels bundle is
    then held to one thread: the band factorization's BLAS calls work on
    small blocks, where threads cost more than they save.  A SciPy built
    without that library keeps its own BLAS threading."""
    global _lapack_module
    if _lapack_module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise ImportError("SciPy is not installed")
        root = scipy_spec.submodule_search_locations[0]
        path = [os.path.join(root, "linalg")]
        spec = importlib.machinery.PathFinder.find_spec("_flapack", path)
        if spec is None:
            raise ImportError(
                f"SciPy's _flapack extension not found in {path[0]}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for lib in glob.glob(os.path.join(os.path.dirname(root), "scipy.libs",
                                          "libscipy_openblas*.so")):
            set_threads = ctypes.CDLL(lib).scipy_openblas_set_num_threads
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
        _lapack_module = module
    return _lapack_module


class _BandFactor(NamedTuple):
    """Cholesky factor U^T U of a symmetric positive definite band matrix,
    U in LAPACK's upper band storage."""

    u: np.ndarray

    def solve(self, b):
        return _lapack().dpbtrs(self.u, b)[0]


def _factor(band):
    """Cholesky factor of the symmetric positive definite matrix in upper
    band storage `band` (see assemble_stiffness), computed in place by
    LAPACK's dpbtrf.  Raises SingularSystem when a leading minor is not
    positive."""
    u, info = _lapack().dpbtrf(band, overwrite_ab=1)
    if info > 0:
        raise SingularSystem(f"reduced stiffness matrix: leading minor of "
                             f"order {info} is not positive")
    return _BandFactor(u)


def _free_dofs(mesh, elements, active, pinned_nodes):
    """Mask of the dofs a system with active weighted triangles `active`
    solves for: those of unpinned nodes whose summed block diagonal is
    positive, less the gauge dofs (_gauge).

    The diagonal differs from the intact system's (`elements.live`) only
    at the dofs of inactive triangles.  There it sums the active triangles
    that touch those dofs, each dof's in triangle-id order, which gives
    the bits of a sum over every triangle."""
    free = elements.live.copy()
    frozen = np.flatnonzero(~active)
    if len(frozen):
        dofs = elements.dofs[frozen]
        free[dofs] = elements.diagonal(
            active, elements.touching(dofs))[dofs] > 0.0
    free &= np.repeat(~pinned_nodes, 2)
    free[_gauge(mesh, elements, active, frozen, pinned_nodes)] = False
    return free


def _gauge(mesh, elements, active, frozen, pinned_nodes):
    """The gauge dofs (_gauge_pins) of the system with active weighted
    triangles `active`, inactive ones `frozen`.

    When `elements.rim_held`, only the active triangles in the holes
    (bounded complement components) of the inactive set can move.  An
    active piece outside them reaches the rim through triangles outside
    the set, so it shares an edge with an unweighted triangle or with the
    rim, and the two nodes of that edge are pinned.  Every such piece is
    held and fixes the nodes it touches, so _gauge_pins on the active
    triangles in the holes, with those nodes fixed, gives the dofs it
    gives on every active triangle: the moving pieces keep their order
    and their (piece, node) incidences.  A set without holes costs its
    Euler count.  Otherwise _gauge_pins takes every active triangle."""
    if not elements.rim_held:
        return _gauge_pins(mesh, elements.ids[active], pinned_nodes)
    in_hole = np.zeros(mesh.n_triangles, dtype=bool)
    for hole in TriangleSet(mesh, elements.ids[frozen]).holes:
        in_hole[hole] = True
    # weighted triangles in a hole are all active
    inside = in_hole[elements.ids]
    ids = elements.ids[inside]
    fixed = pinned_nodes.copy()
    if len(ids):
        nodes = _distinct(mesh.triangles[ids])
        outside = np.zeros(len(active) + 1, dtype=bool)
        outside[:-1] = active & ~inside
        fixed[nodes[outside[elements.index[nodes]].any(axis=1)]] = True
    return _gauge_pins(mesh, ids, fixed)


class _IntactReference(NamedTuple):
    """Cholesky factor of a mesh's intact system under one elasticity:
    every weighted triangle active, the collar pinned, free dofs `free_idx`
    in band order, half-bandwidth kd.  It is factored in two overlapping
    parts split at the middle row m: `top` factors rows [0, m + kd) and
    `bottom` the reversal of rows [m - kd, n), both in upper band storage.
    Row i of the reversal is row n - 1 - i.  `elements` are the element
    blocks of the weighted triangles, which every system is built from."""

    elasticity: bytes
    elements: _Elements
    free_idx: np.ndarray
    pos: np.ndarray       # row of each dof in free_idx, -1 for the others
    kd: int
    m: int
    top: np.ndarray
    bottom: np.ndarray

    @property
    def rows(self) -> int:
        return self.top.shape[1] + self.bottom.shape[1]


def _node_table(tris, n_nodes):
    """(n_nodes, d) table of the rows of the (w, 3) vertex array `tris`
    at each node, ascending, d the most rows at one node; the rest of a
    node's entries are w."""
    flat = tris.ravel()
    order = np.argsort(flat, kind="stable")
    count = np.bincount(flat, minlength=n_nodes)
    table = np.full((n_nodes, count.max(initial=0)), len(tris))
    node = flat[order]
    table[node, np.arange(len(flat)) - (np.cumsum(count) - count)[node]] = \
        order // 3
    return table


def _intact_reference(mesh, material):
    """The mesh's _IntactReference under the elasticity of `material`."""
    weighted = mesh.area_in_omega > 0.0
    ids = np.flatnonzero(weighted)
    tris = mesh.triangles[ids]
    dofs = (2 * tris[:, :, None] + np.arange(2)).reshape(-1, 6)
    # the nodes a weighted triangle shares with an unweighted one or the rim
    outer = np.zeros(mesh.n_nodes, dtype=bool)
    outer[mesh.triangles[~weighted]] = True
    outer[mesh.edges[mesh.edge_tris[:, 1] < 0]] = True
    inner = np.zeros(mesh.n_nodes, dtype=bool)
    inner[tris] = True
    rim_held = not (outer & inner & ~mesh.collar_node_mask).any()
    everything = np.ones(len(ids), dtype=bool)
    elements = _Elements(_element_blocks(mesh, ids, material), dofs,
                         2 * mesh.n_nodes, ids,
                         _node_table(tris, mesh.n_nodes), None, rim_held)
    elements = elements._replace(live=elements.diagonal(everything) > 0.0)
    order = mesh.band_order
    free_idx = order[_free_dofs(mesh, elements, everything,
                                mesh.collar_node_mask)[order]]
    n = len(free_idx)
    m = n // 2
    pos = np.full(elements.n_dofs, -1, dtype=np.intp)
    pos[free_idx] = np.arange(n)
    # the half-bandwidth: the widest span of a triangle's free dofs' rows
    p = np.take(pos, elements.dofs)
    lowest = np.where(p >= 0, p, n).min(axis=1, initial=n)
    kd = int((p.max(axis=1, initial=-1) - lowest).max(initial=0))
    top = _factor(assemble_stiffness(elements, everything, free_idx[:m + kd],
                                     kd)).u
    bottom = _factor(assemble_stiffness(
        elements, everything, free_idx[max(m - kd, 0):][::-1], kd)).u
    return _IntactReference(material.elasticity.tobytes(), elements, free_idx,
                            pos, kd, m, top, bottom)


def _coupling(u, end, cols, kd):
    """Dense block of the band factor `u` (upper storage, half-bandwidth
    kd) on rows [end - kd, end) (those >= 0) and columns `cols` >= end."""
    rows = np.arange(max(end - kd, 0), end)
    d = kd + rows[:, None] - cols
    return np.where(d >= 0, u[np.maximum(d, 0), cols], 0.0)


def _subtract_gram(band, g, first):
    """Subtract g^T g from the diagonal block of the band matrix `band`
    (upper storage) whose first row is `first`."""
    if g.size:
        kd, k = band.shape[0] - 1, g.shape[1]
        # shifted[j, kd + i] is entry (i, j) of g^T g, which the band holds
        # at [kd + i - j, first + j]: column first + j of the band is
        # shifted[j, j:j + kd + 1], zero where i < 0
        shifted = np.zeros((k, kd + k))
        shifted[:, kd:] = (g.T @ g).T
        band.T[first:first + k] -= np.lib.stride_tricks.sliding_window_view(
            shifted.ravel(), kd + 1)[::kd + k + 1]


class _TwistedFactor(NamedTuple):
    """Cholesky factor of a reduced system whose free dofs are, in order,
    the reference's rows [0, s), the window's dofs and the reference's
    rows [t, n), where the system equals the intact one outside the
    window.  Eliminating the two outer parts first, with the reference's
    factors of rows [0, s) (T) and of the reversed rows [t, n) (B), leaves
    the window's Schur complement, factored as `window`.  `top` is
    T^-T times the coupling of [0, s) to the window: nonzero only on the
    last kd rows of [0, s) and the window's first dofs, which the
    reference's band holds.  `bottom` is the same block of B."""

    ref: _IntactReference
    s: int
    t: int
    window: _BandFactor
    top: np.ndarray
    bottom: np.ndarray

    @property
    def rows(self) -> int:
        return self.window.u.shape[1]

    def solve(self, b):
        tbtrs = _lapack().dtbtrs
        s, w = self.s, self.rows
        top, bottom = self.ref.top[:, :s], self.ref.bottom[:, :len(b) - s - w]
        gt, gb = self.top, self.bottom
        # forward: the outer parts, then the window's right-hand side
        yt = tbtrs(top, b[:s], trans="T")[0]
        yb = tbtrs(bottom, b[s + w:][::-1], trans="T")[0]
        z = b[s:s + w].copy()
        z[:gt.shape[1]] -= (gt * yt[s - len(gt):, None]).sum(axis=0)
        z[w - gb.shape[1]:] -= (gb * yb[len(yb) - len(gb):, None]).sum(axis=0)
        x = self.window.solve(z)
        # backward: the outer parts given the window
        yt[s - len(gt):] -= (gt * x[:gt.shape[1]]).sum(axis=1)
        yb[len(yb) - len(gb):] -= (gb * x[w - gb.shape[1]:]).sum(axis=1)
        return np.concatenate([tbtrs(top, yt)[0], x,
                               tbtrs(bottom, yb)[0][::-1]])


def _twisted_factor(mesh, ref, active, free):
    """Free dofs in band order and _TwistedFactor of the system with active
    weighted triangles `active` and free dofs `free`.

    The window is the span [s, t) of reference rows where the system
    differs from the intact one: the dofs of weighted inactive triangles,
    and the reference's free dofs that the system pins or drops.  It starts
    at or before the middle row m and ends at or after it, so each
    reference part covers its side, and spans at least kd rows, so the two
    outer parts never couple.  A system that frees a dof the intact one
    does not (a gauge dof of the intact system) takes the whole band as its
    window.
    """
    n, kd = len(ref.free_idx), ref.kd
    if (free & (ref.pos < 0)).any():
        order = mesh.band_order
        s, t, window = 0, n, order[free[order]]
    else:
        rows = np.take(ref.pos, ref.elements.dofs[~active].ravel())
        rows = np.concatenate([rows[rows >= 0],
                               np.flatnonzero(~free[ref.free_idx])])
        # the span of the changed rows and of row m
        s = int(rows.min(initial=ref.m))
        t = int(rows.max(initial=ref.m - 1)) + 1
        s = max(0, min(s, t - kd))
        t = min(n, max(t, s + kd))
        window = ref.free_idx[s:t][free[ref.free_idx[s:t]]]
    band = assemble_stiffness(ref.elements, active, window, kd)
    at = ref.pos[window]
    gt = _coupling(ref.top, s, at[at < s + kd], kd)
    gb = _coupling(ref.bottom, n - t, n - 1 - at[at >= t - kd], kd)
    _subtract_gram(band, gt, 0)
    _subtract_gram(band, gb, len(window) - gb.shape[1])
    factor = _TwistedFactor(ref, s, t, _factor(band), gt, gb)
    free_idx = np.concatenate([ref.free_idx[:s], window, ref.free_idx[t:]])
    return free_idx, factor


class _FactorSlot(NamedTuple):
    """What a mesh keeps between solves (Triangulation.factor_slot): the
    intact reference of the latest elasticity, and the key, active weighted
    triangles (a mask over the reference's), free dofs in band order and
    factor of the latest system factored, or None."""

    reference: _IntactReference
    key: Optional[tuple] = None
    active: Optional[np.ndarray] = None
    free_idx: Optional[np.ndarray] = None
    factor: Optional[_TwistedFactor] = None


def solve_elastic(mesh: Triangulation, active, bc: DisplacementField,
                  material: MaterialModel,
                  extra_pinned_nodes=None) -> DisplacementField:
    """Minimizer of the active elastic energy with collar pinned to bc.

    `active` holds the ids of the triangles whose energy counts, in any
    order and with repeats counted once; collar triangles are pinned
    through their nodes regardless, and `extra_pinned_nodes` may pin
    further nodes to bc.  Note the energy
    weights are the areas inside the body rectangle, so the partially
    weighted fringe along its boundary is softer than the interior and the
    minimizer of an affine load is affine only once that fringe is pinned
    too.  Zero-energy motions are gauged (see _gauge_pins), which makes the
    minimizer unique.  Raises SingularSystem when the reduced system cannot
    be factored or its solve leaves a large residual.

    The result depends only on the reduced system and bc: every dof the
    solve does not compute keeps its bc value.  Those are the pinned dofs,
    the dofs of nodes in no weighted active triangle, and the gauge dofs.

    The reduced system is fixed by the elasticity, the weighted active ids
    and the pinned nodes.  It equals the mesh's intact system (every
    weighted triangle active, the collar pinned) outside a window of band
    rows, and only that window is built, from the element blocks the
    intact system keeps, and factored against the intact system's factor,
    which the mesh keeps per elasticity (see _twisted_factor).  So a factor
    is a function of its system alone, whatever was solved before.  The
    free dofs and gauge dofs are found near the inactive triangles
    (_free_dofs).  The right-hand side is the product of the active
    element blocks that touch a nonzero held value, the residual that of
    every active block, each summed per triangle.  The mesh also keeps the
    factor of its latest system, and a solve that repeats that system only
    builds the right-hand side and back-substitutes.  Any other system
    drops the kept factor before its window is built, so at most one
    system factor exists at a time.
    """
    mask = np.zeros(mesh.n_triangles, dtype=bool)
    mask[np.asarray(active, dtype=np.int64)] = True
    weighted = mesh.area_in_omega > 0.0
    active_ids = np.flatnonzero(mask & weighted)
    pinned_nodes = mesh.collar_node_mask
    if extra_pinned_nodes is not None and len(extra_pinned_nodes):
        pinned_nodes = pinned_nodes.copy()
        pinned_nodes[np.asarray(extra_pinned_nodes, dtype=np.int64)] = True

    elasticity = material.elasticity.tobytes()
    key = (elasticity, active_ids.tobytes(), pinned_nodes.tobytes())
    slot = mesh.factor_slot
    if slot is not None and slot.key == key:
        return _direct_solve(mesh, slot, bc)
    ref = slot.reference if slot is not None and \
        slot.reference.elasticity == elasticity else None
    # forget the kept factor, and a reference of another elasticity, before
    # the next is built; the reference is built before the system exists
    mesh.factor_slot = slot = None
    if ref is None:
        ref = _intact_reference(mesh, material)
    mesh.factor_slot = _FactorSlot(ref)

    active = mask[weighted]
    # nodes outside every weighted triangle stay put
    free = _free_dofs(mesh, ref.elements, active, pinned_nodes)
    free_idx, factor = _twisted_factor(mesh, ref, active, free)
    mesh.factor_slot = _FactorSlot(ref, key, active, free_idx, factor)
    return _direct_solve(mesh, mesh.factor_slot, bc)


def _direct_solve(mesh, slot: _FactorSlot, bc) -> DisplacementField:
    """The field that solves the kept system for its free dofs and holds
    its bc values elsewhere."""
    elements, free_idx = slot.reference.elements, slot.free_idx
    x = bc.values.ravel().copy()
    x[free_idx] = 0.0
    # a triangle with no nonzero held value adds an exact zero, which
    # leaves every sum's bits as they are
    rhs = -elements.product(slot.active, x,
                            elements.touching(np.flatnonzero(x)))[free_idx]
    x[free_idx] = slot.factor.solve(rhs)
    # the reduced residual kff y - rhs, read off the full product
    res = float(np.linalg.norm(elements.product(slot.active, x)[free_idx]))
    ref = float(np.linalg.norm(rhs)) or 1.0
    if res > 1e-6 * ref:
        raise SingularSystem(
            f"direct solve residual {res / ref:.3e} too large")
    return DisplacementField(mesh, x.reshape(-1, 2))


def _set_key(ids) -> bytes:
    return np.asarray(ids, dtype=np.int64).tobytes()


def _evaluate(mesh, u, strains, hist_ids, material):
    """Candidate (u, report, crack set) of a field with strains `strains`:
    its history energy under its optimal crack set."""
    _check_field(mesh, u)
    sq = _density(strains, material)
    s = classify_cracked(mesh, sq, hist_ids, material)
    return u, energy_given_crack_set(mesh, sq, s.ids, material), s


def _better(cand, other) -> bool:
    """Whether candidate `cand` ranks before `other`: lower energy, then
    smaller cracked area, then the first nodal value where the fields
    differ is smaller."""
    key, other_key = (cand[1].total, cand[1].cracked_area), \
        (other[1].total, other[1].cracked_area)
    if key != other_key:
        return key < other_key
    a, b = cand[0].values.ravel(), other[0].values.ravel()
    differ = np.flatnonzero(a != b)
    return bool(len(differ)) and bool(a[differ[0]] < b[differ[0]])


class _FrozenSolves:
    """The elastic solves of one minimize_step call, memoized by frozen
    crack set.

    A solve with crack set S frozen depends only on S and bc
    (solve_elastic), so the memo keeps one candidate per set, and a lookup
    of a set solved before is bitwise the candidate a new solve would give.
    After each new solve the mesh's factor slot tells whether it factored
    its system, and how many band rows that took, the intact reference's
    included when the solve built it.
    """

    def __init__(self, mesh, bc, hist_ids, material):
        self.mesh = mesh
        self.bc = bc
        self.hist_ids = hist_ids
        self.material = material
        self._memo = {}  # set key -> candidate
        self.factored_systems = 0
        self.factored_rows = 0

    def candidate(self, s_ids):
        """_evaluate tuple of the field solved with s_ids frozen, and that
        field's strains when it was solved now (None when it came from the
        memo)."""
        key = _set_key(s_ids)
        if key in self._memo:
            return self._memo[key], None
        frozen = np.zeros(self.mesh.n_triangles, dtype=bool)
        frozen[np.asarray(s_ids, dtype=np.int64)] = True
        # the kept system's key and reference, not the system itself, which
        # the solve frees before it assembles the next
        kept = self.mesh.factor_slot
        kept = (None, None) if kept is None else (kept.key, kept.reference)
        u = solve_elastic(self.mesh, np.flatnonzero(~frozen), self.bc,
                          self.material)
        slot = self.mesh.factor_slot
        if slot.key != kept[0]:
            self.factored_systems += 1
            self.factored_rows += slot.factor.rows
            if slot.reference is not kept[1]:
                self.factored_rows += slot.reference.rows
        strains = u.strains()
        cand = _evaluate(self.mesh, u, strains, self.hist_ids, self.material)
        self._memo[key] = cand
        return cand, strains


def minimize_step(mesh: Triangulation, hist_ids, bc: DisplacementField,
                  material: MaterialModel, opts: SolveOptions,
                  shift_field: Optional[DisplacementField] = None,
                  ) -> SolveResult:
    """Alternate minimization of the history energy over nodal fields.

    `hist_ids` are the sorted ids of the accumulated cracked triangles,
    and eps is the mesh's own.

    Each start freezes a cracked set, solves the elastic complement,
    reclassifies, and repeats until the set stabilizes or cycles.  The
    reclassification is the exact crack-set choice for the solved field
    (energy.classify_cracked): a triangle outside the history cracks only
    where kappa |T n omega'| <= eps |T n omega| |e|_C^2, so like the solve
    it never raises the energy, and a saturated triangle straddling the
    body boundary stays elastic while that is cheaper.  Starts cover the
    pure-elastic solution; given `shift_field` (the previous field plus
    the boundary increment), the crack set of the shifted previous state,
    whose first iterate is never worse than that state (the solve with
    its crack set frozen cannot raise the elastic energy, nor the
    reclassification the history energy), so the step never regresses
    behind it, and the crack set of the previous state (the history set
    itself: the history holds the previous step's crack set, so under the
    previous field no other triangle cracks); a greedy ladder cracking
    only the most strained triangles of the elastic solution; and seeded
    random crack sets.  The best iterate is returned with its crack set as
    `cracked_now` (history included); its energy is the history energy
    under that optimal crack set.  Best means lowest energy, then smallest
    cracked area, then the nodal values compared in order by value (see
    _better), so -0.0 and 0.0 tie.

    Every solve of the call goes through one memo (_FrozenSolves), keyed
    by the frozen crack set; the pure-elastic solve enters it with the
    history set.  A start that replays an earlier trajectory walks it
    through memo hits, with the same iterations and energies, and each
    distinct system is solved once.
    """
    hist_ids = np.asarray(hist_ids, dtype=np.int64)
    rng = np.random.default_rng(opts.seed)
    solves = _FrozenSolves(mesh, bc, hist_ids, material)

    # pure elastic solve: a candidate in itself and the seed of the ladder
    cand, strains = solves.candidate(hist_ids)
    best = cand
    best_hist = [cand[1].total]
    best_iters = 1
    in_hist = np.zeros(mesh.n_triangles, dtype=bool)
    in_hist[hist_ids] = True
    fresh = cand[2].ids[~in_hist[cand[2].ids]]
    best_converged = len(fresh) == 0

    starts = [cand[2].ids]
    if shift_field is not None:
        _check_field(mesh, shift_field)
        sq = _density(shift_field.strains(), material)
        starts.append(classify_cracked(mesh, sq, hist_ids, material).ids)
        # the previous state's crack set: its walk is the elastic
        # candidate's followed by start 0's, all memo hits, so it never
        # wins.  It stays because it fills the third multi_starts slot at
        # every step after the first; a ladder or random start in that
        # slot took the crack ladder at eps 1/64 from 47 to 99
        # factorizations and changed its outputs (final K/2 1.2466 ->
        # 1.3064)
        starts.append(hist_ids)
    if len(fresh):
        # ranked by the density the crack rule reads
        sq = _density(strains[fresh], material)
        order = fresh[np.argsort(-sq, kind="stable")]
        j = 1
        while j < len(order) and len(starts) < opts.multi_starts:
            starts.append(_distinct(np.concatenate([hist_ids, order[:j]])))
            j *= 2
    crackable = None  # built for the first random start
    while len(starts) < opts.multi_starts:
        if crackable is None:
            crackable = np.flatnonzero(~mesh.collar_mask & ~in_hist)
        if not len(crackable):
            break
        k = int(rng.integers(1, max(2, len(crackable) // 4 + 2)))
        pick = rng.choice(crackable, size=min(k, len(crackable)), replace=False)
        starts.append(_distinct(np.concatenate([hist_ids, pick])))

    for s0 in starts:
        s_ids = np.asarray(s0, dtype=np.int64)
        seen = {_set_key(s_ids)}
        traj = []
        converged = False
        iters = 0
        local_best = None
        for _ in range(opts.max_outer):
            iters += 1
            cand, _ = solves.candidate(s_ids)
            s_new = cand[2].ids
            traj.append(cand[1].total)
            if local_best is None or _better(cand, local_best):
                local_best = cand
            if np.array_equal(s_new, s_ids):
                converged = True
                break
            key = _set_key(s_new)
            if key in seen:
                break  # cycling: keep the best iterate seen so far
            seen.add(key)
            s_ids = s_new
        if local_best is not None and _better(local_best, best):
            best = local_best
            best_hist = traj
            best_iters = iters
            best_converged = converged

    u, rep, s_best = best
    return SolveResult(u=u, energy=rep, cracked_now=s_best,
                       outer_iters=best_iters, converged=best_converged,
                       energy_history=best_hist,
                       factored_systems=solves.factored_systems,
                       factored_rows=solves.factored_rows)
