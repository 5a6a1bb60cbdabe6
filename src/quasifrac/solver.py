"""Minimization of the history-dependent energy on a fixed mesh.

The inner subproblem (crack set frozen) is a linear elastic solve with
collar nodes pinned to the boundary program.  The zero-energy motions
left after pinning (pieces of the active region that float, or hinge on
a single node) are fixed by `_gauge_pins`, which pins exactly one dof per
such motion to its bc value, so every reduced system is symmetric positive
definite.  The path uses numpy and LAPACK alone: each system is summed
onto the mesh's cached stiffness pattern (`assemble_stiffness`), its
free-free block is renumbered in the mesh's band order
(`Triangulation.band_order`) and its upper triangle scattered into band
storage (`CSRMatrix.band_block`), and every such block is
factored the same way, by `_factor`: LAPACK's band Cholesky `dpbtrf`,
solved by `dpbtrs`.  SciPy's LAPACK extension is loaded alone, with its
bundled OpenBLAS held to one thread, so results are independent of the
thread count; no part of `scipy.sparse` or `scipy.linalg` is imported.
The mesh keeps the factor of its latest system
(`Triangulation.factor_slot`) and reuses it while the system repeats; any
other system drops it first, so at most one factor is kept.  The outer
loop alternates solve / reclassify until the cracked set stabilizes;
multi-starts guard against the nonconvexity of the truncated density.
Within one step the later starts often replay an earlier trajectory, so
every solve of the step goes through a memo (`_FrozenSolves`, freed when
the step returns).  A solve depends only on its reduced system and bc, so
the memo keys on the frozen crack set alone, a hit is bitwise the field a
new solve would give, and each distinct system is solved once per step.

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
    _crack_set_of_density,
    _density,
    _energy_of_density,
)
from .mesh import DisplacementField, Triangulation
from .trisets import (TriangleSet, _edge_graph, _split_by_label,
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


class CSRMatrix(NamedTuple):
    """Square sparse matrix with a symmetric pattern in SciPy's canonical
    CSR form (int32 indices, columns sorted within a row, no duplicate
    entries), with the row of each entry.  Gathers by its int32 index
    arrays go through np.take, which reads them without converting them
    first."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray

    @property
    def shape(self):
        return len(self.indptr) - 1, len(self.indptr) - 1

    def __matmul__(self, x):
        """Matrix-vector product, each row summed in column order."""
        # (bincount returns ints when it has nothing to count)
        return np.bincount(self.rows, self.data * np.take(x, self.indices),
                           minlength=self.shape[0]).astype(float, copy=False)

    def diagonal(self):
        on = self.rows == self.indices
        out = np.zeros(self.shape[0])
        out[self.rows[on]] = self.data[on]
        return out

    def band_block(self, order):
        """LAPACK upper band storage of the submatrix on the dofs `order`,
        renumbered in that order: a (kd + 1, n) Fortran-ordered array
        holding entry (i, j), i <= j <= i + kd, at [kd + i - j, j], where
        kd is the submatrix's half-bandwidth.  The upper triangle is
        scattered straight from the rows."""
        n = len(order)
        new = np.full(self.shape[0], -1, dtype=np.intp)
        new[order] = np.arange(n)
        i, j = np.take(new, self.rows), np.take(new, self.indices)
        upper = (i >= 0) & (j >= i)
        i, j = i[upper], j[upper]
        kd = int((j - i).max(initial=0))
        band = np.zeros((n, kd + 1))
        # [kd + i - j, j] of the transpose is flat position (j + 1) kd + i
        band.ravel()[(j + 1) * kd + i] = self.data[upper]
        return band.T


def assemble_stiffness(mesh: Triangulation, active_ids, material: MaterialModel):
    """The matrix of the quadratic form sum_T |T n omega| |e(v)|_C^2 over
    the active triangles of positive weight, as a CSRMatrix over all
    2 n_nodes dofs, and the ids of those triangles in the given order.

    Element blocks B^T C B |T n omega| are summed onto the mesh's stiffness
    pattern (Triangulation.stiffness_pattern) in the order of the ids, and
    only the entries some active triangle touches are kept, so the matrix
    has the structure a COO to CSR conversion of the blocks gives.
    """
    pattern = mesh.stiffness_pattern
    active_ids = np.asarray(active_ids, dtype=np.int64)
    slot = np.take(pattern.slot, active_ids)
    weighted = slot >= 0
    ids = active_ids[weighted]
    bmats = strain_blocks(mesh.strain_gradients, ids)
    ke = np.swapaxes(bmats, 1, 2) @ (material.elasticity @ bmats)
    ke *= mesh.area_in_omega[ids][:, None, None]
    at = np.take(pattern.scatter, slot[weighted], axis=0).astype(np.intp)
    at = at.ravel()
    nnz = len(pattern.indices)
    data = np.bincount(at, ke.ravel(), minlength=nnz).astype(float, copy=False)
    keep = np.zeros(nnz, dtype=bool)
    keep[at] = True
    rows = pattern.rows[keep]
    indptr = np.zeros(len(pattern.indptr), dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(indptr) - 1), out=indptr[1:])
    return CSRMatrix(indptr, pattern.indices[keep], data[keep], rows), ids


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
    nn = mesh.n_nodes
    _, pairs = _edge_graph(mesh, ids)
    piece = component_labels(len(ids), pairs)
    code = np.unique(np.repeat(piece, 3) * nn + mesh.triangles[ids].ravel())
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
    link = ~fixed[v]
    group = component_labels(len(pieces) + nn, np.column_stack(
        [q[link], len(pieces) + v[link]]))[q]
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
    band storage `band` (see CSRMatrix.band_block), computed in place by
    LAPACK's dpbtrf.  Raises SingularSystem when a leading minor is not
    positive."""
    u, info = _lapack().dpbtrf(band, overwrite_ab=1)
    if info > 0:
        raise SingularSystem(f"reduced stiffness matrix: leading minor of "
                             f"order {info} is not positive")
    return _BandFactor(u)


@dataclass
class _DirectSystem:
    """Reduced system of a solve: stiffness matrix, free dofs in the
    mesh's band order and the Cholesky factor of the free-free block."""

    k: CSRMatrix
    free_idx: np.ndarray
    factor: _BandFactor


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
    and the pinned nodes.  The mesh keeps the factor of its latest system,
    and a solve that repeats that system only builds the right-hand side
    and back-substitutes.  Any other system drops the kept factor before
    it is assembled, so at most one factor exists at a time.
    """
    mask = np.zeros(mesh.n_triangles, dtype=bool)
    mask[np.asarray(active, dtype=np.int64)] = True
    active_ids = np.flatnonzero(mask & (mesh.area_in_omega > 0.0))
    pinned_nodes = mesh.collar_node_mask
    if extra_pinned_nodes is not None and len(extra_pinned_nodes):
        pinned_nodes = pinned_nodes.copy()
        pinned_nodes[np.asarray(extra_pinned_nodes, dtype=np.int64)] = True

    key = (material.elasticity.tobytes(), active_ids.tobytes(),
           pinned_nodes.tobytes())
    if mesh.factor_slot is not None and mesh.factor_slot[0] == key:
        return _direct_solve(mesh, mesh.factor_slot[1], bc)
    # forget the kept factor before the next one is built
    mesh.factor_slot = None

    k, asm_ids = assemble_stiffness(mesh, active_ids, material)
    # nodes outside every weighted triangle stay put
    free = np.repeat(~pinned_nodes, 2) & (k.diagonal() > 0.0)
    gauge = _gauge_pins(mesh, asm_ids, pinned_nodes)
    free[gauge] = False
    order = mesh.band_order
    free_idx = order[free[order]]
    system = _DirectSystem(k, free_idx, _factor(k.band_block(free_idx)))
    mesh.factor_slot = (key, system)
    return _direct_solve(mesh, system, bc)


def _direct_solve(mesh, system: _DirectSystem, bc) -> DisplacementField:
    """The field that solves the reduced system for the free dofs and
    holds its bc values elsewhere."""
    free_idx = system.free_idx
    x = bc.values.ravel().copy()
    x[free_idx] = 0.0
    rhs = -(system.k @ x)[free_idx]
    x[free_idx] = system.factor.solve(rhs)
    # the reduced residual kff y - rhs, read off the full product
    res = float(np.linalg.norm((system.k @ x)[free_idx]))
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
    s = _crack_set_of_density(mesh, sq, hist_ids, material)
    return u, _energy_of_density(mesh, sq, s.ids, material), s


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
    """

    def __init__(self, mesh, bc, hist_ids, material):
        self.mesh = mesh
        self.bc = bc
        self.hist_ids = hist_ids
        self.material = material
        self._memo = {}  # set key -> candidate

    def candidate(self, s_ids):
        """_evaluate tuple of the field solved with s_ids frozen, and that
        field's strains when it was solved now (None when it came from the
        memo)."""
        key = _set_key(s_ids)
        if key in self._memo:
            return self._memo[key], None
        frozen = np.zeros(self.mesh.n_triangles, dtype=bool)
        frozen[np.asarray(s_ids, dtype=np.int64)] = True
        u = solve_elastic(self.mesh, np.flatnonzero(~frozen), self.bc,
                          self.material)
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
    (energy.choose_crack_set): a triangle outside the history cracks only
    where kappa |T n omega'| <= eps |T n omega| |e|_C^2, so like the solve
    it never raises the energy, and a saturated triangle straddling the
    body boundary stays elastic while that is cheaper.  Starts cover the
    pure-elastic solution; given `shift_field` (the previous field plus
    the boundary increment), the shifted previous state, whose energy is
    also scored directly so the step never regresses behind that
    competitor, and the crack set of the previous state (the history set
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
    crackable = np.setdiff1d(np.where(~mesh.collar_mask)[0], hist_ids)
    solves = _FrozenSolves(mesh, bc, hist_ids, material)

    # pure elastic solve: a candidate in itself and the seed of the ladder
    cand, strains = solves.candidate(hist_ids)
    best = cand
    best_hist = [cand[1].total]
    best_iters = 1
    fresh = np.setdiff1d(cand[2].ids, hist_ids)
    best_converged = len(fresh) == 0

    starts = [cand[2].ids]
    if shift_field is not None:
        sc = _evaluate(mesh, shift_field, shift_field.strains(), hist_ids,
                       material)
        if _better(sc, best):
            best = sc
            best_converged = False
        starts.append(sc[2].ids)
        # the previous state's crack set: its walk is the elastic
        # candidate's followed by start 0's, all memo hits, so it never
        # wins, but it holds a multi_starts slot that a ladder start would
        # otherwise take
        starts.append(hist_ids)
    if len(fresh):
        sq = (strains[fresh] ** 2).sum(axis=1)
        order = fresh[np.argsort(-sq, kind="stable")]
        j = 1
        while j < len(order) and len(starts) < opts.multi_starts:
            starts.append(np.union1d(hist_ids, order[:j]))
            j *= 2
    while len(starts) < opts.multi_starts and len(crackable):
        k = int(rng.integers(1, max(2, len(crackable) // 4 + 2)))
        pick = rng.choice(crackable, size=min(k, len(crackable)), replace=False)
        starts.append(np.union1d(hist_ids, pick))

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
                       energy_history=best_hist)
