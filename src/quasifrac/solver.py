"""Minimization of the history-dependent energy on a fixed mesh.

The inner subproblem (crack set frozen) is a linear elastic solve with
collar nodes pinned to the boundary program.  The zero-energy motions
left after pinning (pieces of the active region that float, or hinge on
a single node) are fixed by `_gauge_pins`, which holds exactly as many
dofs as there are such motions at their initial values, so every reduced
system is symmetric positive definite.  The path uses numpy alone: each
system is summed onto the mesh's cached stiffness pattern
(`assemble_stiffness`), its free-free block is cut out column by column
(`CSRMatrix.csc_block`), and every such block is factored the same way,
by `_factor`: SuperLU in symmetric mode, sequential, so results are
independent of thread count.  SuperLU's extension is loaded alone, and no
part of `scipy.sparse` is imported.  A solve that repeats the reduced
system of the previous solve on the same mesh keeps its factor on the mesh
(`Triangulation.factor_slot`) and reuses it while the system repeats; any
other system drops it first, so at most one factor is kept.  The outer
loop alternates solve / reclassify until the cracked set stabilizes;
multi-starts guard against the nonconvexity of the truncated density.
Within one step the later starts often replay an earlier trajectory, so
every solve of the step goes through a memo (`_FrozenSolves`, freed when
the step returns).  Its key is the frozen crack set plus the
initial-vector values the solve copies instead of computing: the free
dofs of nodes in no weighted triangle and the gauge dofs.  A hit is
therefore bitwise the field a new solve would give, and each distinct
system is solved once per step.
"""

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .energy import (
    MaterialModel,
    EnergyReport,
    choose_crack_set,
    _check_field,
    _crack_set_of_density,
    _density,
    _energy_of_density,
    _history_ids,
)
from .mesh import DisplacementField, MeshParams, Triangulation
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
    entries), with the row of each entry and the order that lists its
    entries column by column (see mesh.StiffnessPattern.csc_order).
    Gathers by its int32 index arrays go through np.take, which reads them
    without converting them first."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray
    csc_order: np.ndarray

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

    def csc_block(self, keep):
        """CSC arrays (indptr, indices, data) of the submatrix on the dofs
        where the mask `keep` holds, renumbered in order."""
        sel = np.take(keep, self.rows) & np.take(keep, self.indices)
        new = np.cumsum(keep, dtype=np.int32) - 1
        n = int(np.count_nonzero(keep))
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(np.take(new, self.rows[sel]), minlength=n),
                  out=indptr[1:])
        return (indptr, np.take(new, self.indices[sel]),
                np.take(self.data, self.csc_order[sel]))


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
    bmats = np.take(mesh.b_matrices, ids, axis=0)
    ke = np.swapaxes(bmats, 1, 2) @ (material.elasticity @ bmats)
    ke *= mesh.area_in_omega[ids][:, None, None]
    at = np.take(pattern.scatter, slot[weighted], axis=0).astype(np.intp)
    at = at.ravel()
    nnz = len(pattern.indices)
    data = np.bincount(at, ke.ravel(), minlength=nnz).astype(float, copy=False)
    keep = np.zeros(nnz, dtype=bool)
    keep[at] = True
    # the kept positions renumbered, for the order by column
    kept_at = np.cumsum(keep, dtype=np.int32) - 1
    rows = pattern.rows[keep]
    indptr = np.zeros(len(pattern.indptr), dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(indptr) - 1), out=indptr[1:])
    return CSRMatrix(indptr, pattern.indices[keep], data[keep], rows,
                     np.take(kept_at, pattern.csc_order[keep])), ids


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


_superlu_module = None  # loaded once per process, like an import


def _superlu():
    """SuperLU's extension module, loaded alone from SciPy's sparse-solver
    directory on the first factorization.  The directory is found from
    SciPy's install location without importing `scipy.sparse`, which
    would load all of that package for one function."""
    global _superlu_module
    if _superlu_module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise ImportError("SciPy is not installed")
        path = [os.path.join(scipy_spec.submodule_search_locations[0],
                             "sparse", "linalg", "_dsolve")]
        spec = importlib.machinery.PathFinder.find_spec("_superlu", path)
        if spec is None:
            raise ImportError(
                f"SciPy's _superlu extension not found in {path[0]}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _superlu_module = module
    return _superlu_module


_FACTOR_OPTIONS = {"ColPerm": "MMD_AT_PLUS_A", "DiagPivotThresh": 0.0,
                   "SymmetricMode": True}


def _csc_array(*args, **kwargs):
    """SciPy sparse array of a factor's `L` or `U`, which SuperLU builds
    only when a caller reads them (the program never does); SciPy's sparse
    package is imported then, not before."""
    return importlib.import_module("scipy.sparse").csc_array(*args, **kwargs)


def _factor(indptr, indices, data):
    """Sparse LU factor of the symmetric positive definite matrix with CSC
    arrays (indptr, indices, data), int32 indices: SuperLU with a symmetric
    ordering and pivots on the diagonal, as `scipy.sparse.linalg.splu(kff,
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
    options={"SymmetricMode": True})` computes it for that matrix.  Raises
    SingularSystem when a pivot is exactly zero."""
    try:
        return _superlu().gstrf(len(indptr) - 1, len(data), data, indices,
                                indptr, csc_construct_func=_csc_array,
                                options=_FACTOR_OPTIONS, ilu=False)
    except RuntimeError as exc:
        raise SingularSystem(f"reduced stiffness matrix: {exc}") from None


@dataclass
class _DirectSystem:
    """Reduced system of a solve: stiffness matrix, free dofs, the dofs
    copied from the initial vector and the LU factor of the free-free
    block."""

    k: CSRMatrix
    free_idx: np.ndarray
    copied: np.ndarray
    lu: object


def solve_elastic(mesh: Triangulation, active, bc: DisplacementField,
                  material: MaterialModel,
                  x0: Optional[np.ndarray] = None,
                  extra_pinned_nodes=None) -> DisplacementField:
    """Minimizer of the active elastic energy with collar pinned to bc.

    `active` is a TriangleSet or id array of triangles whose energy counts;
    collar triangles are pinned through their nodes regardless, and
    `extra_pinned_nodes` may pin further nodes to bc.  Note the energy
    weights are the areas inside the body rectangle, so the partially
    weighted fringe along its boundary is softer than the interior and the
    minimizer of an affine load is affine only once that fringe is pinned
    too.  Zero-energy motions are gauged (see _gauge_pins), which makes the
    minimizer unique.  Raises SingularSystem when the reduced system cannot
    be factored or its solve leaves a large residual.

    The result depends on the initial vector (x0, or bc where x0 is None)
    only through the dofs listed in its `_copied` attribute, which keep
    their initial values: the unpinned dofs of nodes in no weighted
    triangle, and the gauge dofs.

    The reduced system is fixed by the elasticity, the weighted active ids
    and the pinned nodes.  When a solve repeats the system of the previous
    solve on the same mesh, the mesh keeps that system's factor and later
    repeats only build the right-hand side and back-substitute.  Any other
    system drops the kept factor before it is assembled, so at most one
    factor exists while another is built.
    """
    active_ids = active.ids if isinstance(active, TriangleSet) else \
        np.asarray(sorted(active), dtype=np.int64)
    active_ids = active_ids[mesh.area_in_omega[active_ids] > 0.0]
    n = 2 * mesh.n_nodes
    pinned_nodes = mesh.collar_node_mask
    if extra_pinned_nodes is not None and len(extra_pinned_nodes):
        pinned_nodes = pinned_nodes.copy()
        pinned_nodes[np.asarray(extra_pinned_nodes, dtype=np.int64)] = True

    x = np.empty(n)
    if x0 is not None:
        x[:] = np.asarray(x0, dtype=float).ravel()
    else:
        x[0::2] = bc.values[:, 0]
        x[1::2] = bc.values[:, 1]
    x[0::2] = np.where(pinned_nodes, bc.values[:, 0], x[0::2])
    x[1::2] = np.where(pinned_nodes, bc.values[:, 1], x[1::2])

    key = (material.elasticity.tobytes(), active_ids.tobytes(),
           pinned_nodes.tobytes())
    held_key, held = mesh.factor_slot or (None, None)
    if held_key == key and held is not None:
        return _direct_solve(mesh, held, x)
    repeat = held_key == key
    # forget a kept factor before the next one is built
    held = None
    mesh.factor_slot = (key, None)

    k, asm_ids = assemble_stiffness(mesh, active_ids, material)
    unpinned = np.repeat(~pinned_nodes, 2)
    # nodes outside every weighted triangle stay put
    touched = k.diagonal() > 0.0
    free = unpinned & touched
    gauge = _gauge_pins(mesh, asm_ids, pinned_nodes)
    free[gauge] = False
    free_idx = np.flatnonzero(free)
    system = _DirectSystem(k, free_idx,
                           np.union1d(np.flatnonzero(unpinned & ~touched), gauge),
                           _factor(*k.csc_block(free)))
    if repeat:
        mesh.factor_slot = (key, system)
    return _direct_solve(mesh, system, x)


def _direct_solve(mesh, system: _DirectSystem, x) -> DisplacementField:
    """Solve the reduced system for the free dofs of x, whose other dofs
    hold their pinned or copied values."""
    free_idx = system.free_idx
    x_pin = x.copy()
    x_pin[free_idx] = 0.0
    rhs = -(system.k @ x_pin)[free_idx]
    x[free_idx] = system.lu.solve(rhs)
    # the reduced residual kff y - rhs, read off the full product
    res = float(np.linalg.norm((system.k @ x)[free_idx]))
    ref = float(np.linalg.norm(rhs)) or 1.0
    if res > 1e-6 * ref:
        raise SingularSystem(
            f"direct solve residual {res / ref:.3e} too large")
    out = DisplacementField(mesh, np.column_stack([x[0::2], x[1::2]]))
    out._copied = system.copied
    return out


def _set_key(ids) -> bytes:
    return np.asarray(ids, dtype=np.int64).tobytes()


def _evaluate(mesh, u, strains, hist_ids, material, params):
    """Candidate (u, report, crack set) of a field with strains `strains`:
    its history energy under its optimal crack set."""
    _check_field(mesh, u)
    sq = _density(strains, material)
    s = _crack_set_of_density(mesh, sq, hist_ids, material, params)
    return u, _energy_of_density(mesh, sq, s.ids, material, params), s


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

    A solve with crack set S frozen depends only on S, on bc and on the
    values its initial vector (x0, or bc where x0 is None) holds at the
    dofs the solve copies instead of computing (solve_elastic's
    `_copied`).  Per set the memo keeps the candidate of the latest solve
    with those values.  A lookup whose initial vector holds the same bytes
    there is served from the memo, bitwise the candidate a new solve would
    give; any other lookup solves.
    """

    def __init__(self, mesh, bc, hist_ids, material, params):
        self.mesh = mesh
        self.bc = bc
        self.hist_ids = hist_ids
        self.material = material
        self.params = params
        self._memo = {}  # set key -> (copied dofs, their bytes, candidate)

    def candidate(self, s_ids, x0):
        """_evaluate tuple of the field solved from x0 with s_ids frozen,
        and that field's strains when it was solved now (None when it
        came from the memo)."""
        key = _set_key(s_ids)
        x_init = self.bc.values.ravel() if x0 is None else \
            np.asarray(x0, dtype=float).ravel()
        held = self._memo.get(key)
        if held is not None and x_init[held[0]].tobytes() == held[1]:
            return held[2], None
        frozen = np.zeros(self.mesh.n_triangles, dtype=bool)
        frozen[np.asarray(s_ids, dtype=np.int64)] = True
        u = solve_elastic(self.mesh, np.flatnonzero(~frozen), self.bc,
                          self.material, x0=x0)
        strains = u.strains()
        cand = _evaluate(self.mesh, u, strains, self.hist_ids, self.material,
                         self.params)
        self._memo[key] = (u._copied, x_init[u._copied].tobytes(), cand)
        return cand, strains


def minimize_step(mesh: Triangulation, history, bc: DisplacementField,
                  material: MaterialModel, params: MeshParams,
                  opts: SolveOptions,
                  prev_u: Optional[DisplacementField] = None,
                  shift_field: Optional[DisplacementField] = None,
                  ) -> SolveResult:
    """Alternate minimization of the history energy over nodal fields.

    Each start freezes a cracked set, solves the elastic complement,
    reclassifies, and repeats until the set stabilizes or cycles.  The
    reclassification is the exact crack-set choice for the solved field
    (energy.choose_crack_set): a triangle outside the history cracks only
    where kappa |T n omega'| <= eps |T n omega| |e|_C^2, so like the solve
    it never raises the energy, and a saturated triangle straddling the
    body boundary stays elastic while that is cheaper.  Starts cover the
    pure-elastic solution, the crack set of the previous state,
    the shifted previous state (previous field plus boundary increment,
    whose energy is also scored directly so the step never regresses behind
    that competitor), a greedy ladder cracking only the most strained
    triangles of the elastic solution, and seeded random crack sets.  The
    best iterate is returned with its crack set as `cracked_now` (history
    included); its energy is the history energy under that optimal crack
    set.  Best means lowest energy, then smallest cracked area, then the
    nodal values compared in order by value (see _better), so -0.0 and
    0.0 tie.

    Every solve of the call goes through one memo (_FrozenSolves), keyed
    by the frozen crack set and the initial-vector values the solve
    copies; the pure-elastic solve enters it with the history set.  A
    start that replays an earlier trajectory walks it through memo hits,
    with the same iterations and energies, and each distinct system is
    solved once.
    """
    hist_ids = _history_ids(mesh, history)
    rng = np.random.default_rng(opts.seed)
    crackable = np.setdiff1d(np.where(~mesh.collar_mask)[0], hist_ids)
    solves = _FrozenSolves(mesh, bc, hist_ids, material, params)
    x_init = prev_u.values.ravel().copy() if prev_u is not None else None

    # pure elastic solve: a candidate in itself and the seed of the ladder
    cand, strains = solves.candidate(hist_ids, x_init)
    best = cand
    best_hist = [cand[1].total]
    best_iters = 1
    fresh = np.setdiff1d(cand[2].ids, hist_ids)
    best_converged = len(fresh) == 0

    starts = [cand[2].ids]
    if shift_field is not None:
        sc = _evaluate(mesh, shift_field, shift_field.strains(), hist_ids,
                       material, params)
        if _better(sc, best):
            best = sc
            best_converged = False
        starts.append(sc[2].ids)
    if prev_u is not None:
        starts.append(choose_crack_set(mesh, prev_u, hist_ids, material,
                                       params).ids)
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
        x_warm = x_init
        traj = []
        converged = False
        iters = 0
        local_best = None
        for _ in range(opts.max_outer):
            iters += 1
            cand, _ = solves.candidate(s_ids, x_warm)
            u, rep, s = cand
            x_warm = u.values.ravel().copy()
            s_new = s.ids
            traj.append(rep.total)
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
