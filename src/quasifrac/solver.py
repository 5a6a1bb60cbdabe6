"""Minimization of the history-dependent energy on a fixed mesh.

The inner subproblem (crack set frozen) is a linear elastic solve with
collar nodes pinned to the boundary program.  Systems with at most
`DIRECT_THRESHOLD` free dofs (3000) run through a serial
Jacobi-preconditioned conjugate-gradient kernel, larger ones through a
sequential sparse LU factorization; both are serial, so results are
independent of thread count.  A direct solve that repeats the reduced
system of the previous solve on the same mesh keeps its factor on the
mesh (`Triangulation.factor_slot`) and reuses it while the system
repeats; any other system drops it first, so at most one factor is kept.
Edge-connected pieces of the active region that carry no pinned node are
gauged by anchoring one node and one tangential dof, which removes each
piece's rigid motions without coupling pieces that only touch at a
vertex.  The outer loop alternates solve / reclassify until the cracked
set stabilizes; multi-starts guard against the nonconvexity of the
truncated density.  Within one step the later starts often replay an
earlier trajectory, so every solve of the step goes through a memo
(`_FrozenSolves`, freed when the step returns).  Its key is the frozen
crack set plus the initial-vector values the solve copies instead of
computing: on the direct path the few free dofs of nodes in no weighted
triangle, on the CG path every unpinned, ungauged dof (the warm start).
A hit is therefore bitwise the field a new solve would give, and each
distinct system is solved once per step.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ._kernels import cg_deflated
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
from .trisets import TriangleSet, edge_components


# free dofs above which the sparse LU replaces CG
DIRECT_THRESHOLD = 3000


class SolverError(Exception):
    pass


class SingularSystem(SolverError):
    pass


class NonConvergence(SolverError):
    pass


@dataclass
class SolveOptions:
    cg_rel_tol: float = 1e-10
    max_outer: int = 200
    max_cg: int = 0          # 0 means 10 * n_nodes
    seed: int = 0
    multi_starts: int = 8    # deterministic starts plus random crack seeds

    def __post_init__(self):
        if self.cg_rel_tol <= 0.0:
            raise ValueError("cg_rel_tol must be positive")
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


def assemble_stiffness(mesh: Triangulation, active_ids, material: MaterialModel):
    """CSR matrix of the quadratic form sum_T |T n omega| |e(v)|_C^2."""
    active_ids = np.asarray(active_ids, dtype=np.int64)
    w = mesh.area_in_omega[active_ids]
    keep = w > 0.0
    ids = active_ids[keep]
    w = w[keep]
    n = 2 * mesh.n_nodes
    if not len(ids):
        return sp.csr_matrix((n, n)), ids
    bmats = mesh.b_matrices[ids]
    cb = np.einsum("ab,mbj->maj", material.elasticity, bmats)
    ke = np.einsum("mai,maj->mij", bmats, cb) * w[:, None, None]
    tris = mesh.triangles[ids]
    dof = np.empty((len(ids), 6), dtype=np.int32)  # SciPy's index type
    dof[:, 0::2] = 2 * tris
    dof[:, 1::2] = 2 * tris + 1
    rows = np.repeat(dof, 6, axis=1).ravel()
    cols = np.tile(dof, (1, 6)).ravel()
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return k, ids


def _gauge_pins(mesh: Triangulation, asm_ids, pinned_node_mask):
    """Extra pinned dofs anchoring rigid motions of floating pieces.

    Pieces are edge-connected components of the assembled triangles; a
    piece without a collar-pinned node gets its lowest node fully anchored
    and a second node anchored orthogonally to their joining direction.
    """
    ids = np.unique(np.asarray(asm_ids, dtype=np.int64))
    extra = []
    tol = mesh.params.point_tol
    for tris in edge_components(mesh, ids):
        nodes = mesh.triangles[tris]
        if pinned_node_mask[nodes].any():
            continue
        nodes = np.unique(nodes)
        a = int(nodes[0])
        extra.extend([2 * a, 2 * a + 1])
        b = None
        for cand in nodes[1:]:
            if np.linalg.norm(mesh.nodes[cand] - mesh.nodes[a]) > tol:
                b = int(cand)
                break
        if b is None:
            raise SingularSystem("floating piece has no second anchor node")
        d = mesh.nodes[b] - mesh.nodes[a]
        extra.append(2 * b + 1 if abs(d[0]) >= abs(d[1]) else 2 * b)
    return extra


@dataclass
class _DirectSystem:
    """Reduced system of a direct solve: stiffness matrix, free dofs, gauge
    dofs, the dofs copied from the initial vector and the LU factor of the
    free-free block."""

    k: sp.csr_matrix
    free_idx: np.ndarray
    gauge: list
    copied: np.ndarray
    lu: object


def solve_elastic(mesh: Triangulation, active, bc: DisplacementField,
                  material: MaterialModel, opts: SolveOptions,
                  x0: Optional[np.ndarray] = None,
                  extra_pinned_nodes=None) -> DisplacementField:
    """Unique minimizer of the active elastic energy with collar pinned to bc.

    `active` is a TriangleSet or id array of triangles whose energy counts;
    collar triangles are pinned through their nodes regardless, and
    `extra_pinned_nodes` may pin further nodes to bc.  Note the energy
    weights are the areas inside the body rectangle, so the partially
    weighted fringe along its boundary is softer than the interior and the
    minimizer of an affine load is affine only once that fringe is pinned
    too.  Floating pieces are gauged (see _gauge_pins).  Raises
    NonConvergence when CG exhausts its budget.

    The result depends on the initial vector (x0, or bc where x0 is None)
    only through the dofs listed in its `_copied` attribute: on the direct
    path the unpinned, ungauged dofs of nodes in no weighted triangle,
    which keep their initial values; on the CG path every unpinned,
    ungauged dof, because the initial vector is the warm start.

    The reduced system is fixed by the elasticity, the weighted active ids
    and the pinned nodes.  When a direct solve repeats the system of the
    previous solve on the same mesh, the mesh keeps that system's factor
    and later repeats only build the right-hand side and back-substitute.
    Any other system drops the kept factor before it is assembled, so at
    most one factor exists while another is built.
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
    free = np.ones(n)
    free[0::2] = np.where(pinned_nodes, 0.0, 1.0)
    free[1::2] = np.where(pinned_nodes, 0.0, 1.0)
    gauge = _gauge_pins(mesh, asm_ids, pinned_nodes)
    for d in gauge:
        free[d] = 0.0
        x[d] = 0.0
    unknown = free > 0.0

    diag = np.asarray(k.diagonal())
    touched = diag > 0.0
    free[~touched] = 0.0  # nodes outside every weighted triangle stay put

    free_idx = np.where(free > 0.0)[0]
    if len(free_idx) > DIRECT_THRESHOLD:
        # sequential sparse LU: deterministic and much faster than Jacobi
        # CG on fine meshes
        kff = k[free_idx, :][:, free_idx].tocsc()
        system = _DirectSystem(k, free_idx, gauge,
                               np.flatnonzero(unknown & ~touched),
                               sp.linalg.splu(kff))
        del kff
        if repeat:
            mesh.factor_slot = (key, system)
        return _direct_solve(mesh, system, x)

    inv_diag = np.where(touched, 1.0 / np.where(touched, diag, 1.0), 1.0)
    max_cg = opts.max_cg if opts.max_cg > 0 else 10 * mesh.n_nodes
    x, iters, relres = cg_deflated(k.indptr, k.indices, k.data, x, free,
                                   inv_diag, opts.cg_rel_tol, max_cg)
    if relres > opts.cg_rel_tol and iters >= max_cg:
        raise NonConvergence(
            f"CG stalled at relative residual {relres:.3e} after {iters} steps")
    out = DisplacementField(mesh, np.column_stack([x[0::2], x[1::2]]))
    out._copied = np.flatnonzero(unknown)
    return out


def _direct_solve(mesh, system: _DirectSystem, x) -> DisplacementField:
    """Solve the reduced system for the free dofs of x, whose other dofs
    hold their pinned values; the gauge dofs are set to zero."""
    x[system.gauge] = 0.0
    free_idx = system.free_idx
    x_pin = x.copy()
    x_pin[free_idx] = 0.0
    rhs = -(system.k @ x_pin)[free_idx]
    x[free_idx] = system.lu.solve(rhs)
    # the reduced residual kff y - rhs, read off the full product
    res = float(np.linalg.norm((system.k @ x)[free_idx]))
    ref = float(np.linalg.norm(rhs)) or 1.0
    if res > 1e-6 * ref:
        raise NonConvergence(
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


def _rank(cand):
    """Sort key of a candidate: energy, cracked area, then the bytes of
    its nodal values."""
    u, rep, _ = cand
    return rep.total, rep.cracked_area, u.values.tobytes()


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

    def __init__(self, mesh, bc, hist_ids, material, params, opts):
        self.mesh = mesh
        self.bc = bc
        self.hist_ids = hist_ids
        self.material = material
        self.params = params
        self.opts = opts
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
                          self.material, self.opts, x0=x0)
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
    smallest `u.values.tobytes()`: ties are broken on the little-endian
    bytes of the nodal doubles, not on their values, so 1.0 sorts after
    2.0 and -0.0 after 0.0.

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
    solves = _FrozenSolves(mesh, bc, hist_ids, material, params, opts)
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
        if _rank(sc) < _rank(best):
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
            if local_best is None or _rank(cand) < _rank(local_best):
                local_best = cand
            if np.array_equal(s_new, s_ids):
                converged = True
                break
            key = _set_key(s_new)
            if key in seen:
                break  # cycling: keep the best iterate seen so far
            seen.add(key)
            s_ids = s_new
        if local_best is not None and _rank(local_best) < _rank(best):
            best = local_best
            best_hist = traj
            best_iters = iters
            best_converged = converged

    u, rep, s_best = best
    return SolveResult(u=u, energy=rep, cracked_now=s_best,
                       outer_iters=best_iters, converged=best_converged,
                       energy_history=best_hist)
