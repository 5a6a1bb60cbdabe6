import glob
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from quasifrac import solver, trisets, voidmod
from quasifrac._kernels import cg_deflated
from quasifrac.config import parse_config
from quasifrac.energy import (
    MaterialModel,
    _density,
    classify_cracked,
    history_energy,
    static_energy,
)
from quasifrac.mesh import (
    DisplacementField,
    Domain,
    MeshParams,
    build_background_mesh,
    interpolate,
)
from quasifrac.solver import (
    SolveOptions,
    minimize_step,
    solve_elastic,
)
from quasifrac.runner import run_from_config
from quasifrac.trisets import TriangleSet
from conftest import AffineLoad, block_ids, make_mesh
from _oracles import (band_by_loop, band_by_scan, band_of_dense,
                      coo_stiffness, dense_of_band, density_by_loop,
                      kkt_residual, whole_set_setup)


def _fringe_nodes(mesh):
    partial = np.where(mesh.area_in_omega < mesh.areas * (1 - 1e-12))[0]
    return np.unique(mesh.triangles[partial].ravel())


def strip_mesh(n_cells=4, width=1):
    eps = 1 / math.sqrt(2.0)
    params = MeshParams(theta0=math.pi / 4, eps=eps)
    dom = Domain((1.1, 0.0, n_cells - 1.1, float(width)),
                 (0.0, 0.0, float(n_cells), float(width)))
    return build_background_mesh(dom, params)


def test_solve_elastic_zero_bc(mesh16):
    mat = MaterialModel()
    bc = interpolate(mesh16, AffineLoad(), 1.0)
    u = solve_elastic(mesh16, np.arange(mesh16.n_triangles), bc, mat)
    assert np.abs(u.values).max() == 0.0


def test_solve_elastic_affine_with_fringe_pinned(mesh16):
    # with the softer partially weighted fringe pinned, P1 reproduces the
    # affine field exactly and the reduced gradient vanishes
    mat = MaterialModel()
    bc = interpolate(mesh16, AffineLoad(0.2, 0.05, 0.0, -0.3), 1.0)
    allt = np.arange(mesh16.n_triangles)
    extra = _fringe_nodes(mesh16)
    u = solve_elastic(mesh16, allt, bc, mat, extra_pinned_nodes=extra)
    assert np.abs(u.values - bc.values).max() < 1e-10
    assert kkt_residual(mesh16, allt, u, mat, extra_pinned_nodes=extra) < 1e-10


def test_solve_elastic_relaxed_is_optimal(mesh16):
    # with only the collar pinned the fringe relaxes; the result must be
    # stationary and no worse than the affine competitor
    mat = MaterialModel()
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 0.5), 1.0)
    allt = np.arange(mesh16.n_triangles)
    u = solve_elastic(mesh16, allt, bc, mat)
    assert kkt_residual(mesh16, allt, u, mat) < 1e-10
    w = mesh16.area_in_omega
    s_u = u.strains()
    s_a = bc.strains()
    e_u = float((w * (s_u * s_u).sum(axis=1)).sum())
    e_a = float((w * (s_a * s_a).sum(axis=1)).sum())
    assert e_u <= e_a + 1e-12


def test_solve_elastic_uniaxial_strip_closed_form():
    # strip stretched along its axis: energy = delta^2 * width / length
    mesh = strip_mesh(n_cells=6)
    mat = MaterialModel()
    x0, y0, x1, y1 = mesh.domain.omega
    length = x1 - x0
    width = y1 - y0
    delta = 0.23

    class Uniaxial:
        def eval(self, t, pts):
            out = np.zeros_like(np.asarray(pts, dtype=float))
            out[:, 0] = t * delta * (np.asarray(pts)[:, 0] - x0) / length
            return out

    bc = interpolate(mesh, Uniaxial(), 1.0)
    allt = np.arange(mesh.n_triangles)
    extra = _fringe_nodes(mesh)
    u = solve_elastic(mesh, allt, bc, mat, extra_pinned_nodes=extra)
    w = mesh.area_in_omega
    s = u.strains()
    energy = float((w * (s * s).sum(axis=1)).sum())
    assert energy == pytest.approx(delta ** 2 * width / length, abs=1e-8)


def test_solve_elastic_floating_component_gauge(mesh32):
    # isolate an island by cracking a ring: the solve still converges and
    # the island carries (numerically) zero strain
    mat = MaterialModel()
    bc = interpolate(mesh32, AffineLoad(0.0, 0.0, 0.0, 0.4), 1.0)
    c = mesh32.nodes[mesh32.triangles].mean(axis=1)
    r = np.hypot(c[:, 0] - 0.5, c[:, 1] - 0.5)
    ring = np.where(np.abs(r - 0.2) < 0.05)[0]
    island = np.where(r < 0.15)[0]
    assert len(island) > 0
    active = np.setdiff1d(np.arange(mesh32.n_triangles), ring)
    u = solve_elastic(mesh32, active, bc, mat)
    s = u.strains()
    assert np.abs(s[island]).max() < 1e-8


def test_solve_elastic_counts_repeated_ids_once():
    # an active triangle listed twice, or out of order, is assembled once:
    # the field is bitwise that of the sorted deduplicated ids
    g = AffineLoad(0.0, 0.0, 0.0, 0.4)
    mat = MaterialModel()
    mesh = make_mesh(1 / 16)
    active = np.setdiff1d(np.arange(mesh.n_triangles),
                          block_ids(mesh, 4, 10, 11, 12))
    inner = active[(mesh.area_in_omega[active] > 0.0)
                   & ~mesh.collar_mask[active]]
    twice = np.random.default_rng(4).choice(inner, 40, replace=False)
    want = solve_elastic(mesh, active, interpolate(mesh, g, 1.0), mat)
    for ids in (np.concatenate([active, twice]), active[::-1].tolist()):
        other = make_mesh(1 / 16)
        got = solve_elastic(other, ids, interpolate(other, g, 1.0), mat)
        assert got.values.tobytes() == want.values.tobytes()


def test_minimize_step_subcritical_fixed_point(mesh16):
    mat = MaterialModel(kappa=1.0)
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 0.3), 1.0)
    res = minimize_step(mesh16, [], bc, mat, SolveOptions(multi_starts=2))
    assert res.converged
    assert len(res.cracked_now) == 0
    # fixed-point self-consistency
    assert static_energy(mesh16, res.u, mat).n_cracked == 0
    cls = classify_cracked(mesh16, _density(res.u.strains(), mat), [], mat)
    assert len(cls) == 0


def test_minimize_step_full_history(mesh16):
    params = mesh16.params
    mat = MaterialModel(kappa=1.0)
    hist = np.arange(mesh16.n_triangles)
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 0.3), 1.0)
    res = minimize_step(mesh16, hist, bc, mat, SolveOptions(multi_starts=2))
    assert res.energy.elastic_part == pytest.approx(0.0, abs=1e-12)
    prime = float(mesh16.area_in_omega_prime.sum())
    assert res.energy.crack_part == pytest.approx(prime / params.eps, rel=1e-12)


def test_minimize_step_energy_history_monotone(mesh16):
    # recorded outer-iteration energies of the winning start never increase
    mat = MaterialModel(kappa=1.0)
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 1.8), 1.0)
    res = minimize_step(mesh16, [], bc, mat,
                        SolveOptions(multi_starts=4, seed=2))
    e = res.energy_history
    for a, b in zip(e, e[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))
    # the solver's crack choice for the result adds nothing outside
    # cracked_now (plain saturation may also mark saturated fringe
    # triangles whose cracking would raise the energy)
    cls = classify_cracked(mesh16, _density(res.u.strains(), mat),
                           np.empty(0, dtype=np.int64), mat)
    assert set(cls.ids) <= set(res.cracked_now.ids)


def test_minimize_step_matches_oracle_small():
    from _oracles import exhaustive_minimum
    mesh = strip_mesh(n_cells=4)
    mat = MaterialModel(kappa=1.0)
    opts = SolveOptions(multi_starts=8, seed=3)
    for amp in (0.6, 1.5, 3.0):
        g = AffineLoad(a11=amp)
        bc = interpolate(mesh, g, 1.0)
        res = minimize_step(mesh, [], bc, mat, opts)
        e_oracle = exhaustive_minimum(mesh, bc, np.empty(0, dtype=np.int64),
                                      mat)
        assert res.energy.total == pytest.approx(e_oracle, abs=1e-9)


def _opening_step():
    """(mesh, bc) of the opening load at amplitude 3.2, t = 1, eps 1/16."""
    cfg = parse_config("eps = 0.0625\namplitude = 3.2\nload = opening\n")
    mesh = build_background_mesh(cfg.domain(), cfg.mesh_params())
    return mesh, interpolate(mesh, cfg.load(), 1.0)


def test_minimize_step_shifted_state_fixed_point():
    # the start from the shifted state's crack set is never worse than the
    # shifted state; when that state is the step's own minimizer, the
    # walk returns it as a converged fixed point
    mesh, bc = _opening_step()
    mat = MaterialModel()
    opts = SolveOptions(multi_starts=3, seed=1)
    first = minimize_step(mesh, [], bc, mat, opts)
    second = minimize_step(mesh, [], bc, mat, opts, shift_field=first.u)
    shifted = history_energy(mesh, first.u, np.empty(0, dtype=np.int64), mat)
    assert second.energy.total <= shifted.total
    assert second.converged
    assert second.u.values.tobytes() == first.u.values.tobytes()


def test_minimize_step_cycling_exit(monkeypatch):
    # a walk whose crack sets alternate between a and b stops at the
    # repeat, unconverged, and returns the best iterate it saw
    mesh, bc = _opening_step()
    mat = MaterialModel()
    opts = SolveOptions(multi_starts=1, seed=1)
    fixed = minimize_step(mesh, [], bc, mat, opts)
    a = fixed.cracked_now.ids
    b = a[:-1]
    # the elastic solve leads to a, and the walk from a alternates
    lead = {solver._set_key([]): a, solver._set_key(a): b,
            solver._set_key(b): a}
    real = solver._FrozenSolves.candidate
    walk = []

    def alternating(self, s_ids):
        (u, rep, _), strains = real(self, s_ids)
        walk.append((u, rep))
        return (u, rep, TriangleSet(mesh, lead[solver._set_key(s_ids)])), \
            strains

    monkeypatch.setattr(solver._FrozenSolves, "candidate", alternating)
    res = minimize_step(mesh, [], bc, mat, opts)
    assert len(walk) == 3
    (u_a, rep_a), (u_b, rep_b) = walk[1:]
    assert not res.converged
    assert res.outer_iters == 2
    assert res.energy_history == [rep_a.total, rep_b.total]
    # the first iterate is the better one, not the last
    assert rep_a.total < rep_b.total
    assert res.energy is rep_a and res.u is u_a


# factor reuse on the eps 1/64 mesh

LOADS = (AffineLoad(0.0, 0.0, 0.0, 0.4), AffineLoad(0.1, 0.2, 0.0, 0.3))


def _solve(mesh, active, g, mat, pins=None):
    return solve_elastic(mesh, active, interpolate(mesh, g, 1.0), mat,
                         extra_pinned_nodes=pins)


def _fresh_values(active, g, mat, pins=None):
    """Solution bytes of the same solve on a newly built mesh."""
    return _solve(make_mesh(1 / 64), active, g, mat, pins).values.tobytes()


def test_solve_elastic_reuses_factor_bitwise(counted_factor):
    mesh = make_mesh(1 / 64)
    mat = MaterialModel()
    active = np.setdiff1d(np.arange(mesh.n_triangles),
                          block_ids(mesh, 30, 34, 33, 35))
    out = [_solve(mesh, active, g, mat).values.tobytes()
           for g in LOADS + LOADS]
    # the first solve keeps its factor, the rest reuse it; the intact
    # reference is built once, before it
    assert len(counted_factor) == 1
    assert len(counted_factor.references) == 1
    assert mesh.factor_slot.factor is not None
    for g, values in zip(LOADS + LOADS, out):
        assert values == _fresh_values(active, g, mat)


@pytest.mark.parametrize("change", ["active", "pins", "material"])
def test_solve_elastic_changed_system_drops_factor(change, counted_factor):
    mesh = make_mesh(1 / 64)
    mat = MaterialModel()
    active = np.setdiff1d(np.arange(mesh.n_triangles),
                          block_ids(mesh, 30, 34, 33, 35))
    for g in LOADS:
        _solve(mesh, active, g, mat)
    old = mesh.factor_slot
    pins = None
    if change == "active":
        active = np.setdiff1d(active, block_ids(mesh, 34, 35, 33, 35))
    elif change == "pins":
        pins = mesh.triangles[block_ids(mesh, 40, 41, 20, 21)].ravel()
    else:
        mat = MaterialModel(elasticity=np.diag([2.0, 1.0, 1.0]))
    u = _solve(mesh, active, LOADS[0], mat, pins)
    # the changed system is factored and kept in place of the old one; a
    # new elasticity also builds its own intact reference
    assert len(counted_factor) == 2
    assert len(counted_factor.references) == (2 if change == "material"
                                               else 1)
    assert mesh.factor_slot.key != old.key
    assert mesh.factor_slot.factor is not old.factor
    assert u.values.tobytes() == _fresh_values(active, LOADS[0], mat, pins)


# the per-step solve memo

@pytest.mark.parametrize("eps", [1 / 16, 1 / 64])
def test_frozen_solves_memo_keys_frozen_set(monkeypatch, eps):
    # freezing every triangle around an interior node leaves it in no
    # weighted triangle, so it carries its bc value; a set asked for again
    # is served from the memo, bitwise the field a fresh solve gives
    mesh = make_mesh(eps)
    node = int(np.argmin(np.hypot(mesh.nodes[:, 0] - 0.5,
                                  mesh.nodes[:, 1] - 0.5)))
    frozen = np.flatnonzero((mesh.triangles == node).any(axis=1))
    mat = MaterialModel()
    g = AffineLoad(0.0, 0.0, 0.0, 0.4)
    bc = interpolate(mesh, g, 1.0)
    calls = []
    real = solver.solve_elastic

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_elastic", counting)
    solves = solver._FrozenSolves(mesh, bc, np.empty(0, dtype=np.int64), mat)
    first, strains = solves.candidate(frozen)
    assert strains is not None and len(calls) == 1
    assert first[0].values[node].tobytes() == bc.values[node].tobytes()
    served, strains = solves.candidate(list(frozen))
    assert served is first and strains is None
    assert len(calls) == 1
    # another set is solved
    solves.candidate(frozen[1:])
    assert len(calls) == 2

    new = make_mesh(eps)
    active = np.setdiff1d(np.arange(mesh.n_triangles), frozen)
    fresh = real(new, active, interpolate(new, g, 1.0), mat)
    assert served[0].values.tobytes() == fresh.values.tobytes()


# the gauge: exactly one held dof per zero-energy motion

def _island_active(mesh):
    """Every triangle but the three edge-neighbours of the one nearest the
    plate's centre, which stays attached to the body by its vertices."""
    c = mesh.nodes[mesh.triangles].mean(axis=1)
    t = int(np.argmin(np.hypot(c[:, 0] - 0.5, c[:, 1] - 0.5)))
    nbrs = mesh.tri_neighbors[t]
    assert (nbrs >= 0).all()
    return np.setdiff1d(np.arange(mesh.n_triangles), nbrs)


@pytest.mark.parametrize("mesh_name", ["mesh16", "mesh32"])
def test_solve_elastic_vertex_attached_island(request, mesh_name):
    # a triangle whose edge-neighbours are all frozen still shares its
    # vertices with the body, so it has no motion of its own to gauge
    mesh = request.getfixturevalue(mesh_name)
    mat = MaterialModel()
    active = _island_active(mesh)
    bc = interpolate(mesh, AffineLoad(0.0, 0.0, 0.0, 0.4), 1.0)
    u = solve_elastic(mesh, active, bc, mat)
    assert kkt_residual(mesh, active, u, mat) < 1e-10
    # the minimum energy, from CG on the ungauged system
    k = coo_stiffness(mesh, active, mat)[0]
    diag = k.diagonal()
    touched = diag > 0.0
    free = (touched & np.repeat(~mesh.collar_node_mask, 2)).astype(float)
    inv_diag = 1.0 / np.where(touched, diag, 1.0)
    x, _, relres = cg_deflated(k.indptr, k.indices, k.data, bc.values.ravel(),
                               free, inv_diag, 1e-12, 20000)
    assert relres <= 1e-12
    x_u = u.values.ravel()
    assert x_u @ (k @ x_u) == pytest.approx(x @ (k @ x), rel=1e-10)


def test_solve_elastic_hinged_triangle():
    # criterion 7's strip with only triangle 5 active: it hangs on one
    # collar node, so one dof holds its rotation at its bc value
    mesh = strip_mesh(n_cells=4)
    mat = MaterialModel()
    bc = interpolate(mesh, AffineLoad(a11=1.5), 1.0)
    gauge = solver._gauge_pins(mesh, np.array([5]), mesh.collar_node_mask)
    assert len(gauge) == 1
    k, _ = coo_stiffness(mesh, [5], mat)
    fields = []
    for turn in (0.0, 0.3):
        values = bc.values.copy()
        values.ravel()[gauge] += turn
        u = solve_elastic(mesh, [5], DisplacementField(mesh, values), mat)
        # the minimum energy is zero, so the gradient vanishes outright
        assert np.abs(k @ u.values.ravel()).max() < 1e-12
        assert u.values.ravel()[gauge] == values.ravel()[gauge]
        fields.append(u)
    # the two fields differ by a rotation about the hinge
    tri = mesh.triangles[5]
    hinge = tri[mesh.collar_node_mask[tri]]
    assert len(hinge) == 1
    diff = fields[1].values - fields[0].values
    rel = mesh.nodes[tri] - mesh.nodes[hinge]
    turn = np.column_stack([-rel[:, 1], rel[:, 0]])
    omega = float((turn * diff[tri]).sum() / (turn * turn).sum())
    assert abs(omega) > 0.1
    assert np.abs(diff[tri] - omega * turn).max() < 1e-12
    diff[tri] = 0.0
    assert not diff.any()


def _null_dim(mesh, active, pinned):
    """Null-space dimension of the dense stiffness on the unpinned dofs of
    the weighted active triangles."""
    dense = coo_stiffness(mesh, active, MaterialModel())[0].toarray()
    free = (np.diag(dense) > 0.0) & np.repeat(~pinned, 2)
    lam = np.linalg.eigvalsh(dense[np.ix_(free, free)])
    return int((lam <= 1e-9 * max(lam.max(), 1.0)).sum()) if len(lam) else 0


def test_gauge_count_is_null_space_dimension(mesh16):
    cases = [(strip_mesh(4), [5]), (strip_mesh(4), [2, 5]),
             (strip_mesh(6), np.arange(12)),
             (mesh16, _island_active(mesh16))]
    c = mesh16.nodes[mesh16.triangles].mean(axis=1)
    r = np.hypot(c[:, 0] - 0.5, c[:, 1] - 0.5)
    for width in (0.05, 0.08):  # an island hinged on the ring, a free one
        cases.append((mesh16, np.flatnonzero(np.abs(r - 0.2) >= width)))
    rng = np.random.default_rng(0)
    for frac in (0.6, 0.7, 0.8):
        keep = rng.random(mesh16.n_triangles) >= frac
        cases.append((mesh16, np.flatnonzero(keep)))
    dims = []
    for mesh, active in cases:
        _, ids = coo_stiffness(mesh, active, MaterialModel())
        pinned = mesh.collar_node_mask
        dims.append(_null_dim(mesh, active, pinned))
        assert len(solver._gauge_pins(mesh, ids, pinned)) == dims[-1]
    # the cases cover no motion, hinges, floating pieces and many pieces
    assert 0 in dims and 1 in dims and 3 in dims and max(dims) > 6


# the set-up of a system from its window

CRACK = ("eps = {eps}\nn_steps = {n_steps}\namplitude = 3.2\nload = opening\n"
         "precrack = 0.0 0.5 0.45 0.5 0.06\nseed = 1\nmulti_starts = 3\n")


class _Recording:
    """A factor that keeps the right-hand side it is asked to solve."""

    def __init__(self, factor):
        self.factor, self.rhs = factor, None

    def solve(self, b):
        self.rhs = b.copy()
        return self.factor.solve(b)


def _check_setup(mesh, active_ids, bc, mat, pins=None):
    """Solve the system, then check its gauge dofs, free dofs, right-hand
    side and bands bitwise against the whole-set oracles.  Returns the
    number of gauge dofs and whether the inactive set has a hole."""
    u = solve_elastic(mesh, active_ids, bc, mat, extra_pinned_nodes=pins)
    slot = mesh.factor_slot
    ref, active = slot.reference, slot.active
    elements = ref.elements
    pinned = mesh.collar_node_mask.copy()
    if pins is not None:
        pinned[pins] = True
    gauge, free, rhs = whole_set_setup(mesh, elements, active, pinned,
                                       bc.values)
    got = solver._gauge(mesh, elements, active, np.flatnonzero(~active),
                        pinned)
    assert got.dtype == gauge.dtype and np.array_equal(got, gauge)
    assert np.array_equal(solver._free_dofs(mesh, elements, active, pinned),
                          free)
    order = mesh.band_order
    assert np.array_equal(slot.free_idx, order[free[order]])
    recording = _Recording(slot.factor)
    again = solver._direct_solve(mesh, slot._replace(factor=recording), bc)
    assert recording.rhs.tobytes() == rhs.tobytes()
    assert again.values.tobytes() == u.values.tobytes()
    factor = slot.factor
    for dofs in (slot.free_idx[factor.s:factor.s + factor.rows],
                 ref.free_idx[:ref.m + ref.kd]):
        band = solver.assemble_stiffness(elements, active, dofs, ref.kd)
        want = band_by_scan(elements, active, dofs, ref.kd)
        assert band.shape == want.shape
        assert band.tobytes() == want.tobytes()
    holes = TriangleSet(mesh, elements.ids[~active]).n_holes
    return len(gauge), holes > 0


@pytest.mark.parametrize("eps,n_steps", [(1 / 32, 8), (1 / 64, 16)])
def test_crack_ladder_systems_set_up_as_whole_set(monkeypatch, eps,
                                                  n_steps):
    # every system of a crack ladder level: its pins, free dofs,
    # right-hand side and bands are bitwise those built from every
    # weighted triangle
    cfg = parse_config(CRACK.format(eps=eps, n_steps=n_steps))
    calls = []
    real = solver.solve_elastic

    def recording(mesh, active, bc, material, extra_pinned_nodes=None):
        calls.append((mesh, np.array(active), bc, material))
        return real(mesh, active, bc, material, extra_pinned_nodes)

    monkeypatch.setattr(solver, "solve_elastic", recording)
    assert not run_from_config(cfg).aborted
    monkeypatch.setattr(solver, "solve_elastic", real)
    mesh = calls[0][0]
    seen, holed = set(), 0
    for call_mesh, active, bc, mat in calls:
        assert call_mesh is mesh
        key = active.tobytes()
        if key not in seen:
            seen.add(key)
            holed += _check_setup(mesh, active, bc, mat)[1]
    # the rim condition holds, so only the holes' triangles were gauged
    assert mesh.factor_slot.reference.elements.rim_held
    assert len(seen) > 10 and holed


def _ring_ids(mesh, r0, width):
    c = mesh.nodes[mesh.triangles].mean(axis=1)
    r = np.hypot(c[:, 0] - 0.5, c[:, 1] - 0.5)
    return np.flatnonzero(np.abs(r - r0) < width)


def _setup_cases(mesh16, mesh32):
    """(name, mesh, active ids, extra pins) of systems with hinges,
    floating pieces, islands and random frozen sets."""
    allt32 = np.arange(mesh32.n_triangles)
    c = mesh32.nodes[mesh32.triangles].mean(axis=1)
    cases = [("hinged", strip_mesh(4), np.array([5]), None),
             ("hinged-pair", strip_mesh(4), np.array([2, 5]), None),
             ("floating", mesh32,
              np.setdiff1d(allt32, _ring_ids(mesh32, 0.2, 0.05)), None),
             ("ring-pinned", mesh32,
              np.setdiff1d(allt32, _ring_ids(mesh32, 0.2, 0.05)),
              np.unique(mesh32.triangles[_ring_ids(mesh32, 0.35, 0.02)])),
             ("band", mesh32,
              np.flatnonzero(np.abs(c[:, 1] - 0.5) >= 0.04), None)]
    for mesh in (mesh16, mesh32):
        cases.append(("island", mesh, _island_active(mesh), None))
        for width in (0.05, 0.08):  # an island hinged on the ring, a free one
            cases.append(("ring", mesh, np.setdiff1d(
                np.arange(mesh.n_triangles), _ring_ids(mesh, 0.2, width)),
                None))
        rng = np.random.default_rng(7)
        for frac in (0.1, 0.2, 0.3):
            keep = rng.random(mesh.n_triangles) >= frac
            cases.append(("random", mesh, np.flatnonzero(keep), None))
    return cases


def test_hand_built_systems_set_up_as_whole_set(mesh16, mesh32):
    # hinged triangles on a strip (whose plate touches the rim, so every
    # active triangle is gauged), floating and hinged islands in frozen
    # rings, a vertex-attached island, a band that cuts the plate in two,
    # and random frozen sets, under two elasticities
    gauged, holed = set(), set()
    for mat in (MaterialModel(), MaterialModel(elasticity=SPD_ELASTICITY)):
        for name, mesh, active, pins in _setup_cases(mesh16, mesh32):
            mesh.factor_slot = None
            bc = interpolate(mesh, AffineLoad(0.3, -0.1, 0.2, 0.4), 1.0)
            pins_held, hole = _check_setup(mesh, active, bc, mat, pins)
            assert mesh.factor_slot.reference.elements.rim_held is \
                (not name.startswith("hinged"))
            if pins_held:
                gauged.add(name)
            if hole:
                holed.add(name)
            mesh.factor_slot = None
    assert {"hinged", "floating", "ring"} <= gauged
    assert "band" not in holed and "island" in holed
    assert {"floating", "ring", "random"} <= holed


def test_system_labels_in_proportion_to_its_frozen_set(monkeypatch):
    # after the intact reference, no system labels more graph nodes than
    # four times its frozen weighted triangles plus their vertices
    cfg = parse_config(CRACK.format(eps=1 / 64, n_steps=6))
    labelled = []
    real_labels = trisets.component_labels

    def counting(n, edges):
        labelled.append(n)
        return real_labels(n, edges)

    for module in (trisets, solver, voidmod):
        monkeypatch.setattr(module, "component_labels", counting)
    real = solver.solve_elastic
    sizes = []

    def solve(mesh, active, bc, material, extra_pinned_nodes=None):
        before = mesh.factor_slot
        del labelled[:]
        u = real(mesh, active, bc, material, extra_pinned_nodes)
        if before is not None and \
                before.reference is mesh.factor_slot.reference:
            mask = np.zeros(mesh.n_triangles, dtype=bool)
            mask[active] = True
            frozen = np.flatnonzero((mesh.area_in_omega > 0.0) & ~mask)
            bound = 4 * (len(frozen)
                         + len(np.unique(mesh.triangles[frozen])))
            sizes.append((sum(labelled), bound,
                          TriangleSet(mesh, frozen).n_holes))
        return u

    monkeypatch.setattr(solver, "solve_elastic", solve)
    assert not run_from_config(cfg).aborted
    assert len(sizes) > 20 and any(holes for _, _, holes in sizes)
    assert all(n <= bound for n, bound, _ in sizes), sizes


def test_greedy_ladder_ranks_by_density(monkeypatch):
    # with a coupled elasticity the ladder's first starts crack the fresh
    # triangles of the elastic solve in the order of C e:e, as the crack
    # rule ranks them, not of |e|^2
    cfg = parse_config(CRACK.format(eps=1 / 32, n_steps=8)
                       + "elasticity = 2 0.5 0 0.5 1 0.3 0 0.3 1.5\n")
    mesh = make_mesh(1 / 32)
    mat = cfg.material()
    hist = np.sort(cfg.precrack_ids(mesh))
    bc = interpolate(mesh, cfg.load(), 1.0)
    u = solve_elastic(mesh, np.setdiff1d(np.arange(mesh.n_triangles), hist),
                      bc, mat)
    s = classify_cracked(mesh, _density(u.strains(), mat), hist, mat)
    fresh = np.setdiff1d(s.ids, hist)
    density = density_by_loop(u.strains()[fresh], mat.elasticity)
    order = fresh[np.argsort(-density, kind="stable")]
    assert order[:4].tolist() == [1234, 1120, 1123, 1188]
    plain = (u.strains()[fresh] ** 2).sum(axis=1)
    assert fresh[np.argmax(plain)] != order[0]
    tried = []
    real = solver._FrozenSolves.candidate

    def candidate(self, s_ids):
        tried.append(np.setdiff1d(s_ids, hist).tolist())
        return real(self, s_ids)

    opts = cfg.solve_options()
    assert opts.multi_starts == 3
    monkeypatch.setattr(solver._FrozenSolves, "candidate", candidate)
    minimize_step(mesh, hist, bc, mat, opts)
    # the two ladder starts are the only sets with one or two fresh ids
    assert [t for t in tried if len(t) in (1, 2)] == \
        [[int(order[0])], sorted(order[:2].tolist())]


# the assembly

SPD_ELASTICITY = np.array([[2.0, 0.6, 0.1], [0.6, 1.5, 0.2], [0.1, 0.2, 1.1]])


@pytest.mark.parametrize("mesh_name", ["mesh16", "strip"])
def test_band_matches_loop_oracle(request, mesh_name):
    # assemble_stiffness sums the reference's blocks into band storage one
    # triangle at a time in id order, bitwise as the loop oracle does, on
    # band orders, windows and an order that is not a band order; its band,
    # diagonal and block product agree with SciPy's COO assembly
    mesh = strip_mesh(6) if mesh_name == "strip" else \
        request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(3)
    weighted = mesh.area_in_omega > 0.0
    masks = [np.zeros(mesh.n_triangles, dtype=bool),
             np.ones(mesh.n_triangles, dtype=bool)]
    masks += [rng.random(mesh.n_triangles) >= frac for frac in (0.1, 0.5, 0.9)]
    order = mesh.band_order
    n = len(order)
    orders = [(order, 0), (order[n // 3:2 * n // 3], 60),
              (order[n // 2:][::-1], 0), (rng.permutation(order), 0)]
    for mat in (MaterialModel(), MaterialModel(elasticity=SPD_ELASTICITY)):
        elements = solver._intact_reference(mesh, mat).elements
        for mask in masks:
            active = mask[weighted]
            k = coo_stiffness(mesh, np.flatnonzero(mask), mat)[0]
            for dofs, kd in orders:
                band = solver.assemble_stiffness(elements, active, dofs, kd)
                assert band.flags.f_contiguous
                want = band_by_loop(elements, active, dofs, kd)
                assert band.shape == want.shape
                assert band.tobytes() == want.tobytes()
                ref = k[dofs][:, dofs].toarray()
                scale = np.abs(ref).max(initial=1.0)
                assert np.abs(np.triu(dense_of_band(band) - ref)).max(
                    initial=0.0) <= 1e-14 * scale
            x = rng.standard_normal(2 * mesh.n_nodes)
            bound = (abs(k) @ np.abs(x)).max(initial=0.0)
            assert np.abs(elements.product(active, x) - k @ x).max() <= \
                1e-14 * bound
            diag, want = elements.diagonal(active), k.diagonal()
            assert np.array_equal(diag > 0.0, want > 0.0)
            assert np.abs(diag - want).max() <= \
                1e-14 * np.abs(want).max(initial=1.0)


def _assembly_cases(mesh16):
    """(mesh, active ids): random sets at eps 1/16 and 1/64, every triangle,
    the empty set, and criterion 7's strips."""
    rng = np.random.default_rng(3)
    cases = []
    for mesh in (mesh16, make_mesh(1 / 64)):
        for frac in (0.1, 0.5, 0.9):
            keep = rng.random(mesh.n_triangles) >= frac
            cases.append((mesh, rng.permutation(np.flatnonzero(keep))))
        cases += [(mesh, np.arange(mesh.n_triangles)),
                  (mesh, np.empty(0, dtype=np.int64))]
    for n_cells in (4, 6):
        strip = strip_mesh(n_cells)
        cases += [(strip, np.arange(strip.n_triangles)), (strip, [5]),
                  (strip, [2, 5]), (strip, [0, 3, 4, 7])]
    return cases


def _upper_band_of_sparse(k, kd):
    """Upper band storage, half-bandwidth kd, of the SciPy matrix k, whose
    upper triangle must lie within it."""
    k = k.tocoo()
    upper = k.row <= k.col
    i, j = k.row[upper], k.col[upper]
    assert (j - i).max(initial=0) <= kd
    band = np.zeros((kd + 1, k.shape[0]), order="F")
    band[kd + i - j, j] = k.data[upper]
    return band


def test_assemble_matches_coo_oracle(mesh16):
    # the band of the active set on the mesh's band order is SciPy's COO to
    # CSR result renumbered, its upper triangle to roundoff, on one mesh
    # with the material alternating; the blocks' product and diagonal are
    # SciPy's to roundoff
    materials = (MaterialModel(), MaterialModel(elasticity=SPD_ELASTICITY))
    references = {}
    for mesh, active in _assembly_cases(mesh16):
        weighted = np.flatnonzero(mesh.area_in_omega > 0.0)
        mask = np.isin(weighted, active)
        order = mesh.band_order
        for mat in materials + materials:
            key = (id(mesh), mat.elasticity.tobytes())
            if key not in references:
                references[key] = solver._intact_reference(mesh, mat).elements
            elements = references[key]
            ref, ref_ids = coo_stiffness(mesh, active, mat)
            assert np.array_equal(weighted[mask], np.sort(ref_ids))
            band = solver.assemble_stiffness(elements, mask, order, 0)
            assert band.flags.f_contiguous
            assert band.shape[1] == ref.shape[0]
            want = _upper_band_of_sparse(ref[order][:, order],
                                         band.shape[0] - 1)
            scale = np.abs(ref.data).max(initial=1.0)
            assert np.abs(band - want).max(initial=0.0) <= 1e-14 * scale
            x = np.random.default_rng(len(ref_ids)).standard_normal(
                ref.shape[0])
            bound = (abs(ref) @ np.abs(x)).max(initial=0.0)
            assert np.abs(elements.product(mask, x) - ref @ x).max(
                initial=0.0) <= 1e-14 * bound
            diag, want = elements.diagonal(mask), ref.diagonal()
            assert np.array_equal(diag > 0.0, want > 0.0)
            assert np.abs(diag - want).max(initial=0.0) <= 1e-14 * scale


def test_band_block_is_scipy_submatrix(mesh16):
    # the band on any subset of the band order, forwards or reversed, is
    # the SciPy submatrix on those dofs, its half-bandwidth the block's own
    mat = MaterialModel(elasticity=SPD_ELASTICITY)
    elements = solver._intact_reference(mesh16, mat).elements
    everything = np.ones(len(elements.dofs), dtype=bool)
    k = coo_stiffness(mesh16, np.arange(mesh16.n_triangles), mat)[0]
    rng = np.random.default_rng(4)
    order = mesh16.band_order
    for keep in (rng.random(k.shape[0]) >= 0.2, np.zeros(k.shape[0], bool),
                 np.ones(k.shape[0], bool)):
        for dofs in (order[keep[order]], order[keep[order]][::-1]):
            band = solver.assemble_stiffness(elements, everything, dofs, 0)
            assert band.flags.f_contiguous
            ref = k[dofs][:, dofs].toarray()
            dense = dense_of_band(band)
            scale = np.abs(ref).max(initial=1.0)
            assert np.abs(dense - ref).max(initial=0.0) <= 1e-14 * scale
            rows, cols = np.nonzero(ref)
            assert band.shape[0] == (cols - rows).max(initial=0) + 1


def _mesh_half_bandwidth(mesh):
    """The widest span of band rows among the dofs of a weighted
    triangle."""
    row = np.argsort(mesh.band_order)
    tris = mesh.triangles[mesh.area_in_omega > 0.0]
    rows = row[2 * tris[:, :, None] + np.arange(2)].reshape(len(tris), 6)
    return int((rows.max(axis=1) - rows.min(axis=1)).max())


@pytest.mark.parametrize("width,height", [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0)])
def test_band_order_follows_short_side(width, height):
    # nodes are swept along the long side, so the band spans one row across
    # the short side: node (i, j) touches (i + 1, j + 1) at most, which is
    # 2 (nodes per row + 1) + 1 dofs further on
    mesh = make_mesh(1 / 16, domain=Domain(
        (0.0, 0.0, width, height), (-0.25, -0.25, width + 0.25, height + 0.25)))
    nx, ny = mesh.grid_shape[:2]
    short = min(nx, ny) + 1
    assert _mesh_half_bandwidth(mesh) == 2 * (short + 1) + 1
    assert sorted(mesh.band_order) == list(range(2 * mesh.n_nodes))
    if nx <= ny:
        # the node numbering itself
        assert np.array_equal(mesh.band_order, np.arange(2 * mesh.n_nodes))
    else:
        assert 2 * (nx + 2) + 1 > _mesh_half_bandwidth(mesh)


# the factorization

def _dense_oracle(mesh, active, mat=None, pins=None):
    """The kept factor of the system solved with `active` and `pins`,
    checked against a dense solve of the whole reduced system: its free
    dofs are the system's own in band order, and it solves as the dense
    matrix does."""
    if mat is None:
        mat = MaterialModel()
    _solve(mesh, active, LOADS[0], mat, pins)
    slot = mesh.factor_slot
    dofs = slot.free_idx
    pinned = mesh.collar_node_mask.copy()
    if pins is not None:
        pinned[pins] = True
    k, asm_ids = coo_stiffness(mesh, np.unique(active), mat)
    free = np.repeat(~pinned, 2) & (k.diagonal() > 0.0)
    free[solver._gauge_pins(mesh, asm_ids, pinned)] = False
    order = mesh.band_order
    assert np.array_equal(dofs, order[free[order]])
    kff = k[dofs][:, dofs].toarray()
    rhs = np.random.default_rng(1).standard_normal(len(dofs))
    ref = np.linalg.solve(kff, rhs)
    err = np.linalg.norm(slot.factor.solve(rhs) - ref) / np.linalg.norm(ref)
    assert err <= 1e-12
    return slot.factor


def test_factor_matches_dense_solve():
    # the factor of a system of the eps 1/32 crack run solves as a dense
    # solve of its whole reduced system does; only a window of it is
    # factored, no wider than the mesh's band
    cfg = parse_config("eps = 0.03125\nload = opening\n"
                       "precrack = 0.0 0.5 0.45 0.5 0.06\n")
    mesh = make_mesh(1 / 32)
    active = np.setdiff1d(np.arange(mesh.n_triangles), cfg.precrack_ids(mesh))
    factor = _dense_oracle(mesh, active)
    ref = factor.ref
    assert factor.window.u.shape[0] - 1 == ref.kd <= \
        _mesh_half_bandwidth(mesh)
    assert 0 < factor.s <= ref.m <= factor.t < len(ref.free_idx)
    assert factor.rows < len(ref.free_idx) / 2


def test_intact_system_factor():
    # the intact system (every triangle active, no extra pins) differs from
    # its reference nowhere: its window is kd rows next to the middle row
    mesh = make_mesh(1 / 32)
    factor = _dense_oracle(mesh, np.arange(mesh.n_triangles))
    ref = factor.ref
    assert (factor.s, factor.t) == (ref.m - ref.kd, ref.m)
    assert factor.rows == ref.kd
    assert ref.top.shape == (ref.kd + 1, ref.m + ref.kd)
    assert ref.bottom.shape == (ref.kd + 1, len(ref.free_idx) - ref.m
                                + ref.kd)


def _node_at(mesh, x, y):
    return int(np.argmin(np.hypot(mesh.nodes[:, 0] - x, mesh.nodes[:, 1] - y)))


def _box_ids(mesh, x0, x1, y0, y1):
    """Ids of the triangles whose centroid lies in [x0, x1] x [y0, y1]."""
    c = mesh.nodes[mesh.triangles].mean(axis=1)
    return np.flatnonzero((c[:, 0] >= x0) & (c[:, 0] <= x1)
                          & (c[:, 1] >= y0) & (c[:, 1] <= y1))


def _window_case(mesh, case):
    """(active ids, extra pinned nodes) of a system whose window lies where
    `case` says (band rows run up the plate)."""
    allt = np.arange(mesh.n_triangles)
    if case == "top":
        return np.setdiff1d(allt, _box_ids(mesh, 0.3, 0.7, 0.1, 0.2)), None
    if case == "bottom":
        return np.setdiff1d(allt, _box_ids(mesh, 0.3, 0.7, 0.8, 0.9)), None
    if case == "middle":
        return np.setdiff1d(allt, _box_ids(mesh, 0.2, 0.8, 0.4, 0.6)), None
    if case == "narrow":
        return allt, [_node_at(mesh, 0.5, 0.5)]
    if case == "whole":
        # the triangles of the first and the last reference row's nodes
        ref = mesh.factor_slot.reference
        ends = ref.free_idx[[0, -1]] // 2
        return np.setdiff1d(allt, np.flatnonzero(
            np.isin(mesh.triangles, ends).any(axis=1))), None
    if case == "dropped":
        node = _node_at(mesh, 0.5, 0.5)
        return np.setdiff1d(allt, np.flatnonzero(
            (mesh.triangles == node).any(axis=1))), None
    if case == "gauge":
        # a floating island inside a frozen ring
        ring = np.setdiff1d(_box_ids(mesh, 0.3, 0.7, 0.3, 0.7),
                            _box_ids(mesh, 0.42, 0.58, 0.42, 0.58))
        return np.setdiff1d(allt, ring), None
    assert case == "pins"
    return allt, np.unique(mesh.triangles[_box_ids(mesh, 0.2, 0.8, 0.3,
                                                   0.35)])


@pytest.mark.parametrize("case", ["top", "bottom", "middle", "narrow",
                                  "whole", "dropped", "gauge", "pins"])
def test_window_factor_matches_dense_solve(case):
    mesh = make_mesh(1 / 32)
    _solve(mesh, np.arange(mesh.n_triangles), LOADS[0], MaterialModel())
    active, pins = _window_case(mesh, case)
    factor = _dense_oracle(mesh, active, pins=pins)
    ref = factor.ref
    n, m, kd, s, t = len(ref.free_idx), ref.m, ref.kd, factor.s, factor.t
    assert s <= m <= t and t - s >= kd
    if case == "top":
        assert s < m - kd and t == m
    elif case == "bottom":
        assert s == m and t > m + kd
    elif case == "middle":
        assert s < m < t and t - s < n / 2
    elif case == "narrow":
        assert t - s == kd
    elif case == "whole":
        assert (s, t) == (0, n)
    elif case == "gauge":
        assert 0 < len(solver._gauge_pins(
            mesh, np.sort(active), mesh.collar_node_mask))


def test_window_whole_band_when_system_frees_intact_gauge_dof():
    # a collar narrower than one cell holds no collar triangle, so the
    # intact system floats and is gauged; pinning two nodes frees its gauge
    # dofs, and such a system is factored as a whole band
    mesh = make_mesh(1 / 8, domain=Domain((0.0, 0.0, 1.0, 1.0),
                                          (-0.01, -0.01, 1.01, 1.01)))
    allt = np.arange(mesh.n_triangles)
    _solve(mesh, allt, LOADS[0], MaterialModel())
    ref = mesh.factor_slot.reference
    assert len(ref.free_idx) == 2 * mesh.n_nodes - 3
    pins = [_node_at(mesh, 0.0, 0.0), _node_at(mesh, 1.0, 1.0)]
    factor = _dense_oracle(mesh, allt, pins=pins)
    assert (factor.s, factor.t) == (0, len(ref.free_idx))
    assert factor.rows == 2 * mesh.n_nodes - 4


def test_factor_depends_only_on_its_system():
    # solving the same systems in two orders, on fresh meshes, gives
    # bitwise the same fields: no factor depends on what came before
    cases = ["top", "gauge", "pins", "bottom", "middle"]

    def fields(order):
        mesh = make_mesh(1 / 32)
        out = {}
        for case in order:
            active, pins = _window_case(mesh, case)
            out[case] = _solve(mesh, active, LOADS[1], MaterialModel(),
                               pins).values.tobytes()
        return out

    assert fields(cases) == fields(cases[::-1])


def test_lapack_holds_bundled_openblas_to_one_thread():
    # loading the extension pins SciPy's own OpenBLAS, whatever thread
    # count the environment asks for
    import scipy
    libs = glob.glob(os.path.join(os.path.dirname(scipy.__path__[0]),
                                  "scipy.libs", "libscipy_openblas*.so"))
    if not libs:
        pytest.skip("SciPy bundles no OpenBLAS")
    code = ("import ctypes, sys\n"
            "from quasifrac import solver\n"
            "lib = ctypes.CDLL(sys.argv[1])\n"
            "count = lib.scipy_openblas_get_num_threads\n"
            "count.restype = ctypes.c_int\n"
            "before = count()\n"
            "solver._lapack()\n"
            "print(before, count())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code, libs[0]],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2", "1"]


@pytest.mark.parametrize("matrix", [[[1.0, 1.0], [1.0, 1.0]],
                                    [[0.0, 0.0], [0.0, 0.0]]],
                         ids=["rank1", "zero"])
def test_factor_singular_raises(matrix):
    with pytest.raises(solver.SingularSystem):
        solver._factor(band_of_dense(matrix))


def test_rank_ties_on_values_not_bytes(mesh16):
    # 1.0 against 2.0 (and -0.0 against 0.0): the bytes of the doubles sort
    # the other way round, the values decide
    class Report:
        total = 0.5
        cracked_area = 0.0

    def cand(first):
        values = np.zeros((mesh16.n_nodes, 2))
        values[0, 0] = first
        return DisplacementField(mesh16, values), Report(), None

    one, two = cand(1.0), cand(2.0)
    assert one[0].values.tobytes() > two[0].values.tobytes()
    assert solver._better(one, two) and not solver._better(two, one)
    neg, pos = cand(-0.0), cand(0.0)
    assert neg[0].values.tobytes() > pos[0].values.tobytes()
    assert not solver._better(neg, pos) and not solver._better(pos, neg)
