import math

import numpy as np
import pytest

from quasifrac import solver
from quasifrac.energy import (
    CrackHistory,
    MaterialModel,
    choose_crack_set,
    classify_cracked,
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
from quasifrac.trisets import TriangleSet
from conftest import AffineLoad, block_ids, make_mesh
from _oracles import kkt_residual


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
    u = solve_elastic(mesh16, TriangleSet(mesh16, np.arange(mesh16.n_triangles)),
                      bc, mat, SolveOptions())
    assert np.abs(u.values).max() == 0.0


def test_solve_elastic_affine_with_fringe_pinned(mesh16):
    # with the softer partially weighted fringe pinned, P1 reproduces the
    # affine field exactly and the reduced gradient vanishes
    mat = MaterialModel()
    bc = interpolate(mesh16, AffineLoad(0.2, 0.05, 0.0, -0.3), 1.0)
    allt = TriangleSet(mesh16, np.arange(mesh16.n_triangles))
    extra = _fringe_nodes(mesh16)
    u = solve_elastic(mesh16, allt, bc, mat, SolveOptions(), extra_pinned_nodes=extra)
    assert np.abs(u.values - bc.values).max() < 1e-10
    assert kkt_residual(mesh16, allt, u, mat, extra_pinned_nodes=extra) < 1e-10


def test_solve_elastic_relaxed_is_optimal(mesh16):
    # with only the collar pinned the fringe relaxes; the result must be
    # stationary and no worse than the affine competitor
    mat = MaterialModel()
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 0.5), 1.0)
    allt = TriangleSet(mesh16, np.arange(mesh16.n_triangles))
    opts = SolveOptions()
    u = solve_elastic(mesh16, allt, bc, mat, opts)
    assert kkt_residual(mesh16, allt, u, mat) < 50 * opts.cg_rel_tol
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
    allt = TriangleSet(mesh, np.arange(mesh.n_triangles))
    extra = _fringe_nodes(mesh)
    u = solve_elastic(mesh, allt, bc, mat, SolveOptions(),
                      extra_pinned_nodes=extra)
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
    u = solve_elastic(mesh32, active, bc, mat, SolveOptions())
    s = u.strains()
    assert np.abs(s[island]).max() < 1e-8


def test_minimize_step_subcritical_fixed_point(mesh16):
    params = mesh16.params
    mat = MaterialModel(kappa=1.0)
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 0.3), 1.0)
    res = minimize_step(mesh16, CrackHistory(), bc, mat, params,
                        SolveOptions(multi_starts=2))
    assert res.converged
    assert len(res.cracked_now) == 0
    # fixed-point self-consistency
    cls = classify_cracked(mesh16, res.u, mat, params)
    assert set(cls.ids) <= set(res.cracked_now.ids)


def test_minimize_step_full_history(mesh16):
    params = mesh16.params
    mat = MaterialModel(kappa=1.0)
    hist = CrackHistory()
    hist.add_step(TriangleSet(mesh16, np.arange(mesh16.n_triangles)))
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 0.3), 1.0)
    res = minimize_step(mesh16, hist, bc, mat, params, SolveOptions(multi_starts=2))
    assert res.energy.elastic_part == pytest.approx(0.0, abs=1e-12)
    prime = float(mesh16.area_in_omega_prime.sum())
    assert res.energy.crack_part == pytest.approx(prime / params.eps, rel=1e-12)


def test_minimize_step_energy_history_monotone(mesh16):
    # recorded outer-iteration energies of the winning start never increase
    params = mesh16.params
    mat = MaterialModel(kappa=1.0)
    bc = interpolate(mesh16, AffineLoad(0.0, 0.0, 0.0, 1.8), 1.0)
    res = minimize_step(mesh16, CrackHistory(), bc, mat, params,
                        SolveOptions(multi_starts=4, seed=2))
    e = res.energy_history
    for a, b in zip(e, e[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))
    # the solver's crack choice for the result adds nothing outside
    # cracked_now (plain classification may also mark saturated fringe
    # triangles whose cracking would raise the energy)
    cls = choose_crack_set(mesh16, res.u, np.empty(0, dtype=np.int64), mat,
                           params)
    assert set(cls.ids) <= set(res.cracked_now.ids)


def test_minimize_step_matches_oracle_small():
    from _oracles import exhaustive_minimum
    mesh = strip_mesh(n_cells=4)
    params = mesh.params
    mat = MaterialModel(kappa=1.0)
    opts = SolveOptions(multi_starts=8, seed=3)
    for amp in (0.6, 1.5, 3.0):
        g = AffineLoad(a11=amp)
        bc = interpolate(mesh, g, 1.0)
        res = minimize_step(mesh, CrackHistory(), bc, mat, params, opts)
        e_oracle = exhaustive_minimum(mesh, bc, np.empty(0, dtype=np.int64),
                                      mat, params, opts)
        assert res.energy.total == pytest.approx(e_oracle, abs=1e-9)


# factor reuse on the eps 1/64 mesh, whose free dofs take the LU path

LOADS = (AffineLoad(0.0, 0.0, 0.0, 0.4), AffineLoad(0.1, 0.2, 0.0, 0.3))


def _solve(mesh, active, g, mat, pins=None):
    return solve_elastic(mesh, active, interpolate(mesh, g, 1.0), mat,
                         SolveOptions(), extra_pinned_nodes=pins)


def _fresh_values(active, g, mat, pins=None):
    """Solution bytes of the same solve on a newly built mesh."""
    return _solve(make_mesh(1 / 64), active, g, mat, pins).values.tobytes()


def test_solve_elastic_reuses_factor_bitwise(counted_splu):
    mesh = make_mesh(1 / 64)
    mat = MaterialModel()
    active = np.setdiff1d(np.arange(mesh.n_triangles),
                          block_ids(mesh, 30, 34, 33, 35))
    out = [_solve(mesh, active, g, mat).values.tobytes()
           for g in LOADS + LOADS]
    # the first solve keeps no factor, its repeat keeps one, the rest reuse it
    assert len(counted_splu) == 2
    assert mesh.factor_slot[1] is not None
    for g, values in zip(LOADS + LOADS, out):
        assert values == _fresh_values(active, g, mat)


@pytest.mark.parametrize("change", ["active", "pins", "material"])
def test_solve_elastic_changed_system_drops_factor(change):
    mesh = make_mesh(1 / 64)
    mat = MaterialModel()
    active = np.setdiff1d(np.arange(mesh.n_triangles),
                          block_ids(mesh, 30, 34, 33, 35))
    for g in LOADS:
        _solve(mesh, active, g, mat)
    assert mesh.factor_slot[1] is not None
    pins = None
    if change == "active":
        active = np.setdiff1d(active, block_ids(mesh, 34, 35, 33, 35))
    elif change == "pins":
        pins = mesh.triangles[block_ids(mesh, 40, 41, 20, 21)].ravel()
    else:
        mat = MaterialModel(elasticity=np.diag([2.0, 1.0, 1.0]))
    u = _solve(mesh, active, LOADS[0], mat, pins)
    assert mesh.factor_slot[1] is None
    assert u.values.tobytes() == _fresh_values(active, LOADS[0], mat, pins)


# the per-step solve memo

@pytest.mark.parametrize("eps, lu", [(1 / 16, False), (1 / 64, True)])
def test_frozen_solves_memo_keys_copied_dofs(monkeypatch, eps, lu):
    # freezing every triangle around an interior node leaves it in no
    # weighted triangle, so the solve copies its initial value; a new
    # value there must be solved again, and the result equals a fresh solve
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
    solves = solver._FrozenSolves(mesh, bc, np.empty(0, dtype=np.int64), mat,
                                  mesh.params, SolveOptions())
    first, _ = solves.candidate(frozen, None)
    assert len(calls) == 1
    x_node = bc.values.ravel().copy()
    x_node[2 * node] += 0.25
    moved, strains = solves.candidate(frozen, x_node)
    assert strains is not None and len(calls) == 2
    assert moved[0].values[node, 0] == x_node[2 * node]
    assert solves.candidate(frozen, x_node.copy())[0] is moved
    assert len(calls) == 2

    # a touched free dof is computed on the LU path, so a new initial
    # value there is served from the memo; CG warm-starts from it
    other = int(np.setdiff1d(mesh.triangles[frozen], [node])[0])
    x_other = x_node.copy()
    x_other[2 * other + 1] += 0.25
    served, _ = solves.candidate(frozen, x_other)
    assert (served is moved) == lu
    assert len(calls) == (2 if lu else 3)

    active = np.setdiff1d(np.arange(mesh.n_triangles), frozen)
    for cand, x0 in ((first, None), (moved, x_node), (served, x_other)):
        new = make_mesh(eps)
        fresh = real(new, active, interpolate(new, g, 1.0), mat,
                     SolveOptions(), x0=x0)
        assert cand[0].values.tobytes() == fresh.values.tobytes()
