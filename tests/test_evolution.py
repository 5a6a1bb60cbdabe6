import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasifrac import evolution, solver
from quasifrac.config import load_config, parse_config
from quasifrac.diagnostics import stability_spot_check
from quasifrac.energy import MaterialModel
from quasifrac.evolution import LoadProgram, eta_schedule, run_evolution
from quasifrac.mesh import MeshParams
from quasifrac.runner import run_from_config
from quasifrac.solver import SolveOptions
from quasifrac.voidmod import VoidModParams
from conftest import STD_DOMAIN


def test_eta_schedule():
    assert eta_schedule(1 / 16) == pytest.approx(0.2)
    assert eta_schedule(math.exp(-10.0)) == pytest.approx(0.1)
    vals = [eta_schedule(2.0 ** -k) for k in range(2, 20)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        eta_schedule(0.0)


def test_load_program_presets():
    load = LoadProgram(kind="stretch", amplitude=2.0, t_end=1.0, n_steps=4)
    pts = np.array([[0.0, 1.0], [1.0, 0.5]])
    vals = load.eval(0.5, pts)
    assert np.allclose(vals, [[0.0, 1.0], [0.0, 0.5]])
    assert np.allclose(load.dt_matrix(0.3), [[0.0, 0.0], [0.0, 2.0]])
    shear = LoadProgram(kind="shear", amplitude=1.0)
    assert np.allclose(shear.eval(1.0, pts), [[1.0, 0.0], [0.5, 0.0]])
    e = shear.dt_strain_mandel(0.0)
    assert e[2] == pytest.approx(math.sqrt(2.0) * 0.5)


def test_zero_load_trace():
    params = MeshParams(theta0=math.pi / 4, eps=1 / 16)
    load = LoadProgram(kind="stretch", amplitude=0.0, n_steps=3)
    trace = run_evolution(STD_DOMAIN, params, MaterialModel(), load,
                          VoidModParams(eta=0.2), SolveOptions(multi_starts=2))
    assert not trace.aborted
    for rec in trace.steps:
        assert rec.energy.total == 0.0
        assert len(rec.accum_ids) == 0
        assert rec.kn_length_raw == 0.0
    with pytest.raises(ValueError):
        run_evolution(STD_DOMAIN, params, MaterialModel(), load, snap=True)


def test_subcritical_matches_pure_elastic():
    cfg = parse_config("eps = 0.0625\nn_steps = 4\namplitude = 0.3\n")
    trace = run_from_config(cfg)
    assert not trace.aborted
    # no crack ever forms, and each step energy equals the fresh elastic solve
    from quasifrac.energy import CrackHistory
    from quasifrac.mesh import build_background_mesh, interpolate
    from quasifrac.solver import minimize_step
    mesh = build_background_mesh(cfg.domain(), cfg.mesh_params())
    for rec in trace.steps:
        assert len(rec.accum_ids) == 0
        bc = interpolate(mesh, cfg.load(), rec.t)
        fresh = minimize_step(mesh, CrackHistory(), bc, cfg.material(),
                              cfg.mesh_params(), cfg.solve_options())
        assert rec.energy.total == pytest.approx(fresh.energy.total, abs=1e-9)


def test_cracking_run_irreversible_and_nested():
    cfg = parse_config(
        "eps = 0.0625\nn_steps = 8\namplitude = 3.2\nload = opening\n"
        "precrack = 0.0 0.5 0.3 0.5 0.05\nseed = 1\n")
    trace = run_from_config(cfg)
    assert not trace.aborted
    prev_keys = None
    grew = False
    for rec in trace.steps:
        keys = {rec.mesh.tri_keys[int(i)] for i in rec.accum_ids}
        if prev_keys is not None:
            assert prev_keys <= keys  # irreversibility, exact inclusion
            grew = grew or len(keys) > len(prev_keys)
        prev_keys = keys
        assert rec.tmod_nested
    assert grew  # the load actually drives crack growth


def test_stability_spot_check():
    cfg = parse_config(
        "eps = 0.0625\nn_steps = 4\namplitude = 1.2\nload = opening\n"
        "precrack = 0.0 0.5 0.3 0.5 0.05\nseed = 1\n")
    trace = run_from_config(cfg)
    for rec in trace.steps[:: max(1, len(trace.steps) // 3)]:
        assert stability_spot_check(rec, cfg.load(), cfg.material(),
                                    cfg.mesh_params(), n_competitors=20,
                                    seed=5)


def test_energy_bound_under_refinement():
    # uniform energy bound: the maximal energy must not grow under
    # simultaneous refinement of (eps, delta)
    base = ("n_steps = 4\namplitude = 1.2\nload = opening\n"
            "precrack = 0.0 0.5 0.3 0.5 0.06\nseed = 1\nmulti_starts = 2\n")
    maxes = []
    for lvl in range(2):
        cfg = parse_config(base + f"eps = {0.0625 / 2 ** lvl}\n")
        cfg.values["n_steps"] = 4 * 2 ** lvl
        trace = run_from_config(cfg)
        maxes.append(max(s.energy.total for s in trace.steps))
    assert maxes[1] <= 2.0 * maxes[0]


def test_run_keeps_history_by_id():
    # crack history is kept by triangle id: a run builds no coordinate keys
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                      / "benchmark.cfg")
    trace = run_from_config(cfg)
    assert not trace.aborted
    assert not any("tri_keys" in vars(rec.mesh) for rec in trace.steps)


def test_ramp_reuses_factor_and_releases_it(counted_splu):
    # a crack-free ramp repeats one reduced system: it is factorized twice
    # before it is kept (12 factorizations when every solve factorizes),
    # and the returned meshes keep no factor
    cfg = parse_config("eps = 0.015625\nn_steps = 4\namplitude = 0.4\n"
                       "load = stretch\nseed = 0\nmulti_starts = 2\n")
    trace = run_from_config(cfg)
    assert not trace.aborted
    assert 0 < len(counted_splu) <= 5
    assert all(rec.mesh.factor_slot is None for rec in trace.steps)


def test_crack64_solves_each_system_once_per_step(monkeypatch, counted_splu):
    # the eps 1/64 crack ladder level: later starts of a step replay earlier
    # trajectories, which the step's memo serves, so no step solves one
    # system twice from the same copied initial values.  Re-solving every
    # replayed system made 124 solves, 56 of them in the crack-growth step,
    # and 104 factorizations
    cfg = parse_config("eps = 0.015625\nn_steps = 16\namplitude = 3.2\n"
                       "load = opening\nprecrack = 0.0 0.5 0.45 0.5 0.06\n"
                       "seed = 1\nmulti_starts = 3\n")
    steps = []
    real_solve, real_step = solver.solve_elastic, evolution.minimize_step

    def step(*args, **kwargs):
        steps.append([])
        return real_step(*args, **kwargs)

    def solve(mesh, active, bc, material, x0=None, **kwargs):
        u = real_solve(mesh, active, bc, material, x0=x0, **kwargs)
        x_init = bc.values.ravel() if x0 is None else x0
        steps[-1].append((np.asarray(active).tobytes(),
                          x_init[u._copied].tobytes()))
        return u

    monkeypatch.setattr(evolution, "minimize_step", step)
    monkeypatch.setattr(solver, "solve_elastic", solve)
    trace = run_from_config(cfg)
    assert not trace.aborted
    assert all(len(set(calls)) == len(calls) for calls in steps)
    assert max(map(len, steps)) < 56
    assert sum(map(len, steps)) < 124
    assert 0 < len(counted_splu) <= 53


def test_crack32_run_loads_no_sparse_linalg():
    # the solver loads SciPy's SuperLU extension alone; importing all of
    # scipy.sparse.linalg would cost the run about 8 MiB
    repo = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from quasifrac.config import load_config\n"
            "from quasifrac.runner import run_from_config\n"
            "cfg = load_config(sys.argv[1])\n"
            "assert cfg['eps'] == 1 / 32 and cfg['precrack']\n"
            "assert not run_from_config(cfg).aborted\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('scipy.sparse.linalg')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code,
                          str(repo / "configs" / "crack.cfg")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
