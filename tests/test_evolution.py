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
from quasifrac.mesh import MeshParams, interpolate
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
    from quasifrac.mesh import build_background_mesh
    from quasifrac.solver import minimize_step
    mesh = build_background_mesh(cfg.domain(), cfg.mesh_params())
    for rec in trace.steps:
        assert len(rec.accum_ids) == 0
        bc = interpolate(mesh, cfg.load(), rec.t)
        fresh = minimize_step(mesh, [], bc, cfg.material(),
                              cfg.solve_options())
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


def test_history_is_crack_set_of_its_field():
    # the accumulated set holds the step's crack set, so under its own
    # field the history cracks nothing more: the previous-state start of
    # the next step is the history itself
    from quasifrac.energy import _density, classify_cracked
    from quasifrac.mesh import DisplacementField
    cfg = parse_config(
        "eps = 0.03125\nn_steps = 8\namplitude = 3.2\nload = opening\n"
        "precrack = 0.0 0.5 0.45 0.5 0.06\nseed = 1\nmulti_starts = 3\n")
    trace = run_from_config(cfg)
    assert not trace.aborted
    assert len(trace.steps[-1].accum_ids) > len(trace.steps[0].accum_ids)
    for rec in trace.steps:
        mesh = rec.mesh
        u = DisplacementField(mesh, rec.u_values)
        mat = cfg.material()
        s = classify_cracked(mesh, _density(u.strains(), mat), rec.accum_ids,
                             mat)
        assert np.array_equal(s.ids, rec.accum_ids)
        assert np.array_equal(rec.accum_ids, np.unique(rec.accum_ids))
        assert rec.accum_area_prime == pytest.approx(
            float(mesh.area_in_omega_prime[rec.accum_ids].sum()), rel=1e-12)


def test_stability_spot_check():
    cfg = parse_config(
        "eps = 0.0625\nn_steps = 4\namplitude = 1.2\nload = opening\n"
        "precrack = 0.0 0.5 0.3 0.5 0.05\nseed = 1\n")
    trace = run_from_config(cfg)
    for rec in trace.steps[:: max(1, len(trace.steps) // 3)]:
        assert stability_spot_check(rec, cfg.material(), n_competitors=20,
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


def test_ramp_reuses_factor_and_releases_it(counted_factor):
    # a crack-free ramp repeats one reduced system, whose factor is kept
    # from its first solve (12 factorizations when every solve
    # factorizes), and the returned meshes keep no factor; the intact
    # reference is built once and counted apart
    cfg = parse_config("eps = 0.015625\nn_steps = 4\namplitude = 0.4\n"
                       "load = stretch\nseed = 0\nmulti_starts = 2\n")
    trace = run_from_config(cfg)
    assert not trace.aborted
    assert 0 < len(counted_factor) <= 5
    assert len(counted_factor.references) == 1
    assert all(rec.mesh.factor_slot is None for rec in trace.steps)


CRACK64 = ("eps = 0.015625\nn_steps = 16\namplitude = 3.2\nload = opening\n"
           "precrack = 0.0 0.5 0.45 0.5 0.06\nseed = 1\nmulti_starts = 3\n")


def test_crack64_solves_each_system_once_per_step(monkeypatch,
                                                  counted_factor):
    # the eps 1/64 crack ladder level: later starts of a step replay earlier
    # trajectories, which the step's memo serves, so no step solves one
    # active set twice.  Re-solving every
    # replayed system made 124 solves, 56 of them in the crack-growth step,
    # and 104 factorizations; keeping a factor only from a system's second
    # solve made 53.  Each system factors only its window against the
    # mesh's intact reference, built once: factoring every system whole
    # took 188,356 band rows
    cfg = parse_config(CRACK64)
    steps = []
    real_solve, real_step = solver.solve_elastic, evolution.minimize_step

    def step(*args, **kwargs):
        steps.append([])
        return real_step(*args, **kwargs)

    def solve(mesh, active, *args, **kwargs):
        steps[-1].append(np.asarray(active).tobytes())
        return real_solve(mesh, active, *args, **kwargs)

    monkeypatch.setattr(evolution, "minimize_step", step)
    monkeypatch.setattr(solver, "solve_elastic", solve)
    trace = run_from_config(cfg)
    assert not trace.aborted
    assert all(len(set(calls)) == len(calls) for calls in steps)
    assert max(map(len, steps)) < 56
    assert sum(map(len, steps)) < 124
    assert 0 < len(counted_factor) <= 47
    meshes = {id(mesh) for mesh, _ in counted_factor.references}
    assert len(counted_factor.references) == len(meshes) == 1
    assert sum(counted_factor) <= 35000
    # trace.json reports the same counts per step, the reference included
    assert sum(rec.factored_systems for rec in trace.steps) == \
        len(counted_factor)
    assert sum(rec.factored_rows for rec in trace.steps) == \
        sum(counted_factor) + counted_factor.reference_rows


def test_history_nodes_follow_load():
    # a node whose triangles all lie in the history is in no weighted
    # active triangle of any solve, so every step's field holds the load
    # there, not a value carried over from an earlier step
    cfg = parse_config(CRACK64)
    trace = run_from_config(cfg)
    assert not trace.aborted
    load = cfg.load()
    for rec in trace.steps:
        mesh = rec.mesh
        in_hist = np.zeros(mesh.n_triangles, dtype=bool)
        in_hist[rec.accum_prev_ids] = True
        outside = np.zeros(mesh.n_nodes, dtype=bool)
        outside[mesh.triangles[~in_hist]] = True
        nodes = np.flatnonzero(~outside & ~mesh.collar_node_mask)
        assert len(nodes) > 0
        bc = interpolate(mesh, load, rec.t)
        assert np.abs(rec.u_values[nodes] - bc.values[nodes]).max() <= 1e-12


def test_crack32_run_loads_no_sparse_linalg():
    # the solver loads SciPy's LAPACK extension alone; importing all of
    # scipy.sparse.linalg would cost the run about 8 MiB, and no part of
    # scipy.linalg is needed either
    repo = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from quasifrac.config import load_config\n"
            "from quasifrac.runner import run_from_config\n"
            "cfg = load_config(sys.argv[1])\n"
            "assert cfg['eps'] == 1 / 32 and cfg['precrack']\n"
            "assert not run_from_config(cfg).aborted\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.sparse.linalg',\n"
            "                              'scipy.linalg'))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code,
                          str(repo / "configs" / "crack.cfg")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# the files a process has mapped from SciPy's package and bundled libraries
MAPPED_SCIPY = (
    "maps = open('/proc/self/maps').read().split()\n"
    "print(sorted({p.rsplit('/', 1)[1] for p in maps\n"
    "              if '/scipy/' in p or '/scipy.libs/' in p}))\n")


@pytest.mark.parametrize("code,lapack", [
    ("from quasifrac.config import load_config\n"
     "from quasifrac.runner import run_from_config\n"
     "cfg = load_config(sys.argv[1])\n"
     "assert cfg['precrack'] and not run_from_config(cfg).aborted\n", True),
    ("import quasifrac.cli\n", False),
], ids=["crack_run", "cli_import"])
def test_no_scipy_sparse_module_loaded(code, lapack):
    # assembly, the free-free block and the products use numpy alone, and
    # SciPy's LAPACK extension is loaded by itself, only once a system is
    # factored: importing scipy.sparse would cost every process about
    # 20 MiB, and a crack run needs no scipy.linalg module
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps")
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    report = ("print(sorted(m for m in sys.modules\n"
              "             if m.startswith(('scipy.sparse', 'scipy.linalg'))))\n")
    res = subprocess.run([sys.executable, "-c",
                          "import sys\n" + code + report + MAPPED_SCIPY,
                          str(repo / "configs" / "crack.cfg")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    modules, mapped = res.stdout.strip().splitlines()
    assert modules == "[]"
    # the CLI maps no SciPy extension or library; a run maps the LAPACK one
    assert ("_flapack" in mapped) == lapack, mapped
    assert lapack or mapped == "[]", mapped
