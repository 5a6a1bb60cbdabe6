"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 8/9/10 share two refinement ladders built once per session; their
build time is charged to criterion 8's budget.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quasifrac.config import parse_config
from quasifrac.diagnostics import check_energy_balance
from quasifrac.energy import MaterialModel, static_energy
from quasifrac.mesh import DisplacementField, MeshParams
from quasifrac.runner import run_from_config
from quasifrac.solver import SolveOptions
from quasifrac.trisets import TriangleSet
from quasifrac.voidmod import VoidModParams, build_boundary_graph, modify_voids
from conftest import make_mesh
from _oracles import filled_boundary_edges

REPO = Path(__file__).resolve().parents[1]
ETA = 0.2


def _report(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


# ---------------------------------------------------------------------------
# generators


def random_admissible_triangles(n, eps, theta0, omega, rng):
    """Random triangles with angles >= theta0 and edges in [eps, omega]."""
    angles = theta0 + (math.pi - 3 * theta0) * rng.dirichlet((1, 1, 1), size=n)
    sines = np.sin(angles)
    scale = eps * rng.uniform(1.0, 3.0, size=n) / sines.min(axis=1)
    edges = scale[:, None] * sines  # opposite side lengths by the sine rule
    assert np.all(edges >= eps * (1 - 1e-12))
    assert np.all(edges <= omega * (1 + 1e-12))
    # area from two sides and the included angle
    a = edges[:, 0]
    b = edges[:, 1]
    areas = 0.5 * a * b * np.sin(angles[:, 2])
    return areas, edges.max(axis=1)


def scaled_void_input(mesh, rng):
    """Random energy-bounded crack-like set.

    Features are drawn in physical units so every resolution sees the same
    shapes: long one-cell-thick kinked bands (area ~ eps, the crack
    regime; long enough to survive modification even at eps = 1/16), a
    short band, a thin ring, small blobs, and scattered debris whose
    contribution vanishes with eps.  The induced area stays O(eps), so
    2|A|/(eps sin theta0) is bounded uniformly in eps.
    """
    nx, ny, ox, oy = mesh.grid_shape
    h = mesh.params.grid_spacing
    ids = set()

    def mark(x, y):
        i = int((x - ox) // h)
        j = int((y - oy) // h)
        if 0 <= i < nx and 0 <= j < ny:
            base = 2 * (j * nx + i)
            ids.add(base)
            ids.add(base + 1)

    def band(x, y, heading, length):
        s = 0.0
        while s < length:
            mark(x, y)
            x += 0.5 * h * math.cos(heading)
            y += 0.5 * h * math.sin(heading)
            s += 0.5 * h
            if rng.random() < 0.05:
                heading += rng.uniform(-0.35, 0.35)
            y = min(max(y, 0.02), 0.98)

    for _ in range(int(rng.integers(1, 3))):
        band(rng.uniform(-0.1, 0.2), rng.uniform(0.25, 0.75),
             rng.uniform(-0.35, 0.35), rng.uniform(1.0, 1.35))
    band(rng.uniform(0.2, 0.6), rng.uniform(0.15, 0.85),
         rng.uniform(0.0, math.pi), rng.uniform(0.1, 0.4))

    if rng.random() < 0.5:  # thin square ring, one cell thick
        x0 = rng.uniform(0.15, 0.7)
        y0 = rng.uniform(0.15, 0.7)
        s = rng.uniform(0.06, 0.14)
        steps = max(2, int(s / h))
        for d in range(steps + 1):
            mark(x0 + d * h, y0)
            mark(x0 + d * h, y0 + steps * h)
            mark(x0, y0 + d * h)
            mark(x0 + steps * h, y0 + d * h)

    for _ in range(int(rng.integers(1, 4))):  # small blobs, fixed cell count
        k = int(rng.integers(1, 3))
        x0 = rng.uniform(0.1, 0.85)
        y0 = rng.uniform(0.1, 0.85)
        for di in range(k):
            for dj in range(k):
                mark(x0 + di * h, y0 + dj * h)

    n_scatter = int(0.15 / mesh.params.eps * rng.uniform(0.3, 1.0))
    for t in rng.integers(0, mesh.n_triangles, size=n_scatter):
        ids.add(int(t))
    return np.asarray(sorted(ids), dtype=np.int64)


def smooth_bounded_field(mesh, rng, scale=0.08):
    a = rng.uniform(-1, 1, size=6)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vals = np.column_stack([
        a[0] * np.sin(math.pi * x) * np.cos(math.pi * y) + a[1] * x + a[2] * y,
        a[3] * np.cos(math.pi * x) * np.sin(math.pi * y) + a[4] * x + a[5] * y,
    ]) * scale
    return DisplacementField(mesh, vals)


# ---------------------------------------------------------------------------
# criteria 1-3


def test_criterion_1_triangle_inequality():
    t0 = time.time()
    rng = np.random.default_rng(101)
    theta0 = math.pi / 5
    violations = 0
    for eps in (1 / 16, 1 / 64):
        params = MeshParams(theta0=theta0, eps=eps)
        areas, max_edges = random_admissible_triangles(
            5000, eps, theta0, params.omega, rng)
        bound = 0.5 * eps * math.sin(theta0) * max_edges
        violations += int(np.sum(areas < bound * (1 - 1e-12)))
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 5.0
    _report(1, f"10000 random admissible triangles satisfy "
               f"|T| >= eps sin(theta0)/2 * max edge ({elapsed:.2f}s)")


def test_criterion_2_split_identity(mesh32):
    t0 = time.time()
    params = mesh32.params
    mat = MaterialModel(kappa=1.0)
    rng = np.random.default_rng(202)
    w = mesh32.area_in_omega
    worst = 0.0
    for _ in range(1000):
        vals = rng.standard_normal((mesh32.n_nodes, 2)) * rng.uniform(0.001, 0.4)
        u = DisplacementField(mesh32, vals)
        rep = static_energy(mesh32, u, mat)
        assert rep.total == rep.elastic_part + rep.crack_part
        s = u.strains()
        sq = (s * s).sum(axis=1)
        direct = float((w / params.eps *
                        np.minimum(params.eps * sq, mat.kappa)).sum())
        if direct:
            worst = max(worst, abs(rep.total - direct) / abs(direct))
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 10.0
    _report(2, f"energy split exact on 1000 random fields, worst relative "
               f"deviation {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_planar_graph_identities(mesh32):
    t0 = time.time()
    rng = np.random.default_rng(303)
    for _ in range(500):
        density = rng.uniform(0.05, 0.5)
        ids = rng.choice(mesh32.n_triangles,
                         size=int(density * mesh32.n_triangles), replace=False)
        g = build_boundary_graph(TriangleSet(mesh32, ids))
        e = g.euler_identity()
        assert e[0] == e[1]
        e = g.edge_count_identity()
        assert e[0] == e[1]
        e = g.d_sum_identity()
        assert e[0] == e[1]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(3, f"Euler and degree/cycle identities exact on 500 random "
               f"subsets ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criteria 4-6


@pytest.fixture(scope="session")
def voidmod_suite():
    """50 scaled random inputs per resolution, modified at eta = 0.2."""
    t0 = time.time()
    vm = VoidModParams(eta=ETA)
    results = {"exposed": []}
    for eps_inv in (16, 32, 64, 128):
        mesh = make_mesh(1.0 / eps_inv)
        rows = []
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            ids = scaled_void_input(mesh, rng)
            u = smooth_bounded_field(mesh, rng)
            res = modify_voids(TriangleSet(mesh, ids), u, vm)
            rows.append(res.stats)
            results["exposed"].append(_exposed(res))
        results[eps_inv] = rows
    results["elapsed"] = time.time() - t0
    return results


def _exposed(res):
    """A_mod boundary edges owned by a filled triangle of one result."""
    return filled_boundary_edges(res.a_mod.mesh, res.a_mod.ids, res.filled)


def _fit_and_check(results, key):
    # the theorem's constant is positive, so a negative coarse-level
    # maximum (bound satisfied with slack) clamps to the zero constant
    fit = max(max(r[key] for r in results[16]), 0.0)
    allowance = 1.1 * fit + 1e-9
    worst = {}
    for eps_inv in (32, 64, 128):
        worst[eps_inv] = max(r[key] for r in results[eps_inv])
        assert worst[eps_inv] <= allowance, \
            f"{key}: {worst[eps_inv]} exceeds fit {fit} by more than 10%"
    return fit, worst


def test_criterion_4_sharp_bounds(voidmod_suite):
    fit_p, _ = _fit_and_check(voidmod_suite, "c_perimeter")
    fit_a, _ = _fit_and_check(voidmod_suite, "c_eta")
    fit_c, _ = _fit_and_check(voidmod_suite, "c_components")
    elapsed = voidmod_suite["elapsed"]
    assert elapsed < 120.0
    _report(4, f"perimeter/area/component constants fitted at eps=1/16 "
               f"(C_perim={fit_p:.3f}, C_eta={fit_a:.3f}, C_comp={fit_c:.3f}) "
               f"hold within 10% at finer eps ({elapsed:.1f}s)")


@pytest.fixture(scope="session")
def nesting_suite(mesh32):
    t0 = time.time()
    vm = VoidModParams(eta=ETA)
    stats = []
    exposed = []
    failures = 0
    for i in range(200):
        rng = np.random.default_rng(5000 + i)
        ids2 = scaled_void_input(mesh32, rng)
        if not len(ids2):
            continue
        take = rng.uniform(0.2, 0.9)
        ids1 = rng.choice(ids2, size=max(1, int(take * len(ids2))),
                          replace=False)
        u = smooth_bounded_field(mesh32, rng)
        r1 = modify_voids(TriangleSet(mesh32, ids1), u, vm)
        r2 = modify_voids(TriangleSet(mesh32, ids2), u, vm)
        if not (r1.a_mod.issubset(r2.a_mod) and r1.t_mod.issubset(r2.t_mod)):
            failures += 1
        stats.extend([r1.stats, r2.stats])
        exposed.extend([_exposed(r1), _exposed(r2)])
    return {"failures": failures, "stats": stats, "exposed": exposed,
            "elapsed": time.time() - t0}


def test_criterion_5_monotonicity(nesting_suite):
    assert nesting_suite["failures"] == 0
    assert nesting_suite["elapsed"] < 60.0
    _report(5, f"200 nested pairs: exact A_mod and surviving-input nesting "
               f"({nesting_suite['elapsed']:.1f}s)")


def test_criterion_6_filled_triangles_interior(voidmod_suite, nesting_suite):
    counts = nesting_suite["exposed"] + voidmod_suite["exposed"]
    assert sum(counts) == 0
    _report(6, f"filled triangles own no A_mod boundary edge in all "
               f"{len(counts)} modified sets of suites 4-5")


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_7_solver_oracle():
    from _oracles import exhaustive_minimum
    from quasifrac.mesh import Domain, build_background_mesh, interpolate
    from quasifrac.solver import minimize_step

    t0 = time.time()
    eps = 1 / math.sqrt(2.0)
    params = MeshParams(theta0=math.pi / 4, eps=eps)

    class Affine:
        def __init__(self, mat):
            self.m = np.asarray(mat, dtype=float)

        def eval(self, t, pts):
            return t * np.asarray(pts, dtype=float) @ self.m.T

    def strip(n_cells, width=1):
        dom = Domain((1.1, 0.0, n_cells - 1.1, float(width)),
                     (0.0, 0.0, float(n_cells), float(width)))
        return build_background_mesh(dom, params)

    instances = []
    for amp in (0.6, 1.0, 1.5, 2.2, 3.0):
        instances.append((strip(4), Affine([[amp, 0], [0, 0]]), []))
    instances.append((strip(4), Affine([[0, 1.6], [0, 0]]), []))
    instances.append((strip(4), Affine([[1.5, 0], [0, 0.8]]), []))
    instances.append((strip(4), Affine([[2.0, 0], [0, 0]]), [3]))  # pre-crack
    instances.append((strip(6), Affine([[1.4, 0], [0, 0]]), []))
    instances.append((strip(6), Affine([[2.6, 0], [0, 0]]), []))

    worst = 0.0
    for k, (mesh, g, pre) in enumerate(instances):
        assert mesh.n_triangles <= 12
        opts = SolveOptions(multi_starts=8, seed=k)
        bc = interpolate(mesh, g, 1.0)
        hist_ids = np.asarray(pre, dtype=np.int64)
        res = minimize_step(mesh, hist_ids, bc, MaterialModel(), opts)
        e_oracle = exhaustive_minimum(mesh, bc, hist_ids, MaterialModel())
        worst = max(worst, abs(res.energy.total - e_oracle))
        assert res.energy.total <= e_oracle + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, f"10 tiny instances match exhaustive crack-pattern "
               f"enumeration, worst gap {worst:.2e} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 8-10: shared benchmark ladders


RAMP_LEVELS = ((16, 8), (32, 16), (64, 32))
CRACK_LEVELS = ((32, 8), (64, 16), (128, 32))


def _ramp_config(eps_inv, n_steps):
    return parse_config(
        f"eps = {1.0 / eps_inv}\nn_steps = {n_steps}\namplitude = 0.4\n"
        "load = stretch\nseed = 0\nmulti_starts = 2\n")


def _crack_config(eps_inv, n_steps):
    return parse_config(
        f"eps = {1.0 / eps_inv}\nn_steps = {n_steps}\namplitude = 3.2\n"
        "load = opening\nprecrack = 0.0 0.5 0.45 0.5 0.06\nseed = 1\n"
        "multi_starts = 3\n")


@pytest.fixture(scope="session")
def ramp_ladder():
    t0 = time.time()
    out = []
    for eps_inv, n in RAMP_LEVELS:
        cfg = _ramp_config(eps_inv, n)
        trace = run_from_config(cfg)
        assert not trace.aborted
        out.append((cfg, trace, check_energy_balance(trace, cfg.load())))
    return {"levels": out, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def crack_ladder():
    t0 = time.time()
    out = []
    for eps_inv, n in CRACK_LEVELS:
        cfg = _crack_config(eps_inv, n)
        trace = run_from_config(cfg)
        assert not trace.aborted
        out.append((cfg, trace, check_energy_balance(trace, cfg.load())))
    return {"levels": out, "elapsed": time.time() - t0}


def test_criterion_8_energy_balance(ramp_ladder, crack_ladder):
    elapsed = ramp_ladder["elapsed"] + crack_ladder["elapsed"]
    # affine ramp: the trapezoidal work integral is exact, slack stays
    # within 1e-6 of the maximal energy at every step
    ramp_betas = []
    for cfg, trace, bal in ramp_ladder["levels"]:
        assert np.all(bal.slack >= -bal.tol_abs)
        ramp_betas.append(bal.beta_fit)
    # the fitted constant of the piecewise-constant rule decreases under
    # each simultaneous halving of (eps, delta)
    assert ramp_betas[1] < ramp_betas[0]
    assert ramp_betas[2] < ramp_betas[1]

    crack_betas = []
    for cfg, trace, bal in crack_ladder["levels"]:
        # crack events shift energy within the step; the inequality holds
        # with the fitted per-run constant
        assert np.all(bal.slack + bal.beta_fit >= -bal.tol_abs)
        crack_betas.append(bal.beta_fit)
    assert crack_betas[1] < crack_betas[0]
    assert crack_betas[2] < crack_betas[1]
    assert elapsed < 300.0
    _report(8, f"balance slack within tolerance; beta ramps "
               f"{[f'{b:.4f}' for b in ramp_betas]} and "
               f"{[f'{b:.4f}' for b in crack_betas]} decrease under two "
               f"halvings ({elapsed:.1f}s)")


def test_criterion_9_irreversibility_and_nesting(ramp_ladder, crack_ladder):
    n_traces = 0
    for ladder in (ramp_ladder, crack_ladder):
        for cfg, trace, _ in ladder["levels"]:
            prev = None
            for rec in trace.steps:
                keys = {rec.mesh.tri_keys[int(i)] for i in rec.accum_ids}
                if prev is not None:
                    assert prev <= keys
                prev = keys
                assert rec.tmod_nested
            n_traces += 1
    _report(9, f"exact crack-set inclusion and surviving-input nesting in "
               f"all {n_traces} benchmark traces")


def test_criterion_10_convergence_proxy(crack_ladder):
    (c1, t1, _), (c2, t2, _) = crack_ladder["levels"][1:]
    kappa = c1["kappa"]
    theta0 = c1["theta0"]
    a = kappa * math.sin(theta0) * t1.steps[-1].kn_length_half
    b = kappa * math.sin(theta0) * t2.steps[-1].kn_length_half
    assert a > 0 and b > 0
    rel = abs(a - b) / max(a, b)
    assert rel <= 0.20
    assert crack_ladder["elapsed"] < 600.0
    _report(10, f"crack-energy proxy Cauchy on the last pair: "
                f"{a:.4f} vs {b:.4f} ({100 * rel:.1f}% apart)")


# ---------------------------------------------------------------------------
# criterion 11


def test_criterion_11_determinism(tmp_path):
    base = (REPO / "configs" / "benchmark.cfg").read_text()
    outs = []
    for threads in ("1", "6"):
        out = tmp_path / f"t{threads}"
        cfg = tmp_path / f"bench_{threads}.cfg"
        cfg.write_text(base.replace("out/benchmark", str(out)))
        env = dict(os.environ, FRACTURE_THREADS=threads)
        res = subprocess.run([sys.executable, "-m", "quasifrac.cli",
                              "simulate", "--config", str(cfg)],
                             capture_output=True, text=True, env=env, cwd=REPO)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    for name in ("energies.csv", "trace.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report(11, "byte-identical energies.csv and trace.json across "
                "FRACTURE_THREADS=1 and 6")
