import math

import numpy as np
import pytest

from quasifrac.config import parse_config
from quasifrac.diagnostics import check_energy_balance, run_convergence_study
from quasifrac.runner import run_from_config
from quasifrac.trisets import TriangleSet
from conftest import block_ids, cell_tris


def test_balance_zero_load():
    cfg = parse_config("eps = 0.0625\nn_steps = 3\namplitude = 0\n")
    trace = run_from_config(cfg)
    bal = check_energy_balance(trace, cfg.load())
    assert np.all(bal.lhs == 0.0)
    assert np.all(bal.rhs == 0.0)
    assert bal.beta_fit == 0.0
    assert bal.passed


def test_balance_subcritical_ramp_closed_form():
    # stationary crack set and a time-affine load: lhs_k = t_k^2 Q with Q
    # the compliance of the relaxed solution, and the trapezoidal work
    # integral reproduces it exactly
    cfg = parse_config("eps = 0.0625\nn_steps = 5\namplitude = 0.4\n")
    trace = run_from_config(cfg)
    bal = check_energy_balance(trace, cfg.load())
    t1 = trace.steps[1].t
    q = trace.steps[1].energy.total / t1 ** 2
    for rec in trace.steps:
        assert rec.energy.total == pytest.approx(q * rec.t ** 2, rel=1e-8)
    assert np.abs(bal.slack).max() <= bal.tol_abs
    assert bal.sharp and bal.passed
    # the piecewise-constant rule carries the O(delta) fitted constant,
    # here exactly Q * t_end * delta
    expect_beta = q * cfg["t_end"] * cfg.load().delta
    assert bal.beta_fit == pytest.approx(expect_beta, rel=1e-6)


@pytest.mark.parametrize("elasticity", [
    "1 0 0 0 1 0 0 0 1",
    "2 0 0 0 2 0 0 0 2",
    "2 .5 0 .5 1 .3 0 .3 1.5",
], ids=["identity", "2I", "coupled"])
def test_balance_trapezoid_exact_for_any_elasticity(elasticity):
    # the load's power is C e(u) : de_load/dt, so on a crack-free
    # time-affine ramp the trapezoidal work integral is exact whatever C
    cfg = parse_config("eps = 0.0625\nn_steps = 8\namplitude = 0.4\n"
                       f"elasticity = {elasticity}\n")
    trace = run_from_config(cfg)
    assert all(len(rec.accum_ids) == 0 for rec in trace.steps)
    bal = check_energy_balance(trace, cfg.load())
    assert np.abs(bal.slack).max() <= 1e-12 * bal.max_energy
    assert bal.sharp and bal.passed


def test_balance_beta_halves_with_delta():
    betas = []
    for lvl in range(2):
        cfg = parse_config(f"eps = 0.0625\nn_steps = {5 * 2 ** lvl}\n"
                           "amplitude = 0.4\n")
        trace = run_from_config(cfg)
        betas.append(check_energy_balance(trace, cfg.load()).beta_fit)
    assert betas[1] == pytest.approx(0.5 * betas[0], rel=1e-3)


def crack_length(tset):
    """Raw crack length as a run reports it: the boundary length of the
    modified set inside the enclosing rectangle, both lips of a slit."""
    return tset.boundary_length_in_rect(tset.mesh.domain.omega_prime)


def test_crack_length_single_triangle(mesh16):
    t = cell_tris(mesh16, 7, 7)[0]
    h = mesh16.params.grid_spacing
    expect = 2 * h + math.sqrt(2.0) * h
    assert crack_length(TriangleSet(mesh16, [t])) == pytest.approx(
        expect, rel=1e-12)


def test_crack_length_band_closed_form(mesh16):
    # 1 x n band of cells: perimeter 2 n h + 2 h
    n = 9
    band = block_ids(mesh16, 3, 3 + n, 7, 8)
    h = mesh16.params.grid_spacing
    raw = crack_length(TriangleSet(mesh16, band))
    assert raw == pytest.approx((2 * n + 2) * h, rel=1e-12)


def test_crack_length_empty(mesh16):
    assert crack_length(TriangleSet(mesh16)) == 0.0


def test_crack_length_additive_over_components(mesh16):
    a = block_ids(mesh16, 2, 4, 2, 4)
    b = block_ids(mesh16, 9, 12, 9, 11)
    both = crack_length(TriangleSet(mesh16, np.concatenate([a, b])))
    ra = crack_length(TriangleSet(mesh16, a))
    rb = crack_length(TriangleSet(mesh16, b))
    assert both == pytest.approx(ra + rb, rel=1e-14)


def test_study_single_row():
    cfg = parse_config("eps = 0.0625\nn_steps = 2\namplitude = 0.3\n")
    study = run_convergence_study(cfg, refinements=0)
    assert len(study.rows) == 1
    assert study.rows[0]["eps"] == cfg["eps"]
    assert study.csv().count("\n") == 2


@pytest.mark.parametrize("refinements", [-1, -3])
def test_study_rejects_negative_refinements(refinements):
    # a negative count used to return a study with no rows
    cfg = parse_config("eps = 0.0625\nn_steps = 2\namplitude = 0.3\n")
    with pytest.raises(ValueError, match="refinements"):
        run_convergence_study(cfg, refinements)


def test_study_uncracked_ramp_zero_columns():
    cfg = parse_config("eps = 0.0625\nn_steps = 2\namplitude = 0.3\n")
    study = run_convergence_study(cfg, refinements=1)
    for row in study.rows:
        assert row["final_k_raw"] == 0.0
        assert row["crack_energy"] == 0.0
        assert row["kappa_sin_half_k"] == 0.0
