"""Post-hoc verification: discrete energy-balance estimate and
refinement studies.

The balance check compares the energy increment of a trace against the
work of the boundary load.  The work integral is evaluated two ways: a
trapezoidal rule in the strain history (exact for spatially affine loads
on stationary crack intervals, matching the closed-form sub-critical
case), and the piecewise-constant-in-time rule matching the literal
definition of the discrete evolution.  The fitted constant beta comes from
the latter and must shrink under simultaneous (eps, delta) refinement.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .evolution import EvolutionTrace, LoadProgram
from .mesh import DisplacementField


@dataclass
class BalanceReport:
    lhs: np.ndarray
    rhs: np.ndarray          # trapezoidal-in-strain work integral
    slack: np.ndarray        # rhs - lhs
    rhs_pc: np.ndarray       # piecewise-constant-in-time work integral
    slack_pc: np.ndarray
    beta_fit: float          # max(0, -min_k slack_pc)
    max_energy: float
    tol_abs: float

    @property
    def passed(self) -> bool:
        """Discrete energy estimate with the fitted constant, and the sharp
        zero-constant inequality whenever the fit vanishes."""
        return bool(np.all(self.slack + self.beta_fit >= -self.tol_abs))

    @property
    def sharp(self) -> bool:
        """True when the trapezoidal slack is nonnegative at every step."""
        return bool(np.all(self.slack >= -self.tol_abs))

    def csv(self) -> str:
        lines = ["k,lhs,rhs,slack,rhs_pc,slack_pc"]
        for k in range(len(self.lhs)):
            lines.append(",".join(f"{x:.17g}" for x in
                                  (self.lhs[k], self.rhs[k], self.slack[k],
                                   self.rhs_pc[k], self.slack_pc[k])))
            lines[-1] = f"{k}," + lines[-1]
        lines.append(f"beta_fit,{self.beta_fit:.17g},,,,")
        return "\n".join(lines) + "\n"


def _step_power(rec, c_load) -> float:
    """Integral of e(u_k) : c_load over the body minus step k's crack."""
    mesh = rec.mesh
    strains = DisplacementField(mesh, rec.u_values).strains()
    mask = np.ones(mesh.n_triangles, dtype=bool)
    mask[rec.accum_ids] = False
    w = mesh.area_in_omega[mask]
    return float((w * (strains[mask] @ c_load)).sum())


def check_energy_balance(trace: EvolutionTrace, load: LoadProgram,
                         ) -> BalanceReport:
    """Compare energy increments with the boundary-load work along a trace.

    lhs_k is the energy at step k minus the initial energy; rhs_k the time
    integral of twice the strain power e(u) : c_load, c_load = C de_load/dt
    with C the trace's elasticity, midpoint-sampled in the load factor
    (exact for time-affine presets).  The piecewise-constant variant feeds
    the beta fit.  The load's strain rate is the same at every time
    (`LoadProgram.dt_matrix`), so each step's power is computed once and
    serves both intervals that step bounds.
    """
    steps = trace.steps
    n = len(steps)
    lhs = np.zeros(n)
    rhs = np.zeros(n)
    rhs_pc = np.zeros(n)
    if n > 1:
        e0 = steps[0].energy.total
        c_load = np.asarray(trace.header["elasticity"]) @ \
            load.dt_strain_mandel(steps[0].t)
        p = [_step_power(rec, c_load) for rec in steps]
        for k in range(1, n):
            lhs[k] = steps[k].energy.total - e0
            dt = steps[k].t - steps[k - 1].t
            rhs[k] = rhs[k - 1] + dt * (p[k - 1] + p[k])    # 2 * trapezoid
            rhs_pc[k] = rhs_pc[k - 1] + 2.0 * dt * p[k - 1]  # left rectangle
    slack = rhs - lhs
    slack_pc = rhs_pc - lhs
    beta = float(max(0.0, -slack_pc.min())) if n else 0.0
    max_e = float(max((s.energy.total for s in steps), default=0.0))
    return BalanceReport(lhs=lhs, rhs=rhs, slack=slack, rhs_pc=rhs_pc,
                         slack_pc=slack_pc, beta_fit=beta, max_energy=max_e,
                         tol_abs=1e-6 * max(max_e, 1e-300))


@dataclass
class ConvergenceStudy:
    rows: list = field(default_factory=list)

    CSV_HEADER = ("level,eps,delta,final_k_raw,final_k_half,crack_energy,"
                  "kappa_sin_half_k,elastic_energy,total_energy,beta_fit")

    def csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([str(r["level"])] +
                                  [f"{r[c]:.17g}" for c in
                                   ("eps", "delta", "final_k_raw",
                                    "final_k_half", "crack_energy",
                                    "kappa_sin_half_k", "elastic_energy",
                                    "total_energy", "beta_fit")]))
        return "\n".join(lines) + "\n"


def run_convergence_study(base_config: RunConfig, refinements: int,
                          progress: bool = False) -> ConvergenceStudy:
    """Re-run one load while halving eps and delta `refinements` times.

    Each row reports the final crack length, the crack part of the energy,
    its geometric counterpart kappa * sin(theta0) * (half crack length),
    the elastic part, and the balance beta fit.  Raises ValueError when
    `refinements` is negative.
    """
    if refinements < 0:
        raise ValueError(f"refinements must be >= 0, got {refinements}")
    from concurrent.futures import ThreadPoolExecutor

    from .runner import run_from_config, thread_cap

    configs = []
    for level in range(refinements + 1):
        cfg = RunConfig(values=dict(base_config.values))
        cfg.values["eps"] = base_config["eps"] / (2 ** level)
        cfg.values["n_steps"] = base_config["n_steps"] * (2 ** level)
        configs.append(cfg)

    workers = min(thread_cap(), len(configs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_from_config, configs))
    else:
        traces = [run_from_config(c) for c in configs]

    study = ConvergenceStudy()
    for level, (cfg, trace) in enumerate(zip(configs, traces)):
        if trace.aborted or not trace.steps:
            raise RuntimeError(f"study level {level} aborted: {trace.abort_reason}")
        last = trace.steps[-1]
        balance = check_energy_balance(trace, cfg.load())
        kappa = cfg["kappa"]
        theta0 = cfg["theta0"]
        study.rows.append({
            "level": level,
            "eps": cfg["eps"],
            "delta": cfg.load().delta,
            "final_k_raw": last.kn_length_raw,
            "final_k_half": last.kn_length_half,
            "crack_energy": last.energy.crack_part,
            "kappa_sin_half_k": kappa * math.sin(theta0) * last.kn_length_half,
            "elastic_energy": last.energy.elastic_part,
            "total_energy": last.energy.total,
            "beta_fit": balance.beta_fit,
        })
        if progress:
            print(f"level {level}: eps={cfg['eps']:.5f} "
                  f"K/2={last.kn_length_half:.4f} "
                  f"crack_E={last.energy.crack_part:.4f}")
    return study


def stability_spot_check(rec, material, n_competitors: int = 50,
                         seed: int = 0, tol_rel: float = 1e-9) -> bool:
    """Unilateral minimality probe: random admissible perturbations of the
    step's minimizer (vanishing on the pinned collar) must not lower the
    history energy beyond solver tolerance."""
    from .energy import history_energy

    mesh = rec.mesh
    u = DisplacementField(mesh, rec.u_values)
    e_star = history_energy(mesh, u, rec.accum_prev_ids, material).total
    pinned = mesh.collar_node_mask
    rng = np.random.default_rng(seed)
    scale = mesh.params.eps * max(1.0, float(np.abs(rec.u_values).max()))
    tol = tol_rel * max(1.0, abs(e_star))
    for _ in range(n_competitors):
        pert = rng.standard_normal((mesh.n_nodes, 2)) * scale * \
            rng.uniform(1e-3, 1.0)
        pert[pinned] = 0.0
        v = DisplacementField(mesh, rec.u_values + pert)
        e_v = history_energy(mesh, v, rec.accum_prev_ids, material).total
        if e_v < e_star - tol:
            return False
    return True
