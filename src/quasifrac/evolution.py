"""Time-incremental quasi-static crack evolution.

Each step minimizes the history-dependent energy at the current boundary
load on the run's background mesh, accumulates the newly cracked
triangles irreversibly, and extracts the sharp crack curve of the
accumulated set through void modification.  The per-step modification
runs in its deterministic monotone mode, so the surviving input triangles
nest in time and the crack curves inherit the nesting.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import MaterialModel, EnergyReport
from .mesh import (
    DisplacementField,
    Domain,
    MeshParams,
    Triangulation,
    build_background_mesh,
    interpolate,
)
from .solver import SolveOptions, SolverError, minimize_step
from .trisets import TriangleSet
from .voidmod import VoidModParams, modify_voids


@dataclass
class LoadProgram:
    """Time-parameterized boundary displacement g(t, x) on the enclosing
    rectangle.

    Every load is spatially affine, g(t,x) = t * amplitude * A (x - center):
    the presets fix A, and an affine load takes it from the caller.  So the
    nodal interpolation is exact and the time derivative is the
    constant-in-time field amplitude * A (x - center).
    """

    kind: str = "stretch"
    amplitude: float = 1.0
    t_end: float = 1.0
    n_steps: int = 10
    center: tuple = (0.0, 0.0)
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.t_end <= 0.0 or self.n_steps < 1:
            raise ValueError("need t_end > 0 and n_steps >= 1")
        if self.kind == "stretch":
            self.matrix = np.array([[0.0, 0.0], [0.0, 1.0]])
        elif self.kind == "shear":
            self.matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
        elif self.kind == "opening":
            self.matrix = np.array([[0.0, 0.0], [0.0, 1.0]])
        elif self.kind == "affine":
            if self.matrix is None:
                raise ValueError("affine load requires a matrix")
            self.matrix = np.asarray(self.matrix, dtype=float).reshape(2, 2)
        else:
            raise ValueError(f"unknown load kind {self.kind!r}")

    @property
    def delta(self) -> float:
        return self.t_end / self.n_steps

    def times(self):
        return [k * self.delta for k in range(self.n_steps + 1)]

    def eval(self, t: float, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        rel = pts - np.asarray(self.center, dtype=float)
        return rel @ (t * self.amplitude * self.matrix).T

    def dt_matrix(self, t: float) -> np.ndarray:
        """Spatial gradient of the time derivative of g; the same at every
        time t."""
        return self.amplitude * self.matrix

    def dt_strain_mandel(self, t: float) -> np.ndarray:
        m = self.dt_matrix(t)
        e = 0.5 * (m + m.T)
        return np.array([e[0, 0], e[1, 1], math.sqrt(2.0) * e[0, 1]])


def eta_schedule(eps: float) -> float:
    """Default smallness parameter: min(0.2, 1/log(1/eps)).

    One admissible choice among all schedules with vanishing modification
    constants; override through configuration when studying sensitivity.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if eps >= 1.0:
        return 0.2
    return min(0.2, 1.0 / math.log(1.0 / eps))


@dataclass
class StepRecord:
    k: int
    t: float
    mesh: Triangulation
    u_values: np.ndarray
    energy: EnergyReport
    new_crack_ids: np.ndarray
    accum_prev_ids: np.ndarray
    accum_ids: np.ndarray
    accum_area_prime: float
    amod_ids: np.ndarray
    tmod_ids: np.ndarray
    kn_length_raw: float
    kn_length_half: float
    kn_components: int
    amod_area: float
    outer_iters: int
    converged: bool
    tmod_nested: bool
    mod_stats: dict = field(default_factory=dict)
    factored_systems: int = 0
    factored_rows: int = 0

    def summary(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "total": self.energy.total,
            "elastic": self.energy.elastic_part,
            "crack": self.energy.crack_part,
            "cracked_area": self.energy.cracked_area,
            "n_cracked": self.energy.n_cracked,
            "new_crack_triangles": int(len(self.new_crack_ids)),
            "accum_triangles": int(len(self.accum_ids)),
            "accum_area_prime": self.accum_area_prime,
            "kn_length_raw": self.kn_length_raw,
            "kn_length_half": self.kn_length_half,
            "kn_components": self.kn_components,
            "amod_area": self.amod_area,
            "outer_iters": self.outer_iters,
            "converged": self.converged,
            "tmod_nested": self.tmod_nested,
            "factored_systems": self.factored_systems,
            "factored_rows": self.factored_rows,
        }


@dataclass
class EvolutionTrace:
    header: dict
    steps: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""

    def energies_csv(self) -> str:
        lines = [EnergyReport.CSV_HEADER]
        for s in self.steps:
            lines.append(s.energy.csv_row(s.k, s.t))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "header": self.header,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "steps": [s.summary() for s in self.steps],
        }


def run_evolution(domain: Domain, params: MeshParams, material: MaterialModel,
                  load: LoadProgram, vm: Optional[VoidModParams] = None,
                  opts: Optional[SolveOptions] = None, *,
                  precrack_ids=None, snap: bool = False,
                  progress: bool = False) -> EvolutionTrace:
    """Run the incremental scheme and extract the crack curve per step.

    Every step works on one mesh, the background mesh of `domain` and
    `params`.  Every step minimizes the history energy at its load, whose
    accumulated cracked triangles stay cracked; at step 0 the history is
    the precrack (empty without one).  After each step the accumulated set
    is void-modified at the configured eta and the crack curve taken as
    the boundary of the modified set.  A solver failure aborts with the
    partial trace.  Either way the returned mesh keeps no factor.

    `snap` stays only because the benchmark harness passes it; its one
    accepted value is False.
    """
    if snap is not False:
        raise ValueError("snap: only False is accepted; every run uses the "
                         "background mesh")
    if vm is None:
        vm = VoidModParams(eta=eta_schedule(params.eps))
    if opts is None:
        opts = SolveOptions()

    mesh = build_background_mesh(domain, params)
    # the accumulated cracked triangles, sorted, and their area in omega'
    # summed in the order they cracked
    accum_ids = np.empty(0, dtype=np.int64)
    if precrack_ids is not None:
        accum_ids = TriangleSet(mesh, precrack_ids).ids
    area_prime = sum(mesh.area_in_omega_prime[accum_ids].tolist(), 0.0)

    header = {
        "eps": params.eps,
        "theta0": params.theta0,
        "omega_factor": params.omega_factor,
        "kappa": material.kappa,
        "elasticity": [[float(x) for x in row] for row in material.elasticity],
        "eta": vm.eta,
        "delta": load.delta,
        "t_end": load.t_end,
        "n_steps": load.n_steps,
        "load": load.kind,
        "amplitude": load.amplitude,
        "seed": opts.seed,
        "domain": domain.to_dict(),
        "n_precrack": 0 if precrack_ids is None else int(len(precrack_ids)),
    }
    trace = EvolutionTrace(header=header)

    prev_u: Optional[DisplacementField] = None
    prev_tmod_ids = np.empty(0, dtype=np.int64)

    try:
        for k, t in enumerate(load.times()):
            bc = interpolate(mesh, load, t)
            shift = None
            if prev_u is not None:
                bc_prev = interpolate(mesh, load, t - load.delta)
                shift = DisplacementField(
                    mesh, prev_u.values + bc.values - bc_prev.values)
            try:
                res = minimize_step(mesh, accum_ids, bc, material, opts,
                                    shift_field=shift)
            except SolverError as exc:
                trace.aborted = True
                trace.abort_reason = f"step {k}: {exc}"
                return trace

            accum_prev = accum_ids
            was = np.zeros(mesh.n_triangles, dtype=bool)
            was[accum_prev] = True
            accum_ids = res.cracked_now.ids
            new_ids = accum_ids[~was[accum_ids]]
            area_prime = sum(mesh.area_in_omega_prime[new_ids].tolist(),
                             area_prime)

            mod = modify_voids(TriangleSet(mesh, accum_ids), res.u, vm)
            tmod_ids = mod.t_mod.ids
            nested = bool(np.isin(prev_tmod_ids, tmod_ids).all())
            kn_raw = mod.a_mod.boundary_length_in_rect(domain.omega_prime)
            rec = StepRecord(
                k=k, t=t, mesh=mesh, u_values=res.u.values.copy(),
                energy=res.energy, new_crack_ids=new_ids,
                accum_prev_ids=accum_prev, accum_ids=accum_ids,
                accum_area_prime=area_prime,
                amod_ids=mod.a_mod.ids, tmod_ids=tmod_ids,
                kn_length_raw=kn_raw, kn_length_half=0.5 * kn_raw,
                kn_components=mod.stats.get("n_components", 0),
                amod_area=mod.stats.get("area_Amod", 0.0),
                outer_iters=res.outer_iters, converged=res.converged,
                tmod_nested=nested, mod_stats=mod.stats,
                factored_systems=res.factored_systems,
                factored_rows=res.factored_rows,
            )
            trace.steps.append(rec)
            prev_tmod_ids = tmod_ids
            prev_u = res.u
            if progress:
                print(f"step {k:3d} t={t:.4f} E={res.energy.total:.6g} "
                      f"cracked={len(accum_ids)} K={kn_raw:.4f}")
    finally:
        # the mesh a trace returns keeps no factor of the run
        mesh.factor_slot = None
    return trace
