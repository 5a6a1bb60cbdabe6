"""Orchestration: configured runs and their file outputs."""

import json
import os
from pathlib import Path

import numpy as np

from .config import RunConfig
from .evolution import EvolutionTrace, run_evolution
from .mesh import DisplacementField, build_background_mesh
from .vtkio import boundary_polyline, export_polyline_vtp, export_vtu
from .trisets import TriangleSet


def thread_cap() -> int:
    """Parallelism cap from FRACTURE_THREADS (default 1).  Raises
    ValueError, naming the variable, unless it is a positive integer."""
    raw = os.environ.get("FRACTURE_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"FRACTURE_THREADS must be a positive integer, got {raw!r}")
    return value


def run_from_config(cfg: RunConfig, progress: bool = False) -> EvolutionTrace:
    domain = cfg.domain()
    params = cfg.mesh_params()
    mesh = build_background_mesh(domain, params)
    precrack = cfg.precrack_ids(mesh)
    return run_evolution(domain, params, cfg.material(), cfg.load(),
                         cfg.voidmod_params(), cfg.solve_options(),
                         precrack_ids=precrack, progress=progress)


def write_outputs(trace: EvolutionTrace, cfg: RunConfig) -> Path:
    """Write energies.csv, trace.json, and optional per-step .vtu/.vtp files."""
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "energies.csv").write_text(trace.energies_csv(), encoding="utf-8")
    with open(out / "trace.json", "w", encoding="utf-8") as f:
        json.dump(trace.to_dict(), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    if cfg["export_vtu"]:
        for rec in trace.steps:
            write_step_vtu(rec, out / f"step_{rec.k:04d}.vtu",
                           out / f"crack_{rec.k:04d}.vtp")
    return out


def write_step_vtu(rec, vtu_path, vtp_path=None) -> None:
    mesh = rec.mesh
    u = DisplacementField(mesh, rec.u_values)
    strains = u.strains()
    strain_norm = np.sqrt((strains * strains).sum(axis=1))
    crack = np.zeros(mesh.n_triangles)
    crack[rec.new_crack_ids] = 1.0
    hist = np.zeros(mesh.n_triangles)
    hist[rec.accum_ids] = 1.0
    export_vtu(mesh, {"displacement": rec.u_values},
               {"strain_norm": strain_norm, "crack": crack, "history": hist},
               vtu_path)
    if vtp_path is not None:
        pts, segs = boundary_polyline(TriangleSet(mesh, rec.amod_ids))
        export_polyline_vtp(pts, segs, vtp_path)
