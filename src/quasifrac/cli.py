"""Command-line surface: simulate, voidmod, check-mesh, study, energy."""

import argparse
import json
import sys

import numpy as np

from .config import ConfigError, load_config
from .diagnostics import check_energy_balance, run_convergence_study
from .energy import MaterialModel, static_energy
from .mesh import DisplacementField, MeshError, Triangulation, check_admissible
from .runner import run_from_config, thread_cap, write_outputs
from .trisets import TriangleSet
from .voidmod import VoidModParams, modify_voids
from .vtkio import boundary_polyline, export_polyline_vtp


def _load_field(mesh: Triangulation, path) -> DisplacementField:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return DisplacementField(mesh, np.asarray(data["values"], dtype=float))


def _load_ids(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        toks = f.read().split()
    return np.asarray([int(t) for t in toks], dtype=np.int64)


def _positive_float(text) -> float:
    """argparse type of a number greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _eta(text) -> float:
    """argparse type of a void-modification eta in (0, 0.5]."""
    value = _positive_float(text)
    if value > 0.5:
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.5], got {text}")
    return value


def _nonnegative_int(text) -> int:
    """argparse type of an integer of at least zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    trace = run_from_config(cfg, progress=args.progress)
    out = write_outputs(trace, cfg)
    if trace.aborted:
        print(f"aborted: {trace.abort_reason}", file=sys.stderr)
        return 1
    balance = check_energy_balance(trace, cfg.load())
    (out / "balance.csv").write_text(balance.csv(), encoding="utf-8")
    last = trace.steps[-1]
    print(f"done: {len(trace.steps)} steps, final energy "
          f"{last.energy.total:.17g}, crack length/2 "
          f"{last.kn_length_half:.17g}, outputs in {out}")
    return 0


def cmd_voidmod(args) -> int:
    mesh = Triangulation.load(args.mesh)
    ids = _load_ids(args.set)
    if args.field:
        u = _load_field(mesh, args.field)
    else:
        u = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
    res = modify_voids(TriangleSet(mesh, ids), u, VoidModParams(eta=args.eta))
    payload = {
        "a_mod": [int(t) for t in res.a_mod.ids],
        "t_mod": [int(t) for t in res.t_mod.ids],
        "filled": [int(t) for t in res.filled],
        "stats": {k: (v if not isinstance(v, (np.floating, np.integer))
                      else float(v))
                  for k, v in res.stats.items() if k != "window"},
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    if args.vtp:
        pts, segs = boundary_polyline(res.a_mod)
        export_polyline_vtp(pts, segs, args.vtp)
    return 0


def cmd_check_mesh(args) -> int:
    mesh = Triangulation.load(args.mesh)
    rep = check_admissible(mesh)
    print(rep)
    return 0 if rep.ok else 2


def cmd_study(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        thread_cap()
    except ValueError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 2
    study = run_convergence_study(cfg, args.refine, progress=args.progress)
    from pathlib import Path
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "convergence.csv").write_text(study.csv(), encoding="utf-8")
    print(study.csv(), end="")

    rows = study.rows
    ok = True
    coarsest = rows[0]["total_energy"]
    if coarsest > 0 and any(r["total_energy"] > 2.0 * coarsest for r in rows):
        print("FAIL: energy bound grows beyond 2x the coarsest run",
              file=sys.stderr)
        ok = False
    if len(rows) >= 2:
        a = rows[-2]["kappa_sin_half_k"]
        b = rows[-1]["kappa_sin_half_k"]
        if max(a, b) > 0 and abs(a - b) > 0.2 * max(a, b):
            print("FAIL: crack-energy column not Cauchy within 20% "
                  "on the last refinement pair", file=sys.stderr)
            ok = False
        elif max(a, b) == 0:
            print("note: crack-energy Cauchy check vacuous: "
                  "kappa_sin_half_k is 0 on both levels of the last "
                  "refinement pair", file=sys.stderr)
    return 0 if ok else 1


def cmd_energy(args) -> int:
    mesh = Triangulation.load(args.mesh)
    u = _load_field(mesh, args.field)
    mat = MaterialModel(kappa=args.kappa)
    rep = static_energy(mesh, u, mat)
    print(rep.CSV_HEADER)
    print(rep.csv_row(0, 0.0))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasifrac",
        description="Quasi-static brittle fracture on triangular meshes "
                    "with void-modification crack extraction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured evolution")
    p.add_argument("--config", required=True)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("voidmod", help="void-modify a triangle set")
    p.add_argument("--mesh", required=True)
    p.add_argument("--set", required=True, help="text file of triangle ids")
    p.add_argument("--field", default=None, help="JSON nodal field")
    p.add_argument("--eta", type=_eta, default=0.2)
    p.add_argument("--out", default=None)
    p.add_argument("--vtp", default=None,
                   help="write the modified boundary as a polyline file")
    p.set_defaults(func=cmd_voidmod)

    p = sub.add_parser("check-mesh", help="validate admissibility")
    p.add_argument("mesh")
    p.set_defaults(func=cmd_check_mesh)

    p = sub.add_parser("study", help="refinement study on one load")
    p.add_argument("--config", required=True)
    p.add_argument("--refine", type=_nonnegative_int, default=1)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("energy", help="evaluate the truncated energy")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--kappa", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_energy)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MeshError as exc:
        # a mesh file the commands cannot use, or a field that does not fit it
        print(f"mesh error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
