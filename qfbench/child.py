"""One benchmark child process.

It sets up one workload, runs its operation one call at a time until the
time budget is spent, checks every operation's outputs and prints one JSON
line with its timings, check failures, output digests and peak memory.
With `--mode setup` it stops after set-up; with `--mode trace` the span
tracer is installed before set-up.  Run by qfbench/run.py, which passes the
workload spec as JSON.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from quasifrac import config, diagnostics, evolution, mesh, runner, trisets, \
    voidmod

import tracer as qtracer


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Simulate:
    """What `quasifrac simulate` does, split at the end of set-up."""

    size = 1  # attempts per operation

    def __init__(self, workdir: Path):
        self.cfg_path = workdir / "run.cfg"

    def setup(self):
        self.cfg = config.load_config(self.cfg_path)
        self.domain = self.cfg.domain()
        self.params = self.cfg.mesh_params()
        self.material = self.cfg.material()
        self.load = self.cfg.load()
        self.vm = self.cfg.voidmod_params()
        self.opts = self.cfg.solve_options()
        background = mesh.build_background_mesh(self.domain, self.params)
        self.precrack = self.cfg.precrack_ids(background)

    def op(self):
        trace = evolution.run_evolution(
            self.domain, self.params, self.material, self.load, self.vm,
            self.opts, precrack_ids=self.precrack, snap=self.cfg["snap"])
        out = runner.write_outputs(trace, self.cfg)
        if not trace.aborted:
            balance = diagnostics.check_energy_balance(trace, self.load)
            (out / "balance.csv").write_text(balance.csv(), encoding="utf-8")
        return trace, out

    def check(self, result):
        """(problems, digests, failed attempts) of one operation."""
        trace, out = result
        energies = (out / "energies.csv").read_bytes()
        digests = {"energies.csv": sha256(energies),
                   "trace.json": sha256((out / "trace.json").read_bytes())}
        problems = check_trace(trace, energies.decode(), self.cfg["n_steps"])
        return problems, digests, int(bool(problems))


def check_trace(trace, energies_csv, n_steps):
    problems = []
    if trace.aborted:
        problems.append(f"aborted: {trace.abort_reason}")
    prev = None
    for rec in trace.steps:
        if not rec.tmod_nested:
            problems.append(f"step {rec.k}: t_mod does not nest")
        keys = {rec.mesh.tri_keys[int(i)] for i in rec.accum_ids}
        if prev is not None and not prev <= keys:
            problems.append(f"step {rec.k}: accumulated set shrank")
        prev = keys
    rows = energies_csv.splitlines()[1:]
    if len(rows) != n_steps + 1:
        problems.append(f"energies.csv has {len(rows)} rows, "
                        f"expected {n_steps + 1}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.split(",")):
            problems.append(f"energies.csv row not finite: {row}")
    return problems


class VoidMod:
    """Every generated input through `modify_voids` on one mesh.  The check
    builds the planar boundary graph of each result for its Euler identity;
    no program path builds it, so it is not part of the operation."""

    def __init__(self, workdir: Path, spec):
        self.inputs_path = workdir / "inputs.npz"
        self.eta = spec["eta"]
        self.cfg_path = workdir / "run.cfg"

    def setup(self):
        cfg = config.load_config(self.cfg_path)
        self.mesh = mesh.build_background_mesh(cfg.domain(), cfg.mesh_params())
        for table in qtracer.TABLES:  # lazy tables are part of set-up here
            getattr(self.mesh, table)
        with np.load(self.inputs_path) as data:
            n = len(data.files) // 2
            self.inputs = [(data[f"ids_{i}"], data[f"field_{i}"])
                           for i in range(n)]
        self.size = len(self.inputs)
        self.vm = voidmod.VoidModParams(eta=self.eta)

    def op(self):
        return [voidmod.modify_voids(trisets.TriangleSet(self.mesh, ids),
                                     mesh.DisplacementField(self.mesh, field),
                                     self.vm)
                for ids, field in self.inputs]

    def check(self, results):
        """(problems, digests, failed attempts); one attempt per input."""
        problems, payload, failed = [], [], 0
        for i, ((ids, _), res) in enumerate(zip(self.inputs, results)):
            graph = voidmod.build_boundary_graph(res.a_mod) \
                if len(res.a_mod) else None
            found = check_modification(self.mesh, ids, res, graph)
            problems += [f"input {i}: {p}" for p in found]
            failed += bool(found)
            payload.append(voidmod_payload(res))
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return problems, {"voidmod.json": sha256(text.encode())}, failed


def voidmod_payload(res):
    """The record `quasifrac voidmod` writes for one modification."""
    return {"a_mod": [int(t) for t in res.a_mod.ids],
            "t_mod": [int(t) for t in res.t_mod.ids],
            "filled": [int(t) for t in res.filled],
            "stats": {k: float(v) for k, v in res.stats.items()
                      if k != "window"}}


def check_modification(msh, ids, res, graph):
    problems = []
    if not res.t_mod.issubset(trisets.TriangleSet(msh, ids)):
        problems.append("t_mod is not a subset of A")
    if graph is None and len(res.a_mod):
        problems.append("no boundary graph for a nonempty A_mod")
    if graph is not None:
        v_minus_e_plus_f, components = graph.euler_identity()
        if v_minus_e_plus_f != components:
            problems.append(f"Euler identity fails: {v_minus_e_plus_f} "
                            f"!= {components}")
    for k, v in res.stats.items():
        if k != "window" and not math.isfinite(float(v)):
            problems.append(f"stat {k} is not finite: {v}")
    return problems


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--spec", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="time budget; at least one operation runs")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this child")
    args = p.parse_args(argv)
    spec = json.loads(args.spec)
    workdir = Path(args.workdir)

    tracer = qtracer.install() if args.mode == "trace" else None
    work = Simulate(workdir) if spec["kind"] == "simulate" else \
        VoidMod(workdir, spec)
    work.setup()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "wrapped": qtracer.wrapped_count(),
              "versions": versions()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    op_s, problems, digests = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        if tracer is not None:
            tracer.run_id = len(op_s)
        t = time.perf_counter()
        try:
            out = work.op()
        except Exception:
            traceback.print_exc()
            out = None
        op_s.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.run_id = qtracer.CHECK_RUN
        if out is None:
            found, digest, bad = ["operation raised"], {}, work.size
        else:
            found, digest, bad = work.check(out)
        if digests and digest != digests[0]:
            found.append("outputs differ from the first operation's")
            bad = work.size
        out = None  # the next operation's peak memory excludes this output
        digests.append(digest)
        attempted += work.size
        failed += bad
        problems += [f"op {len(op_s) - 1}: {f}" for f in found]
        # start another operation only if it should end within the budget
        spent = time.monotonic() - start
        if spent + spent / len(op_s) > args.seconds:
            break

    result.update(op_s=op_s, attempted=attempted, failed=failed,
                  problems=problems, digests=digests[0],
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["unattributed_s"] = op_s[0] - tracer.root_seconds(0)
        result["missing"] = tracer.missing
        tracer.dump(workdir / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
