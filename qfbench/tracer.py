"""Span tracer for the traced benchmark child.

`install()` replaces functions of `quasifrac` with timing wrappers at the
places their callers look them up (every module global bound to the
function, plus the lazily built mesh tables and SciPy's `splu`).  It is
called only in the traced child, so untraced runs execute the program
unchanged.  Spans (name, start, end, parent span, run id) stay in memory
until `Tracer.dump` writes them once at the end of the child.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

# (metric prefix, defining module, attribute): the functions wrapped as spans
FUNCTIONS = (
    ("mesh.build_background_mesh", "quasifrac.mesh", "build_background_mesh"),
    ("mesh.interpolate", "quasifrac.mesh", "interpolate"),
    ("solver.minimize_step", "quasifrac.solver", "minimize_step"),
    ("solver.solve_elastic", "quasifrac.solver", "solve_elastic"),
    ("solver.assemble_stiffness", "quasifrac.solver", "assemble_stiffness"),
    ("solver.gauge_pins", "quasifrac.solver", "_gauge_pins"),
    ("energy.classify_cracked", "quasifrac.energy", "classify_cracked"),
    ("energy.energy_given_crack_set", "quasifrac.energy",
     "energy_given_crack_set"),
    ("voidmod.modify_voids", "quasifrac.voidmod", "modify_voids"),
    ("voidmod.fill_holes", "quasifrac.voidmod", "fill_holes"),
    ("voidmod.remove_separating_small", "quasifrac.voidmod",
     "remove_separating_small"),
    ("voidmod.peel_round", "quasifrac.voidmod", "_peel_round"),
    ("voidmod.heal_triangles", "quasifrac.voidmod", "heal_triangles"),
    ("voidmod.build_boundary_graph", "quasifrac.voidmod",
     "build_boundary_graph"),
    ("trisets.complement_components", "quasifrac.trisets",
     "complement_components"),
    ("trisets.closure_components_minus_vertex", "quasifrac.trisets",
     "closure_components_minus_vertex"),
    ("evolution.run_evolution", "quasifrac.evolution", "run_evolution"),
    ("runner.write_outputs", "quasifrac.runner", "write_outputs"),
    ("diagnostics.check_energy_balance", "quasifrac.diagnostics",
     "check_energy_balance"),
)
# leaf kernels reported as calls, seconds and their own work count
CG = ("solver.cg", "quasifrac._kernels", "cg_deflated")
LU_FACTOR = "solver.lu_factor"
LU_SOLVE = "solver.lu_solve"
# lazily built Triangulation tables, timed on first touch per mesh
TABLES = ("collar_mask", "area_in_omega", "area_in_omega_prime",
          "is_background", "tri_keys", "edge_table")
MODULES = ("mesh", "solver", "energy", "voidmod", "trisets", "evolution",
           "runner", "diagnostics")
# bytes per stored LU factor entry: one float64 value
LU_ENTRY_BYTES = 8
# run id of spans recorded while the harness checks outputs
CHECK_RUN = "check"
# functions that only the output checks call; their metrics come from the
# check's spans and stay out of the module self times
CHECK_LAYERS = ("voidmod.build_boundary_graph",)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name, _, _ in FUNCTIONS:
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    spec += [(f"{CG[0]}.calls", "count", "lower"), (f"{CG[0]}.s", "s", "lower"),
             (f"{CG[0]}.iters", "count", "lower"),
             (f"{LU_FACTOR}.calls", "count", "lower"),
             (f"{LU_FACTOR}.s", "s", "lower"),
             (f"{LU_FACTOR}.lu_bytes", "B", "lower"),
             (f"{LU_SOLVE}.calls", "count", "lower"),
             (f"{LU_SOLVE}.s", "s", "lower"),
             ("solver.winning_solve_share", "ratio", "higher"),
             ("solver.converged_steps", "count", "higher")]
    spec += [(f"mesh.{t}.s", "s", "lower") for t in TABLES]
    spec += [("mesh.tables.s", "s", "lower"),
             ("runner.write_outputs.bytes", "B", "lower")]
    spec += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    spec += [("trace.overhead_s", "s", "lower"),
             ("trace.unattributed_s", "s", "lower")]
    return spec


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None, run id]
        self.counts = Counter()
        self.run_id = "setup"
        self.missing = []    # wrap targets absent from the program
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               self.run_id])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def root_seconds(self, run_id):
        """Summed duration of the top-level spans of one operation."""
        return sum(e - s for _, s, e, parent, run in self.spans
                   if parent is None and run == run_id)

    def metrics(self):
        """Per-layer metrics from the spans of set-up and operations, and
        those of CHECK_LAYERS from the output checks; self time is a span's
        duration minus that of its direct children (calls never overlap)."""
        child = [0.0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent is not None:
                child[parent] += e - s
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, s, e, _, run) in enumerate(self.spans):
            if run == CHECK_RUN and name not in CHECK_LAYERS:
                continue
            calls[name] += 1
            total[name] += e - s
            own[name] += e - s - child[i]
        out = {}
        for name, _, _ in FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        for name in (CG[0], LU_FACTOR, LU_SOLVE):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        out[f"{CG[0]}.iters"] = self.counts["cg_iters"]
        out[f"{LU_FACTOR}.lu_bytes"] = LU_ENTRY_BYTES * self.counts["lu_nnz"]
        solves = calls["solver.solve_elastic"]
        out["solver.winning_solve_share"] = (
            self.counts["winning_outer_iters"] / solves if solves else 0.0)
        out["solver.converged_steps"] = self.counts["converged_steps"]
        for t in TABLES:
            out[f"mesh.{t}.s"] = total[f"mesh.{t}"]
        out["mesh.tables.s"] = sum(total[f"mesh.{t}"] for t in TABLES)
        out["runner.write_outputs.bytes"] = self.counts["bytes_written"]
        module_self = defaultdict(float)
        for name, value in own.items():
            if name not in CHECK_LAYERS:
                module_self[name.split(".", 1)[0]] += value
        for m in MODULES:
            out[f"{m}.self_s"] = module_self[m]
        return {name: out[name] for name, _, _ in per_layer_spec()
                if name in out}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, f)
            f.write("\n")

    # -- hooks counting work inside a span ---------------------------------

    def _on_cg(self, result):
        self.counts["cg_iters"] += int(result[1])

    def _on_minimize(self, result):
        self.counts["winning_outer_iters"] += int(result.outer_iters)
        self.counts["converged_steps"] += bool(result.converged)

    def _on_write(self, out_dir):
        for fname in ("energies.csv", "trace.json"):
            path = out_dir / fname
            if path.exists():
                self.counts["bytes_written"] += path.stat().st_size

    def _splu(self, splu):
        timed = self.wrap(LU_FACTOR, splu)

        @functools.wraps(splu)
        def factor(*args, **kwargs):
            lu = timed(*args, **kwargs)
            self.counts["lu_nnz"] += int(lu.nnz)
            return _TimedLU(lu, self.wrap(LU_SOLVE, lu.solve))
        return factor


class _TimedLU:
    """SuperLU factor whose `solve` is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "quasifrac" or name.startswith("quasifrac.")]


def _rebind(original, replacement, extra_modules=()):
    """Point every program global bound to `original` at `replacement`."""
    n = 0
    for mod in list(_program_modules()) + list(extra_modules):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install():
    """Wrap the program's layer functions; returns the active Tracer."""
    for _, module, _ in FUNCTIONS + (CG,):
        importlib.import_module(module)
    tracer = Tracer()
    hooks = {"solver.minimize_step": tracer._on_minimize,
             "runner.write_outputs": tracer._on_write,
             CG[0]: tracer._on_cg}
    for name, module, attr in FUNCTIONS + (CG,):
        fn = getattr(sys.modules[module], attr, None)
        if fn is None:
            tracer.missing.append(name)
            continue
        _rebind(fn, tracer.wrap(name, fn, hooks.get(name)))

    import scipy.sparse.linalg as spla
    _rebind(spla.splu, tracer._splu(spla.splu), extra_modules=(spla,))

    from quasifrac.mesh import Triangulation
    for table in TABLES:
        prop = Triangulation.__dict__.get(table)
        if not isinstance(prop, cached_property):
            tracer.missing.append(f"mesh.{table}")
            continue
        timed = cached_property(tracer.wrap(f"mesh.{table}", prop.func))
        timed.__set_name__(Triangulation, table)
        setattr(Triangulation, table, timed)
    return tracer


def wrapped_count():
    """Number of program functions and tables currently traced (0 when the
    tracer was never installed in this process)."""
    n = 0
    for mod in _program_modules():
        n += sum(1 for v in vars(mod).values()
                 if callable(v) and hasattr(v, "__wrapped__"))
    tri = getattr(sys.modules.get("quasifrac.mesh"), "Triangulation", None)
    if tri is not None:
        n += sum(1 for t in TABLES
                 if hasattr(getattr(tri.__dict__.get(t), "func", None),
                            "__wrapped__"))
    return n
