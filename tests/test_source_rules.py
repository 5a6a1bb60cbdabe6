"""Source rules checked on the package text and on the names it exports."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path

from quasifrac.mesh import Triangulation

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "quasifrac"

# a handler that catches everything can silently replace data
CATCH_ALL = re.compile(r"^\s*except\s*(Exception\b[^:]*)?:", re.MULTILINE)
# an import statement that loads any part of scipy.sparse
SPARSE_IMPORT = re.compile(
    r"^\s*(import\s[^\n]*\bscipy\.sparse\b|from\s+scipy\.sparse\b"
    r"|from\s+scipy\s+import\s[^\n]*\bsparse\b)", re.MULTILINE)


def test_no_catch_all_handlers():
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for m in CATCH_ALL.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            found.append(f"{path.name}:{line}: {m.group(0).strip()}")
    assert not found, "catch-all exception handlers:\n" + "\n".join(found)


def test_no_scipy_sparse_imports():
    # the elastic path is numpy-only; importing scipy.sparse costs every
    # process about 20 MiB
    assert all(SPARSE_IMPORT.search(line) for line in (
        "import scipy.sparse as sp", "    import scipy.sparse.linalg",
        "from scipy.sparse import csr_array", "from scipy import sparse"))
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for m in SPARSE_IMPORT.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            found.append(f"{path.name}:{line}: {m.group(0).strip()}")
    assert not found, "scipy.sparse imports:\n" + "\n".join(found)


def test_no_einsum():
    # an einsum's summation order is a detail of the numpy build; each
    # kernel states and fixes its own
    sample = ast.parse("import numpy as np\nfrom numpy import einsum\n"
                       "np.einsum('i,i', a, b)\n")
    assert [name for _, name in _named(sample)].count("einsum") == 2
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _named(ast.parse(path.read_text(
                 encoding="utf-8")))
             if name == "einsum"]
    assert not found, "einsum in the package:\n" + "\n".join(found)


SET_OPS = ("union1d", "setdiff1d", "intersect1d")


def _dedupe_calls(tree):
    """(line, name) of every call of `unique` without `return_inverse` or
    `return_counts`, and of every call of `union1d`, `setdiff1d` or
    `intersect1d`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        wants = {k.arg for k in node.keywords} & {"return_inverse",
                                                   "return_counts"}
        if name in SET_OPS or (name == "unique" and not wants):
            yield node.lineno, name


def test_no_unique_without_inverse_or_counts():
    # ids are deduped by trisets._distinct, one sort and a neighbor
    # comparison, and a difference or intersection of id sets is taken by
    # mask selection; a bare np.unique of ints hashes, several times
    # slower, and numpy's set functions run it on ids already distinct
    sample = ast.parse(
        "import numpy as np\nfrom numpy import union1d\nnp.unique(a)\n"
        "np.unique(a, axis=0)\nnp.unique(a, return_inverse=True)\n"
        "np.unique(a, return_counts=True)\nnp.union1d(a, b)\n"
        "union1d(a, b)\nnp.setdiff1d(a, b)\nnp.intersect1d(a, b)\n"
        "np.isin(a, b)\n")
    assert [line for line, _ in _dedupe_calls(sample)] == [3, 4, 7, 8, 9, 10]
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _dedupe_calls(ast.parse(path.read_text(
                 encoding="utf-8")))]
    assert not found, "dedupes outside _distinct and set functions:\n" + \
        "\n".join(found)


def _defs_naming(target):
    """The innermost def around each place the package names `target`,
    as a one-item list, or [] at module level."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = list(_defs(tree, path.stem))
        for line, name in _named(tree):
            if name == target:
                found.append([qual for qual, first, last in defs
                              if first <= line <= last][-1:])
    return found


def test_one_band_factorization_call():
    # every band, the intact reference's halves included, is factored by
    # the one dpbtrf call in solver._factor
    found = _defs_naming("dpbtrf")
    assert found == [["solver._factor"]], found


def test_element_blocks_computed_once_per_reference():
    # element blocks are computed once per mesh and elasticity, by the
    # intact reference, and every band and product is built from its copy
    found = _defs_naming("_element_blocks")
    assert found == [["solver._intact_reference"]], found


def test_one_polygon_clipper():
    # every clipped area, of a triangle against a rectangle or against
    # another triangle, comes out of the Sutherland-Hodgman emission in
    # _kernels.clip_areas, which walks its padded polygons by `_successor`;
    # no other def names it
    found = _defs_naming("_successor")
    assert found and all(f == ["_kernels.clip_areas"] for f in found), found


def test_no_module_global_looks_traced():
    # the benchmark counts module globals carrying `__wrapped__` as traced
    # functions, and an untraced run must count none; numpy's dispatched
    # functions carry it, so the package reaches them through `np.`
    modules = [importlib.import_module(f"quasifrac.{path.stem}")
               for path in sorted(SRC.glob("*.py"))]
    found = [f"{module.__name__}.{attr}" for module in modules
             for attr, value in vars(module).items()
             if callable(value) and hasattr(value, "__wrapped__")]
    assert not found, f"module globals with __wrapped__: {found}"


def test_benchmark_wrap_targets_exist():
    # the benchmark's span tracer wraps program functions and mesh tables by
    # name; loading it does not install it
    spec = importlib.util.spec_from_file_location(
        "qfbench_tracer", REPO / "qfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}"
               for _, module, attr in tracer.FUNCTIONS + (tracer.CG,)
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    missing += [f"Triangulation.{name}" for name in tracer.TABLES
                if not isinstance(Triangulation.__dict__.get(name),
                                  cached_property)]
    assert not missing, f"benchmark wrap targets absent: {missing}"


# benchmark wrap targets that a simulate run and a void modification do
# not call, each with the reason
UNTRACED = (
    ("voidmod.build_boundary_graph", "called by the benchmark's output "
     "checks only"),
    ("trisets.closure_components_minus_vertex", "no program caller; its "
     "deletion needs a benchmark change"),
    ("solver.cg", "`cg_deflated` has no program caller; its deletion needs "
     "a benchmark change"),
)

# a traced crack run at eps 1/16 with its outputs and balance check, then
# one void modification of a ring around a hole; prints the calls per
# wrap target and the targets the tracer could not find
TRACED_RUN = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("qfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
active = tracer.install()
from quasifrac import config, diagnostics, mesh, runner, trisets, voidmod
cfg = config.parse_config(
    "eps = 0.0625\\nn_steps = 4\\namplitude = 3.2\\nload = opening\\n"
    "precrack = 0.0 0.5 0.45 0.5 0.06\\nseed = 1\\nmulti_starts = 3\\n"
    f"output_dir = {sys.argv[2]}\\n")
trace = runner.run_from_config(cfg)
assert not trace.aborted
runner.write_outputs(trace, cfg)
diagnostics.check_energy_balance(trace, cfg.load())
m = mesh.build_background_mesh(cfg.domain(), cfg.mesh_params())
c = m.nodes[m.triangles].mean(axis=1)
r = np.abs(c - 0.5).max(axis=1)
ring = trisets.TriangleSet(m, np.flatnonzero((r > 0.15) & (r < 0.3)))
voidmod.modify_voids(ring, mesh.DisplacementField(m, np.zeros((m.n_nodes, 2))),
                     cfg.voidmod_params())
metrics = active.metrics()
names = [name for name, _, _ in tracer.FUNCTIONS + (tracer.CG,)]
print(json.dumps({"calls": {n: metrics[n + ".calls"] for n in names},
                  "missing": active.missing}))
"""


def test_every_traced_layer_runs(tmp_path):
    # a subprocess, so that this process stays untraced
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-c", TRACED_RUN,
         str(REPO / "qfbench" / "tracer.py"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert got["missing"] == []
    listed = {name for name, _ in UNTRACED}
    assert set(got["calls"]) >= listed, "UNTRACED names no wrap target"
    idle = {n for n, calls in got["calls"].items() if calls == 0}
    assert sorted(idle - listed) == [], "wrap targets nothing calls"
    assert sorted(listed - idle) == [], \
        "UNTRACED entries that now have a call"


def test_no_function_takes_mesh_and_params():
    # a mesh holds its own params; a second copy could only disagree
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args
                         + a.kwonlyargs}
                if {"mesh", "params"} <= names:
                    found.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not found, "functions taking both mesh and params:\n" + \
        "\n".join(found)


def _mutable_globals(module):
    """Names a module binds to a dict, list or set (dunder names aside)."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("__")
                  and isinstance(value, (dict, list, set)))


def test_voidmod_and_trisets_keep_no_module_state():
    # `study` runs refinement levels on threads: a memo bound at module
    # level would be shared between them
    probe = types.ModuleType("probe")
    probe.memo, probe.seen, probe.order, probe.frozen = {}, set(), [], ()
    assert _mutable_globals(probe) == ["memo", "order", "seen"]
    found = {name: _mutable_globals(importlib.import_module(name))
             for name in ("quasifrac.voidmod", "quasifrac.trisets")}
    assert not any(found.values()), f"module-level containers: {found}"


# functions, methods and properties that only tests call, each with the
# reason it stays in the package
TEST_ONLY = (
    ("config.RunConfig.canonical",
     "canonical config text, pinned by the golden-file test"),
    ("diagnostics.BalanceReport.passed", "balance verdict tests assert"),
    ("diagnostics.BalanceReport.sharp", "zero-constant balance verdict"),
    ("diagnostics.stability_spot_check",
     "minimality probe of a step; `study` does not report it yet"),
    ("mesh.ValidationReport.kinds", "violation kinds tests compare"),
    ("mesh.Triangulation.save", "writes mesh files the CLI tests load"),
    ("voidmod.BoundaryGraph.edge_count_identity",
     "edge-count identity of the boundary graph, checked by tests"),
    ("voidmod.BoundaryGraph.d_sum_identity",
     "cycle-count identity of the boundary graph, checked by tests"),
)


def _named(tree):
    """(line, name) of every identifier the code reads (names, attributes,
    imports) and of every string constant that is exactly an identifier,
    as the tracer names its targets; comments and prose do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.lineno, node.value


def _defs(tree, prefix):
    """(qualified name, first line, last line) of every def in the tree,
    decorators included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield f"{prefix}.{node.name}", first, node.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from _defs(node, f"{prefix}.{node.name}")


def test_no_dead_code():
    # every function, method and property of the package is named by the
    # program or the benchmark outside its own def, or listed in TEST_ONLY
    paths = sorted(SRC.glob("*.py")) + sorted((REPO / "qfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    named = {p: list(_named(tree)) for p, tree in trees.items()}
    unnamed = []
    for path in sorted(SRC.glob("*.py")):
        for qual, first, last in _defs(trees[path], path.stem):
            name = qual.rsplit(".", 1)[1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(n == name and not (p == path and first <= line <= last)
                       for p, found in named.items() for line, n in found):
                unnamed.append(qual)
    listed = [qual for qual, _ in TEST_ONLY]
    assert sorted(set(unnamed) - set(listed)) == [], \
        "functions no program path names; delete them or list in TEST_ONLY"
    assert sorted(set(listed) - set(unnamed)) == [], \
        "TEST_ONLY entries that are gone or now have a program caller"


def _module_bindings(tree):
    """(name, first line, last line) of every name the module body binds by
    assignment, class or import; functions are `test_no_dead_code`'s."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.ClassDef):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_no_unread_module_names():
    # every module-level constant, class and import of the package is read
    # by the program or the benchmark outside its own statement
    sample = ast.parse("import os, numpy as np\nfrom . import mesh\n"
                       "A, (B, C) = 1, (2, 3)\nD: int = 4\nclass E:\n"
                       "    F = 5\n__all__ = []\ndef g():\n    pass\n")
    assert [(name, first) for name, first, _ in _module_bindings(sample)] \
        == [("os", 1), ("np", 1), ("mesh", 2), ("A", 3), ("B", 3),
            ("C", 3), ("D", 4), ("E", 5)]
    paths = sorted(SRC.glob("*.py")) + sorted((REPO / "qfbench").glob("*.py"))
    named = {p: list(_named(ast.parse(p.read_text(encoding="utf-8"))))
             for p in paths}
    unread = [f"{path.stem}.{name}"
              for path in sorted(SRC.glob("*.py"))
              for name, first, last in _module_bindings(
                  ast.parse(path.read_text(encoding="utf-8")))
              if not any(n == name and not (p == path and first <= line <= last)
                         for p, found in named.items() for line, n in found)]
    assert not unread, f"module-level names nothing reads: {unread}"
