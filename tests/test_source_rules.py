"""Source rules checked on the package text and on the names it exports."""

import importlib
import importlib.util
import re
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
