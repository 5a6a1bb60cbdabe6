"""Fast self-test of the benchmark harness on tiny workloads.

Run from the repository root:  python3 -m pytest -q qfbench/selftest
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import gen_voidmod  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "simulate": {"kind": "simulate", "setup_samples": 2,
                 "config": run.CRACK.format(eps=1 / 16, n_steps=2)},
    "voidmod": {"kind": "voidmod", "setup_samples": 2,
                "config": f"eps = {1 / 16}\n", "eta": 0.2, "inputs": 2},
}
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in CONTRACT[kind]}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every harness path: untraced and traced, for both kinds."""
    out = {}
    for kind, spec in TINY.items():
        for trace in (0, 1):
            workdir = tmp_path_factory.mktemp(f"{kind}{trace}")
            out[kind, trace] = run.run_workload(spec, 1, 0, trace, workdir)
    return out


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_run_is_unwrapped_and_correct(results, kind):
    res = results[kind, 0]
    assert res["wrapped"] == [0]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == names("end_to_end")
    assert all(v > 0 for v in res["metrics"].values())
    assert len(res["samples"]["setup_s"]) == TINY[kind]["setup_samples"]


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_reports_every_layer(results, kind):
    res = results[kind, 1]
    before, traced, after = res["wrapped"]
    assert before == after == 0 and traced > 0
    assert res["missing"] == []
    assert res["correct"]
    layers = res["metrics"]
    assert set(layers) == names("per_layer")
    assert layers["voidmod.modify_voids.calls"] > 0
    checked = layers["voidmod.build_boundary_graph.calls"] > 0
    assert checked == (kind == "voidmod")
    assert layers["mesh.tables.s"] > 0
    solved = layers["solver.minimize_step.calls"] > 0
    assert solved == (kind == "simulate")


def test_per_layer_contract_matches_tracer():
    spec = [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]]
    assert spec == tracer.per_layer_spec()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_same_seed_same_digests(results, tmp_path, kind):
    again = run.run_workload(TINY[kind], 1, 0, 0, tmp_path)
    assert again["digests"] == results[kind, 0]["digests"]
    assert results[kind, 1]["digests"] == results[kind, 0]["digests"]


def test_seed_changes_voidmod_inputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY["voidmod"]["config"])
    a = gen_voidmod.generate(1, cfg, 2)
    b = gen_voidmod.generate(1, cfg, 2)
    c = gen_voidmod.generate(2, cfg, 2)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not all(np.array_equal(a[k], c[k]) for k in a)


def test_checks_flag_bad_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY["voidmod"]["config"])
    data = gen_voidmod.generate(3, cfg, 1)
    msh = gen_voidmod.background_mesh(cfg)
    ids = data["ids_0"]
    res = child.voidmod.modify_voids(
        child.trisets.TriangleSet(msh, ids),
        child.mesh.DisplacementField(msh, data["field_0"]),
        child.voidmod.VoidModParams(eta=0.2))
    graph = child.voidmod.build_boundary_graph(res.a_mod)
    assert child.check_modification(msh, ids, res, graph) == []
    res.t_mod = child.trisets.TriangleSet(
        msh, np.setdiff1d(np.arange(msh.n_triangles), ids)[:3])
    res.stats["area_A"] = float("nan")
    graph.n_faces += 1
    problems = child.check_modification(msh, ids, res, graph)
    assert any("subset" in p for p in problems)
    assert any("finite" in p for p in problems)
    assert any("Euler" in p for p in problems)
    assert child.check_modification(msh, ids, res, None)

    class Trace:
        aborted, abort_reason, steps = True, "solver failed", []
    problems = child.check_trace(Trace(), "header\n0,0,nan\n", 2)
    assert any("aborted" in p for p in problems)
    assert any("rows" in p for p in problems)
    assert any("finite" in p for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "crack32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
