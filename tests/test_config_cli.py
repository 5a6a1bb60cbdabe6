import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasifrac.config import (
    ParseError,
    RunConfig,
    ValidationError,
    load_config,
    parse_config,
)
from _oracles import precrack_ids_by_loop

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "configs" / "benchmark.cfg"


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg["eps"] == 0.0625
    assert cfg["theta0"] == pytest.approx(math.pi / 4)
    assert cfg["load"] == "stretch"
    assert cfg["eta"] == "auto"
    assert cfg["output_dir"] == "out"
    # every schema key is materialized
    assert len(cfg.values) == 21


def test_negative_eps_names_key():
    with pytest.raises(ValidationError) as err:
        parse_config("eps = -1")
    assert "eps" in str(err.value)


@pytest.mark.parametrize("keys, error", [
    (("f_profile", "c1", "c2", "notch", "cg_rel_tol", "max_cg",
      "bg_dist_factor"), ParseError),
    (("snap",), ValidationError),
], ids=["f_profile", "snap"])
def test_table_profile_rejected(keys, error):
    # the model has one density, one domain shape and one crack rule, the
    # ellipticity bounds are the elasticity's eigenvalues and every solve
    # is direct, so those keys are gone; every run uses the background
    # mesh, so only snap = off is accepted
    for key in keys:
        with pytest.raises(error) as err:
            parse_config(f"{key} = on\n")
        assert key in str(err.value)
    assert parse_config("snap = off\n")["snap"] is False


@pytest.mark.parametrize("precrack", [
    (0.0, 0.5, 0.45, 0.5, 0.06),
    (0.0, 0.35, 0.35, 0.55, 0.08),
    (0.4, 0.4, 0.4, 0.4, 0.2),
    (1.5, 1.5, 2.0, 1.8, 0.2),
], ids=["horizontal", "inclined", "degenerate", "off-body"])
def test_precrack_ids_match_loop(mesh16, mesh32, precrack):
    cfg = RunConfig(values={"precrack": list(precrack)})
    for mesh in (mesh16, mesh32):
        ids = cfg.precrack_ids(mesh)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, precrack_ids_by_loop(mesh, precrack))
        assert (len(ids) == 0) == (precrack[0] > 1.25)


def test_unknown_key_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config("eps = 0.1\n\nwibble = 3\n")
    assert "line 3" in str(err.value)
    assert "wibble" in str(err.value)


def test_bad_value_reports_line():
    with pytest.raises(ValidationError) as err:
        parse_config("# comment\nn_steps = many\n")
    assert "line 2" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_config("eps = 0.1\neps = 0.2\n")


def test_crack_config_is_ladder_level():
    # the shipped crack smoke config is the crack ladder's eps 1/32 level
    from test_acceptance import _crack_config
    shipped = load_config(REPO / "configs" / "crack.cfg").values
    ladder = _crack_config(32, 8).values
    shipped.pop("output_dir")
    ladder.pop("output_dir")
    assert shipped == ladder


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_config_parses(path):
    cfg = load_config(path)
    canon = cfg.canonical()
    again = parse_config(canon)
    assert again.canonical() == canon
    assert again.values == cfg.values


def test_roundtrip_canonical_golden():
    cfg = load_config(BENCH)
    canon = cfg.canonical()
    golden = (REPO / "configs" / "benchmark.canonical.cfg").read_text()
    assert canon == golden
    again = parse_config(canon)
    assert again.canonical() == canon  # canonical form is a fixed point
    assert again.values == cfg.values


def test_builders():
    cfg = load_config(BENCH)
    dom = cfg.domain()
    assert dom.omega == (0.0, 0.0, 1.0, 1.0)
    load = cfg.load()
    assert load.kind == "opening" and load.center == (0.5, 0.5)
    vm = cfg.voidmod_params()
    assert vm.eta == pytest.approx(0.2)
    mat = cfg.material()
    assert np.array_equal(mat.elasticity, np.eye(3))


def _run_cli(args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "quasifrac.cli", *args],
                          capture_output=True, text=True, env=e, cwd=REPO)


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg_text = BENCH.read_text().replace("out/benchmark", str(base / "o1"))
    cfg_text = cfg_text.replace("n_steps = 8", "n_steps = 5")
    cfg_path = base / "bench.cfg"
    cfg_path.write_text(cfg_text)
    res = _run_cli(["simulate", "--config", str(cfg_path)])
    assert res.returncode == 0, res.stderr
    return base, cfg_path


def test_cli_simulate_outputs(smoke_outputs):
    base, _ = smoke_outputs
    out = base / "o1"
    assert (out / "energies.csv").exists()
    assert (out / "trace.json").exists()
    assert (out / "balance.csv").exists()
    header = (out / "energies.csv").read_text().splitlines()[0]
    assert header == "step,t,total,elastic,crack,cracked_area,n_cracked"
    trace = json.loads((out / "trace.json").read_text())
    assert not trace["aborted"]
    assert len(trace["steps"]) == 6


def test_cli_determinism_across_threads(smoke_outputs):
    base, cfg_path = smoke_outputs
    text = cfg_path.read_text().replace(str(base / "o1"), str(base / "o2"))
    cfg2 = base / "bench2.cfg"
    cfg2.write_text(text)
    res = _run_cli(["simulate", "--config", str(cfg2)],
                   env={"FRACTURE_THREADS": "7"})
    assert res.returncode == 0, res.stderr
    for name in ("energies.csv", "trace.json"):
        assert (base / "o1" / name).read_bytes() == \
               (base / "o2" / name).read_bytes()


def test_cli_study_determinism_across_threads(tmp_path):
    # study is the command that reads FRACTURE_THREADS: at 2 its two
    # refinement levels run on two threads
    outs, codes = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        cfg = tmp_path / f"bench_{threads}.cfg"
        cfg.write_text(BENCH.read_text().replace("out/benchmark", str(out)))
        res = _run_cli(["study", "--config", str(cfg), "--refine", "1"],
                       env={"FRACTURE_THREADS": threads})
        codes.append(res.returncode)
        outs.append((out / "convergence.csv").read_bytes())
    assert codes[0] == codes[1]
    assert outs[0] == outs[1]


def test_cli_check_mesh(tmp_path, mesh16):
    path = tmp_path / "m.json"
    mesh16.save(path)
    res = _run_cli(["check-mesh", str(path)])
    assert res.returncode == 0
    assert "admissible" in res.stdout


def test_cli_voidmod_and_energy(tmp_path, mesh16):
    mesh_path = tmp_path / "m.json"
    mesh16.save(mesh_path)
    rng = np.random.default_rng(0)
    ids = rng.choice(mesh16.n_triangles, size=120, replace=False)
    ids_path = tmp_path / "ids.txt"
    ids_path.write_text("\n".join(str(int(t)) for t in ids))
    field_path = tmp_path / "u.json"
    vals = (rng.standard_normal((mesh16.n_nodes, 2)) * 0.01).tolist()
    field_path.write_text(json.dumps({"values": vals}))

    out_json = tmp_path / "mod.json"
    vtp = tmp_path / "amod.vtp"
    res = _run_cli(["voidmod", "--mesh", str(mesh_path), "--set", str(ids_path),
                    "--field", str(field_path), "--eta", "0.2",
                    "--out", str(out_json), "--vtp", str(vtp)])
    assert res.returncode == 0, res.stderr
    payload = json.loads(out_json.read_text())
    assert set(payload) == {"a_mod", "t_mod", "filled", "stats"}
    assert vtp.exists()

    res = _run_cli(["energy", "--mesh", str(mesh_path),
                    "--field", str(field_path)])
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0].startswith("step,t,total")


def test_cli_study_smoke(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("eps = 0.0625\nn_steps = 2\namplitude = 0.3\n"
                   f"output_dir = {tmp_path / 'st'}\n")
    res = _run_cli(["study", "--config", str(cfg), "--refine", "1"])
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "st" / "convergence.csv").exists()


@pytest.mark.parametrize("line, key", [
    ("eps = -3", "eps"),
    # no config key can supply a load table
    ("load = tabulated", "load"),
    # every run uses the background mesh, which needs theta0 <= pi/4
    ("theta0 = 1.0", "theta0"),
    # no Dirichlet collar
    ("omega_prime = 0 0 1 1", "omega_prime"),
    # a center is one point
    ("center = 1 2 3", "center"),
    ("center = 0.5", "center"),
    ("seed = -1", "seed"),
    # the elasticity must be symmetric positive definite
    ("elasticity = 1 2 0 0 1 0 0 0 1", "elasticity"),
    ("elasticity = -1 0 0 0 1 0 0 0 1", "elasticity"),
], ids=["eps", "load", "theta0", "omega_prime", "center3", "center1", "seed",
        "asymmetric", "indefinite"])
def test_cli_rejects_bad_config(tmp_path, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\noutput_dir = {tmp_path / 'out'}\n")
    res = _run_cli(["simulate", "--config", str(cfg)])
    assert res.returncode == 2
    assert res.stderr.startswith("config error: ")
    assert f"{key}: " in res.stderr


@pytest.mark.parametrize("kappa", ["-1", "0"])
def test_cli_energy_rejects_nonpositive_kappa(tmp_path, mesh16, kappa):
    # a usage error naming the option, not a traceback
    mesh_path = tmp_path / "m.json"
    mesh16.save(mesh_path)
    field_path = tmp_path / "u.json"
    field_path.write_text(json.dumps({"values": [[0.0, 0.0]] * mesh16.n_nodes}))
    res = _run_cli(["energy", "--mesh", str(mesh_path),
                    "--field", str(field_path), "--kappa", kappa])
    assert res.returncode == 2
    assert "--kappa" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("eta", ["0.7", "0", "-0.1"])
def test_cli_voidmod_rejects_eta_outside_range(tmp_path, mesh16, eta):
    # eta must lie in (0, 0.5]: a usage error naming the option
    mesh_path = tmp_path / "m.json"
    mesh16.save(mesh_path)
    set_path = tmp_path / "set.txt"
    set_path.write_text("0 1 2\n")
    res = _run_cli(["voidmod", "--mesh", str(mesh_path), "--set",
                    str(set_path), f"--eta={eta}"])
    assert res.returncode == 2
    assert "--eta" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_study_rejects_negative_refine(tmp_path):
    # a negative level count would run no level at all
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"output_dir = {tmp_path / 'out'}\n")
    res = _run_cli(["study", "--config", str(cfg), "--refine=-1"])
    assert res.returncode == 2
    assert "--refine" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "out").exists()
