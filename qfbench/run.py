"""quasifrac benchmark.

Usage, from the repository root:

    python3 qfbench/run.py --workload crack64 --seed 1 --seconds 20 --trace 0
    python3 qfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in child processes (qfbench/child.py), one at a time and
one call at a time (a closed loop with one client), with BLAS thread pools
capped at the number of CPUs.  An untraced run measures set-up several
times and the operation for about `--seconds`, checks every output
and prints the end-to-end metrics.  A traced run (`--trace 1`) runs the
operation once with spans around the calls into each `quasifrac` module,
between two untraced runs of it, and prints the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
Workload choices are explained in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "quasifrac"
RUNS = ROOT / ".qfbench_runs"

RUN_LIMIT_S = 170.0  # every run must end within 180 s

CRACK = ("eps = {eps}\nn_steps = {n_steps}\namplitude = 3.2\nload = opening\n"
         "precrack = 0.0 0.5 0.45 0.5 0.06\nseed = 1\nmulti_starts = 3\n")
RAMP = ("eps = {eps}\nn_steps = {n_steps}\namplitude = 0.4\nload = stretch\n"
        "seed = 0\nmulti_starts = 2\n")

# simulate workloads are fixed levels of the acceptance ladders, so --seed
# changes only the generated voidmod inputs.  `setup_samples` is the number
# of set-ups whose median is setup_s: set-up-only children plus the one
# child that measures the operation.  A shared host's speed can shift by a
# fifth for tens of seconds, so each run measures close to `--seconds` of
# operations.  voidmod128 pushes 24 inputs through each operation, so that
# the work of one seed's inputs differs little from another seed's.
WORKLOADS = {
    "crack64": {"kind": "simulate", "setup_samples": 9,
                "config": CRACK.format(eps=1 / 64, n_steps=16)},
    "ramp64": {"kind": "simulate", "setup_samples": 9,
               "config": RAMP.format(eps=1 / 64, n_steps=32)},
    "voidmod128": {"kind": "voidmod", "setup_samples": 2,
                   "config": f"eps = {1 / 128}\n", "eta": 0.2, "inputs": 24},
    "crack32": {"kind": "simulate", "setup_samples": 9,
                "config": CRACK.format(eps=1 / 32, n_steps=8)},
}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_process(cmd, deadline):
    """stdout of a process that must succeed before `deadline`."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("time limit reached before " + cmd[1])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with code {proc.returncode}")
    return proc.stdout


def run_child(spec, workdir, mode, deadline, seconds=0.0):
    """Result of one child; `seconds` 0 runs one operation."""
    cmd = [sys.executable, str(HERE / "child.py"), "--spec", json.dumps(spec),
           "--workdir", str(workdir), "--mode", mode,
           "--seconds", str(seconds)]
    out = run_process(cmd + ["--t0", repr(time.monotonic())], deadline)
    return json.loads(out.strip().splitlines()[-1])


def prepare(spec, seed, workdir, deadline):
    """Write the run's config, and its inputs for a voidmod workload."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    (workdir / "run.cfg").write_text(
        spec["config"] + f"output_dir = {workdir / 'out'}\n", encoding="utf-8")
    if spec["kind"] == "voidmod":
        run_process([sys.executable, str(HERE / "gen_voidmod.py"),
                     "--seed", str(seed), "--config", str(workdir / "run.cfg"),
                     "--count", str(spec["inputs"]),
                     "--out", str(workdir / "inputs.npz")], deadline)


def run_workload(spec, seed, seconds, trace, workdir):
    """Result of one run: metrics, correctness, digests and samples."""
    deadline = time.monotonic() + RUN_LIMIT_S
    prepare(spec, seed, workdir, deadline)
    if trace:
        # one untraced operation on each side of the traced one, so that a
        # machine speed drifting steadily cancels out of the overhead
        before = run_child(spec, workdir, "run", deadline)
        traced = run_child(spec, workdir, "trace", deadline)
        after = run_child(spec, workdir, "run", deadline)
        children = [before, traced, after]
        plain_s = before["op_s"] + after["op_s"]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = \
            traced["op_s"][0] - statistics.median(plain_s)
        metrics["trace.unattributed_s"] = traced["unattributed_s"]
        samples = {"run_s": plain_s, "traced_run_s": traced["op_s"]}
        missing = traced["missing"]
    else:
        probes = [run_child(spec, workdir, "setup", deadline)
                  for _ in range(spec["setup_samples"] - 1)]
        children = [run_child(spec, workdir, "run", deadline, seconds)]
        op_s = [t for c in children for t in c["op_s"]]
        setups = [c["setup_s"] for c in probes + children]
        metrics = {"run_s": statistics.median(op_s),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": max(c["peak_rss_mb"] for c in children)}
        samples = {"run_s": op_s, "setup_s": setups}
        missing = []
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    if any(c["digests"] != children[0]["digests"] for c in children):
        problems.append("outputs differ between child processes")
        failed += 1
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": samples, "problems": problems,
            "digests": children[0]["digests"],
            "wrapped": [c["wrapped"] for c in children],
            "missing": missing,
            "versions": children[0]["versions"]}


def src_digest():
    files = sorted(SRC.glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"], text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or Path(out[0]) != ROOT:
        return None  # not a git checkout of its own
    return out[1]


def provenance(versions):
    lines, digest = src_digest()
    return {"git_commit": git_commit(), **versions, "nproc": nproc(),
            "blas_threads": nproc(), "src_quasifrac_lines": lines,
            "src_quasifrac_sha256": digest}


def per_layer_units():
    return {name: unit for name, unit, _ in per_layer_spec()}


def report(name, seed, seconds, trace, res):
    """Human-readable lines, every metric with its unit."""
    print(f"== {name} seed={seed} seconds={seconds} trace={trace}")
    if trace:
        units = per_layer_units()
        for key, value in res["metrics"].items():
            print(f"  {key:<48} {value:>18.6f} {units[key]}")
    else:
        units = dict(END_TO_END)
        for key, value in res["metrics"].items():
            note = f"median of {len(res['samples'][key])}" \
                if key in res["samples"] else "largest child peak"
            print(f"  {key:<12} {value:>12.6f} {units[key]:<4} ({note})")
    print(f"  {'ops_failed':<12} {res['failed']:>12d} count of "
          f"{res['attempted']} attempted")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    for fname, digest in res["digests"].items():
        print(f"  sha256 {fname:<14} {digest}")
    print(f"  provenance {json.dumps(res['provenance'], sort_keys=True)}")


def with_units(metrics, units):
    return {k: {"value": v, "unit": units[k.rsplit(':', 1)[-1]]}
            for k, v in metrics.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description="quasifrac benchmark")
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # exit through subprocess.run's cleanup, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "__init__.py").is_file():
        print(f"qfbench: no quasifrac sources at {SRC}", file=sys.stderr)
        return 2

    units = per_layer_units() if args.trace else dict(END_TO_END)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workdir = RUNS / f"{name}-seed{args.seed}-trace{args.trace}"
        try:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                               args.trace, workdir)
        except BenchError as exc:
            print(f"qfbench: {name}: {exc}", file=sys.stderr)
            return 1
        res["provenance"] = provenance(res.pop("versions"))
        (workdir / "result.json").write_text(
            json.dumps(res, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        report(name, args.seed, args.seconds, args.trace, res)
        results[name] = res

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}:{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": with_units(metrics, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
