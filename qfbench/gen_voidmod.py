"""Seeded inputs for the voidmod benchmark workload.

Usage: python3 qfbench/gen_voidmod.py --seed 3 --config run.cfg --count 16 --out inputs.npz

Each input is a crack-like triangle set on the background mesh of the run
configuration (a quasifrac config file) and a smooth bounded displacement
field.  The sets
are drawn in physical units, as in the void-modification acceptance suite:
two long one-cell-thick kinked bands across the plate, one short band, a
thin square ring, two small blobs and scattered single triangles.  Every
input carries the same number of each feature, so inputs differ in where
the features lie rather than in how many there are, which keeps the work
per input steady across seeds.  The file holds only `ids_<i>` (int64
triangle ids) and `field_<i>` ((n_nodes, 2) float64 nodal values).
"""

import argparse
import math

import numpy as np

from quasifrac.config import load_config
from quasifrac.mesh import build_background_mesh

SCATTER_PER_INV_EPS = 0.1   # debris triangles per unit of 1/eps
FIELD_SCALE = 0.08


def background_mesh(config_path):
    cfg = load_config(config_path)
    return build_background_mesh(cfg.domain(), cfg.mesh_params())


def crack_like_set(mesh, rng):
    nx, ny, ox, oy = mesh.grid_shape
    h = mesh.params.grid_spacing
    ids = set()

    def mark(x, y):
        i, j = int((x - ox) // h), int((y - oy) // h)
        if 0 <= i < nx and 0 <= j < ny:
            ids.update((2 * (j * nx + i), 2 * (j * nx + i) + 1))

    def band(x, y, heading, length):
        for _ in range(int(length / (0.5 * h))):
            mark(x, y)
            x += 0.5 * h * math.cos(heading)
            y = min(max(y + 0.5 * h * math.sin(heading), 0.02), 0.98)
            if rng.random() < 0.05:
                heading += rng.uniform(-0.35, 0.35)

    for _ in range(2):
        band(rng.uniform(-0.1, 0.2), rng.uniform(0.25, 0.75),
             rng.uniform(-0.35, 0.35), rng.uniform(1.0, 1.35))
    band(rng.uniform(0.2, 0.6), rng.uniform(0.15, 0.85),
         rng.uniform(0.0, math.pi), rng.uniform(0.1, 0.4))

    x0, y0 = rng.uniform(0.15, 0.7, size=2)
    cells = max(2, int(rng.uniform(0.06, 0.14) / h))
    for d in range(cells + 1):
        mark(x0 + d * h, y0)
        mark(x0 + d * h, y0 + cells * h)
        mark(x0, y0 + d * h)
        mark(x0 + cells * h, y0 + d * h)

    for _ in range(2):
        x0, y0 = rng.uniform(0.1, 0.85, size=2)
        for di in range(2):
            for dj in range(2):
                mark(x0 + di * h, y0 + dj * h)

    n_scatter = int(SCATTER_PER_INV_EPS / mesh.params.eps)
    ids.update(int(t) for t in rng.integers(0, mesh.n_triangles, n_scatter))
    return np.asarray(sorted(ids), dtype=np.int64)


def smooth_field(mesh, rng):
    a = rng.uniform(-1.0, 1.0, size=6)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return FIELD_SCALE * np.column_stack([
        a[0] * np.sin(math.pi * x) * np.cos(math.pi * y) + a[1] * x + a[2] * y,
        a[3] * np.cos(math.pi * x) * np.sin(math.pi * y) + a[4] * x + a[5] * y,
    ])


def generate(seed, config_path, count):
    """{'ids_<i>': ..., 'field_<i>': ...} for `count` inputs of one seed."""
    mesh = background_mesh(config_path)
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(count):
        out[f"ids_{i}"] = crack_like_set(mesh, rng)
        out[f"field_{i}"] = smooth_field(mesh, rng)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(args.out, "wb") as f:
        np.savez(f, **generate(args.seed, args.config, args.count))


if __name__ == "__main__":
    main()
