import math

import numpy as np
import pytest

from quasifrac import solver
from quasifrac.mesh import Domain, MeshParams, build_background_mesh


STD_DOMAIN = Domain((0.0, 0.0, 1.0, 1.0), (-0.25, -0.25, 1.25, 1.25))


def make_mesh(eps, theta0=math.pi / 4, domain=STD_DOMAIN, **kw):
    params = MeshParams(theta0=theta0, eps=eps, **kw)
    return build_background_mesh(domain, params)


@pytest.fixture(scope="session")
def mesh16():
    return make_mesh(1 / 16)


@pytest.fixture(scope="session")
def mesh32():
    return make_mesh(1 / 32)


@pytest.fixture()
def counted_splu(monkeypatch):
    """List that gains one entry per sparse LU factorization."""
    calls = []
    factor = solver._factor

    def counting(kff):
        calls.append(1)
        return factor(kff)

    monkeypatch.setattr(solver, "_factor", counting)
    return calls


class AffineLoad:
    """g(t, x) = t * A x for tests that only need an eval hook."""

    def __init__(self, a11=0.0, a12=0.0, a21=0.0, a22=0.0):
        self.A = np.array([[a11, a12], [a21, a22]])

    def eval(self, t, pts):
        return t * np.asarray(pts, dtype=float) @ self.A.T


def cell_tris(mesh, i, j):
    """(lower, upper) triangle ids of grid cell (i, j)."""
    nx = mesh.grid_shape[0]
    base = 2 * (j * nx + i)
    return base, base + 1


def block_ids(mesh, i0, i1, j0, j1):
    """All triangle ids of the cell block [i0,i1) x [j0,j1)."""
    out = []
    for j in range(j0, j1):
        for i in range(i0, i1):
            a, b = cell_tris(mesh, i, j)
            out.extend((a, b))
    return np.asarray(out, dtype=np.int64)
