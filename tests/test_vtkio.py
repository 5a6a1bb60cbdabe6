import math
import time
from pathlib import Path

import numpy as np
import pytest

from quasifrac.mesh import Domain, MeshParams, Triangulation
from quasifrac.trisets import TriangleSet
from quasifrac.vtkio import (
    IoError,
    boundary_polyline,
    export_polyline_vtp,
    export_vtu,
)
from _oracles import boundary_polyline_by_dict
from conftest import block_ids, make_mesh

GOLDEN = Path(__file__).parent / "golden"


def two_tri_mesh():
    params = MeshParams(theta0=math.radians(20.0), eps=0.5)
    dom = Domain((0.2, 0.2, 0.8, 0.8), (0.0, 0.0, 1.0, 1.0))
    return Triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                         [(0, 1, 2), (0, 2, 3)], dom, params)


def test_vtu_golden(tmp_path):
    mesh = two_tri_mesh()
    path = tmp_path / "two.vtu"
    export_vtu(mesh, {"displacement": np.ones((4, 2))},
               {"strain_norm": np.zeros(2), "crack": np.zeros(2),
                "history": np.zeros(2)}, path)
    assert path.read_bytes() == (GOLDEN / "two_tri.vtu").read_bytes()


def test_vtu_size_mismatch(tmp_path):
    mesh = two_tri_mesh()
    with pytest.raises(IoError):
        export_vtu(mesh, {"displacement": np.ones((3, 2))}, {}, tmp_path / "x.vtu")
    with pytest.raises(IoError):
        export_vtu(mesh, {}, {"crack": np.zeros(5)}, tmp_path / "x.vtu")


def test_empty_polyline(tmp_path):
    path = tmp_path / "empty.vtp"
    export_polyline_vtp(np.zeros((0, 2)), [], path)
    assert path.read_bytes() == (GOLDEN / "empty.vtp").read_bytes()


def test_boundary_polyline_roundtrip(tmp_path, mesh16):
    tset = TriangleSet(mesh16, block_ids(mesh16, 4, 8, 4, 8))
    pts, segs = boundary_polyline(tset)
    assert len(segs) == len(tset.boundary_edges)
    export_polyline_vtp(pts, segs, tmp_path / "b.vtp")
    assert (tmp_path / "b.vtp").read_bytes() == \
        (GOLDEN / "block16.vtp").read_bytes()


@pytest.mark.parametrize("name", ["mesh16", "mesh32"])
def test_boundary_polyline_matches_dict_numbering(request, name):
    mesh = request.getfixturevalue(name)
    rng = np.random.default_rng(29)
    sets = [[], [0], np.arange(mesh.n_triangles)]
    sets += [rng.choice(mesh.n_triangles, size=k, replace=False)
             for k in (30, mesh.n_triangles // 3)]
    for ids in sets:
        tset = TriangleSet(mesh, ids)
        pts, segs = boundary_polyline(tset)
        want_pts, want_segs = boundary_polyline_by_dict(tset)
        assert pts.tobytes() == want_pts.tobytes()
        assert segs.dtype == np.int64 and segs.shape == (len(want_segs), 2)
        assert segs.tolist() == [list(s) for s in want_segs]


def test_export_budget_10k(tmp_path):
    mesh = make_mesh(1 / 64)  # ~9k triangles
    assert mesh.n_triangles > 8000
    u = np.zeros((mesh.n_nodes, 2))
    sn = np.zeros(mesh.n_triangles)
    t0 = time.time()
    export_vtu(mesh, {"displacement": u}, {"strain_norm": sn},
               tmp_path / "big.vtu")
    assert time.time() - t0 < 1.0
