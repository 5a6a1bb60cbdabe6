import json
import math

import numpy as np
import pytest

from quasifrac.mesh import (
    DisplacementField,
    Domain,
    InadmissibleParams,
    MeshError,
    MeshParams,
    Triangulation,
    build_background_mesh,
    check_admissible,
    interpolate,
)
from conftest import STD_DOMAIN, AffineLoad
from _oracles import (
    clip_areas_by_loop,
    collar_mask_by_distance,
    containing_triangle,
    edge_tables_by_loop,
    field_at,
    is_background_by_loop,
    tri_keys_by_loop,
)


def test_params_validation():
    with pytest.raises(InadmissibleParams):
        MeshParams(theta0=0.0, eps=0.1)
    with pytest.raises(InadmissibleParams):
        MeshParams(theta0=1.2, eps=0.1)  # > pi/3
    with pytest.raises(InadmissibleParams):
        MeshParams(theta0=0.5, eps=-1.0)
    with pytest.raises(InadmissibleParams):
        MeshParams(theta0=0.5, eps=0.1, omega_factor=2.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain((0, 0, 1, 1), (0, 0, 1, 1))  # no collar
    with pytest.raises(ValueError):
        Domain((0, 0, 1, 1), (0.5, 0, 2, 2))  # omega sticks out


def test_background_grid_geometry():
    # spacing is 2 eps cos(theta0); half-squares carry 45/45/90 angles
    theta0 = math.radians(20.0)
    params = MeshParams(theta0=theta0, eps=0.25)
    assert params.grid_spacing == pytest.approx(2 * 0.25 * math.cos(theta0),
                                                abs=1e-15)
    dom = Domain((0.1, 0.1, 0.9, 0.9), (0.0, 0.0, 1.0, 1.0))
    mesh = build_background_mesh(dom, params)
    # lattice spacing reproduced to 1e-12
    xs = np.unique(mesh.nodes[:, 0])
    assert np.allclose(np.diff(xs), params.grid_spacing, atol=1e-12)
    assert check_admissible(mesh).ok
    assert mesh.is_background.all()


def test_background_triangle_count_exact():
    # sides multiples of the grid spacing: exactly 2 * nx * ny triangles
    params = MeshParams(theta0=math.pi / 4, eps=1 / math.sqrt(2.0))
    h = params.grid_spacing
    assert h == pytest.approx(1.0, abs=1e-14)
    dom = Domain((1.0, 1.0, 5.0, 3.0), (0.0, 0.0, 6.0, 4.0))
    mesh = build_background_mesh(dom, params)
    assert mesh.n_triangles == 2 * 6 * 4
    assert mesh.n_nodes == 7 * 5


def test_background_rejects_steep_angle():
    params = MeshParams(theta0=math.radians(50.0), eps=0.1)
    with pytest.raises(InadmissibleParams):
        build_background_mesh(STD_DOMAIN, params)


def test_check_admissible_reports_short_edge():
    params = MeshParams(theta0=math.radians(10.0), eps=0.5)
    nodes = [(0, 0), (1, 0), (0.5, 0.9), (0.5, 1.15)]
    tris = [(0, 1, 2), (2, 1, 3)]  # edge (2,3) has length 0.25 = eps/2
    dom = Domain((0.3, 0.2, 0.6, 0.4), (0.0, 0.0, 1.0, 1.15))
    mesh = Triangulation(nodes, tris, dom, params)
    rep = check_admissible(mesh)
    kinds = rep.kinds()
    assert "edge_short" in kinds
    short = [ids for k, ids, _ in rep.violations if k == "edge_short"]
    lens = mesh.edge_lengths[[i[0] for i in short]]
    assert np.min(lens) == pytest.approx(0.25, abs=1e-12)


def test_check_admissible_reports_overlap():
    params = MeshParams(theta0=math.radians(10.0), eps=0.5)
    # second triangle shares only part of the first one's bottom edge
    nodes = [(0, 0), (2, 0), (1, 1), (0.5, 0), (1.5, 0), (1, -1)]
    tris = [(0, 1, 2), (3, 4, 5)]
    dom = Domain((0.8, 0.2, 1.2, 0.5), (0.0, -1.0, 2.0, 1.0))
    mesh = Triangulation(nodes, tris, dom, params)
    rep = check_admissible(mesh)
    assert "overlap" in rep.kinds()


def test_check_admissible_coverage():
    params = MeshParams(theta0=math.radians(15.0), eps=0.5)
    nodes = [(0, 0), (2, 0), (1, 1.2)]
    tris = [(0, 1, 2)]
    dom = Domain((0.0, 0.0, 2.0, 1.0), (-0.5, -0.5, 2.5, 1.5))
    mesh = Triangulation(nodes, tris, dom, params)
    rep = check_admissible(mesh)
    assert "coverage" in rep.kinds()


def test_area_edge_inequality_on_background(mesh16):
    params = mesh16.params
    max_edge = mesh16.edge_lengths[mesh16.tri_edges].max(axis=1)
    bound = 0.5 * params.eps * math.sin(params.theta0) * max_edge
    assert np.all(mesh16.areas >= bound * (1 - 1e-12))


def test_interpolate_affine_exact(mesh16):
    g = AffineLoad(0.4, -0.3, 0.2, 0.1)
    u = interpolate(mesh16, g, 0.7)
    # exact at nodes and at random interior points
    assert np.allclose(u.values, g.eval(0.7, mesh16.nodes), atol=0.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    norm_a = np.linalg.norm(g.A)
    diam = math.hypot(1.5, 1.5)
    for p in pts:
        err = np.abs(field_at(u, p) - g.eval(0.7, p[None])[0]).max()
        assert err < 1e-12 * norm_a * diam


def test_interpolate_shear_strain(mesh16):
    # g(t,x) = (t x2, 0) at t = 0.5: every triangle has e12 = 0.25
    g = AffineLoad(0.0, 1.0, 0.0, 0.0)
    u = interpolate(mesh16, g, 0.5)
    s = u.strains()
    assert np.allclose(s[:, 2] / math.sqrt(2.0), 0.25, atol=1e-14)
    assert np.allclose(s[:, 0], 0.0, atol=1e-14)


def test_interpolate_zero(mesh16):
    u = interpolate(mesh16, AffineLoad(), 1.0)
    assert not u.values.any()


def test_mesh_json_roundtrip(tmp_path, mesh16):
    path = tmp_path / "m.json"
    mesh16.save(path)
    with open(path) as f:
        data = json.load(f)
    assert set(data) >= {"nodes", "triangles", "params"}
    assert set(data["params"]) >= {"theta0", "eps", "omega_factor"}
    assert "bg_dist_factor" not in data["params"]
    back = Triangulation.load(path)
    assert np.allclose(back.nodes, mesh16.nodes)
    assert np.array_equal(back.triangles, mesh16.triangles)
    assert back.params.eps == mesh16.params.eps
    assert check_admissible(back).ok
    # older files carry a bg_dist_factor entry; it is ignored
    data["params"]["bg_dist_factor"] = 6.0
    old = Triangulation.from_dict(data)
    assert old.params == mesh16.params
    assert np.array_equal(old.triangles, mesh16.triangles)


def test_mesh_file_with_notch_rejected(mesh16):
    # the notch is gone from the model: refuse it rather than drop it
    data = mesh16.to_dict()
    data["domain"]["notch"] = [[0.4, 0.4], [0.6, 0.4], [0.5, 0.6]]
    with pytest.raises(ValueError, match="notch"):
        Triangulation.from_dict(data)


def test_field_shape_mismatch(mesh16):
    with pytest.raises(Exception):
        DisplacementField(mesh16, np.zeros((3, 2)))


def _oracle_meshes(mesh16, mesh32):
    """mesh16, mesh32, mesh16 with one interior node nudged off the
    lattice, and the two criterion-7 strips."""
    nudged_nodes = mesh16.nodes.copy()
    node = mesh16.triangles[containing_triangle(mesh16, (0.51, 0.52))][0]
    nudged_nodes[node] += 0.2 * mesh16.params.point_tol * 1e6
    nudged = Triangulation(nudged_nodes, mesh16.triangles, mesh16.domain,
                           mesh16.params, grid_shape=mesh16.grid_shape)
    strip_params = MeshParams(theta0=math.pi / 4, eps=1 / math.sqrt(2.0))
    strips = [build_background_mesh(
        Domain((1.1, 0.0, n - 1.1, 1.0), (0.0, 0.0, float(n), 1.0)),
        strip_params) for n in (4, 6)]
    return [mesh16, mesh32, nudged] + strips


def test_collar_mask_matches_distance_oracle(mesh16, mesh32):
    by_edge = 0  # collar triangles whose bounding box meets the rectangle
    for mesh in _oracle_meshes(mesh16, mesh32):
        expected = collar_mask_by_distance(mesh)
        assert np.array_equal(mesh.collar_mask, expected)
        assert expected.any() and not expected.all()
        x0, y0, x1, y1 = mesh.domain.omega
        xs = mesh.nodes[mesh.triangles, 0]
        ys = mesh.nodes[mesh.triangles, 1]
        box_apart = ((xs.max(axis=1) < x0) | (xs.min(axis=1) > x1)
                     | (ys.max(axis=1) < y0) | (ys.min(axis=1) > y1))
        by_edge += int((expected & ~box_apart).sum())
    assert by_edge > 0


def test_clip_areas_match_clipping_every_triangle(mesh16, mesh32):
    straddlers = 0
    for mesh in _oracle_meshes(mesh16, mesh32):
        for name, rect in (("area_in_omega", mesh.domain.omega),
                           ("area_in_omega_prime", mesh.domain.omega_prime)):
            expected = clip_areas_by_loop(mesh, rect)
            assert getattr(mesh, name).tobytes() == expected.tobytes()
            straddlers += int(((expected > 0.0)
                               & (expected < mesh.areas)).sum())
    assert straddlers > 0


def test_mesh_tables_match_loops(mesh16, mesh32):
    for mesh in _oracle_meshes(mesh16, mesh32):
        edges, edge_tris = edge_tables_by_loop(mesh)
        assert np.array_equal(mesh.edges, edges)
        assert mesh.edge_tris.tobytes() == edge_tris.tobytes()
        assert mesh.tri_keys == tri_keys_by_loop(mesh)
    # a fan of three triangles on the edge (0, 1)
    fan = Triangulation([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)],
                        [(0, 1, 2), (0, 1, 3), (0, 1, 4)], STD_DOMAIN,
                        MeshParams(theta0=math.pi / 6, eps=0.5))
    with pytest.raises(MeshError, match="edge 0 shared"):
        fan.edge_table
    with pytest.raises(MeshError, match="edge 0 shared"):
        edge_tables_by_loop(fan)


def test_tri_bbox_matches_each_triangle(mesh16, mesh32):
    # local_saturation compares these coordinates with its box
    for mesh in _oracle_meshes(mesh16, mesh32):
        for t, box in enumerate(mesh.tri_bbox.tolist()):
            p = mesh.nodes[mesh.triangles[t]]
            assert box == p.min(axis=0).tolist() + p.max(axis=0).tolist()


def test_is_background_matches_set_loop(mesh16, mesh32):
    # 2x2 lattice cells, two of them cut along the other diagonal: every
    # vertex is on the lattice, and only the two cells split lower-left to
    # upper-right are background
    crossed = Triangulation(
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2),
         (2, 2)],
        [(0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 5, 4), (3, 4, 6), (4, 7, 6),
         (4, 5, 8), (4, 8, 7)],
        Domain((0.5, 0.5, 1.5, 1.5), (0.0, 0.0, 2.0, 2.0)),
        MeshParams(theta0=math.pi / 4, eps=1 / math.sqrt(2.0)),
        grid_shape=(2, 2, 0.0, 0.0))
    meshes = _oracle_meshes(mesh16, mesh32) + [crossed]
    for mesh in meshes:
        assert np.array_equal(mesh.is_background, is_background_by_loop(mesh))
    assert not meshes[2].is_background.all()
    assert crossed.is_background.tolist() == [True, True] + [False] * 4 \
        + [True, True]
