import json
import math

import numpy as np
import pytest

from quasifrac import mesh as mesh_module
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
from quasifrac._kernels import (clip_areas, clip_areas_rect,
                                strains_from_values, triangle_sides)
from conftest import STD_DOMAIN, AffineLoad, make_mesh
from _oracles import (
    clip_area_by_loop,
    clip_areas_by_loop,
    clip_poly_convex,
    collar_mask_by_distance,
    containing_triangle,
    edge_table_by_unique,
    edge_tables_by_loop,
    field_at,
    is_background_by_loop,
    overlaps_by_pair_loop,
    strains_by_loop,
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


def test_clip_areas_match_scalar_clip_on_triangle_pairs(mesh16):
    # each triangle of a pair clipped by the other's edges, as the
    # validator clips them: bitwise the polygon of the scalar clip, its
    # shoelace terms summed in vertex order.  Mesh neighbors give vertices
    # on a clipping edge; jittered and random triangles give crossings.
    rng = np.random.default_rng(11)
    pairs = [mesh16.nodes[mesh16.triangles[mesh16.edge_tris[
        mesh16.edge_tris[:, 1] >= 0]]]]
    for mesh in _jittered_meshes()[2:5]:
        a = rng.integers(mesh.n_triangles, size=300)
        b = mesh.tri_neighbors[a, rng.integers(3, size=300)]
        b = np.where(b >= 0, b, a)
        pairs.append(mesh.nodes[mesh.triangles[np.stack([a, b], axis=1)]])
    pts = rng.uniform(0.0, 1.0, size=(400, 2, 3, 2))
    u, v = pts[:, :, 1] - pts[:, :, 0], pts[:, :, 2] - pts[:, :, 0]
    flip = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0] < 0.0
    pts[flip] = pts[flip][:, ::-1]
    pairs.append(pts)
    pa, pb = np.concatenate(pairs).transpose(1, 0, 2, 3)
    got = clip_areas(pa[..., 0], pa[..., 1],
                     triangle_sides(pb[..., 0], pb[..., 1]))
    want = []
    for p, q in zip(pa, pb):
        poly = clip_poly_convex(p, q)
        area = 0.0
        for j, (x, y) in enumerate(poly):
            nx, ny = poly[(j + 1) % len(poly)]
            area += x * ny - nx * y
        want.append(abs(area) * 0.5)
    want = np.array(want)
    assert got.tobytes() == want.tobytes()
    assert (want == 0.0).sum() > 100 and (want > 1e-3).sum() > 100


def _jittered_meshes():
    """Background meshes at eps 1/8 and 1/16 with every node moved by a
    seeded uniform offset of up to 0.05h to 1.5h in each coordinate (h the
    grid spacing); the larger offsets turn triangles over, and the mesh
    then orients them counterclockwise, so they overlap."""
    out = []
    for eps in (1 / 8, 1 / 16):
        base = make_mesh(eps)
        h = base.params.grid_spacing
        for seed, jitter in enumerate((0.05, 0.2, 0.5, 1.0, 1.5)):
            rng = np.random.default_rng(100 * seed + round(1 / eps))
            nodes = base.nodes + rng.uniform(-jitter, jitter,
                                             size=base.nodes.shape) * h
            out.append(Triangulation(nodes, base.triangles, base.domain,
                                     base.params))
    return out


def _pulled_meshes():
    """The eps 1/8 background mesh with one interior node pulled onto the
    far edge of one of its triangles (a horizontal, a vertical and a
    diagonal one), at 0.3 of the edge's length, then moved off it along
    the edge's normal by 0 or +-1e-12 eps: the node then lies on, just
    inside or just beyond the edge of the triangle on its far side."""
    base = make_mesh(1 / 8)
    nx = base.grid_shape[0]
    v = 4 * (nx + 1) + 4  # node (4, 4)
    star = np.flatnonzero((base.triangles == v).any(axis=1))
    out = []
    for t in star[:3]:
        a, b = [n for n in base.triangles[t] if n != v]
        pa, pb = base.nodes[a], base.nodes[b]
        normal = np.array([pb[1] - pa[1], pa[0] - pb[0]])
        normal /= np.hypot(*normal)
        for offset in (0.0, 1e-12 * base.params.eps,
                       -1e-12 * base.params.eps):
            nodes = base.nodes.copy()
            nodes[v] = pa + 0.3 * (pb - pa) + offset * normal
            out.append(Triangulation(nodes, base.triangles, base.domain,
                                     base.params))
    return out


def test_check_admissible_matches_pair_loop(monkeypatch):
    # the whole report, against the same check with its overlap test done
    # one triangle pair at a time
    details = set()
    for mesh in _jittered_meshes() + _pulled_meshes():
        got = check_admissible(mesh).violations
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_check_overlaps",
                          overlaps_by_pair_loop)
            want = check_admissible(mesh).violations
        assert got == want
        details |= {d for kind, _, d in want if kind == "overlap"}
    assert details == {"positive intersection area", "partial edge contact"}


def test_check_admissible_chunks_match_pair_loop(monkeypatch):
    # with the overlap test cut into many small chunks of pairs, the report
    # is the pair loop's, in the same order
    chunks = []

    def counting(*args):
        chunks.append(1)
        return clip_areas(*args)

    details = set()
    for mesh in _jittered_meshes()[:5] + _pulled_meshes()[:3]:
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_OVERLAP_CHUNK", 97)
            patch.setattr(mesh_module, "clip_areas", counting)
            del chunks[:]
            got = check_admissible(mesh).violations
            assert len(chunks) > 3
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_check_overlaps",
                          overlaps_by_pair_loop)
            want = check_admissible(mesh).violations
        assert got == want
        details |= {d for kind, _, d in want if kind == "overlap"}
    assert details == {"positive intersection area", "partial edge contact"}


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
    # a file without a domain is refused rather than given a guessed one
    del data["domain"]
    with pytest.raises(MeshError, match="domain"):
        Triangulation.from_dict(data)


def test_field_shape_mismatch(mesh16):
    with pytest.raises(Exception):
        DisplacementField(mesh16, np.zeros((3, 2)))


def test_field_rejects_undeclared_attribute(mesh16):
    # a field is its mesh and its values; nothing rides along on it
    u = DisplacementField(mesh16, np.zeros((mesh16.n_nodes, 2)))
    with pytest.raises(AttributeError):
        u._copied = np.arange(3)


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


def test_clip_areas_match_scalar_clip_on_random_triangles():
    # random triangles about the unit square, in either orientation:
    # small ones sitting over a corner or a side, wholly inside or outside,
    # large ones holding several corners, and degenerate ones (a repeated
    # vertex, or three collinear vertices)
    rng = np.random.default_rng(7)
    corners = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    tris = [corners[rng.integers(4, size=200)][:, None]
            + rng.normal(scale=0.05, size=(200, 3, 2)),
            rng.uniform(-0.5, 1.5, size=(300, 3, 2)),
            rng.uniform(0.1, 0.9, size=(50, 3, 2)),
            rng.uniform(1.2, 2.0, size=(50, 3, 2)),
            rng.uniform(-3.0, 4.0, size=(100, 3, 2))]
    a, b = rng.uniform(-0.5, 1.5, size=(2, 60, 2))
    tris.append(np.stack([a, a, b], axis=1))
    tris.append(np.stack([a, 0.5 * (a + b), b], axis=1))
    pts = np.concatenate(tris)
    nodes = pts.reshape(-1, 2)
    triangles = np.arange(len(nodes)).reshape(-1, 3)
    got = clip_areas_rect(nodes, triangles, 0.0, 0.0, 1.0, 1.0)
    want = np.array([clip_area_by_loop(p, 0.0, 0.0, 1.0, 1.0) for p in pts])
    assert got.tobytes() == want.tobytes()
    full = 0.5 * np.abs(
        (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
        - (pts[:, 1, 1] - pts[:, 0, 1]) * (pts[:, 2, 0] - pts[:, 0, 0]))
    assert (want == 0.0).sum() > 100
    assert np.isclose(want, full, rtol=1e-12).sum() > 50
    assert ((want > 1e-6) & (want < full * (1 - 1e-6))).sum() > 300
    # a large triangle holding all four corners clips to the square
    big = np.array([[-2.0, -1.0], [4.0, -1.0], [0.5, 5.0]])
    assert clip_areas_rect(big, np.array([[0, 1, 2]]), 0.0, 0.0, 1.0,
                           1.0)[0] == 1.0


def _perturbed_mesh(mesh16):
    """mesh16 with its interior nodes moved off the lattice and one extra
    degenerate triangle on three collinear bottom-row nodes."""
    rng = np.random.default_rng(3)
    nodes = mesh16.nodes.copy()
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    inner = ((nodes > lo) & (nodes < hi)).all(axis=1)
    nodes[inner] += rng.uniform(-0.2, 0.2, size=(inner.sum(), 2)) \
        * mesh16.params.grid_spacing
    tris = np.vstack([mesh16.triangles, [[0, 1, 2]]])
    return Triangulation(nodes, tris, mesh16.domain, mesh16.params)


def test_strains_match_per_triangle_loop(mesh16):
    mesh = _perturbed_mesh(mesh16)
    assert mesh.areas[-1] == 0.0 and mesh.areas[:-1].min() > 0.0
    rng = np.random.default_rng(5)
    values = rng.normal(size=(mesh.n_nodes, 2)) \
        * 10.0 ** rng.integers(-4, 4, size=(mesh.n_nodes, 2))
    # signed zeros: the degenerate triangle's products are all -0.0
    values[rng.random(values.shape) < 0.1] = -0.0
    values[:3] = -1.5
    got = DisplacementField(mesh, values).strains()
    want = strains_by_loop(mesh, values)
    assert got.tobytes() == want.tobytes()
    assert got[-1].tobytes() == np.zeros(3).tobytes()
    # the strains of a subset of the triangles, as void modification takes
    # them, are the same rows
    ids = np.array([5, 0, 17, mesh.n_triangles - 1])
    part = strains_from_values(np.take(mesh.strain_gradients, ids, axis=1),
                               mesh.triangles[ids], values)
    assert part.tobytes() == want[ids].tobytes()


def test_edge_table_matches_row_unique(mesh16, mesh32):
    for mesh in _oracle_meshes(mesh16, mesh32) + [_perturbed_mesh(mesh16)]:
        edges, tri_edges = edge_table_by_unique(mesh)
        assert mesh.edges.tobytes() == edges.tobytes()
        assert mesh.edges.shape == edges.shape
        assert mesh.tri_edges.tobytes() == tri_edges.tobytes()


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
