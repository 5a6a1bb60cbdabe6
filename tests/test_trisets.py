import math

import numpy as np
import pytest

from quasifrac._kernels import clip_lengths_rect
from quasifrac.mesh import Domain, MeshParams, build_background_mesh
from quasifrac.trisets import (
    TriangleSet,
    closure_components_minus_vertex,
    component_labels,
)

from _oracles import (
    bfs_complement,
    bfs_components,
    boundary_length_in_rect_by_loop,
    segment_clip_rect_length,
)
from conftest import block_ids, cell_tris


def test_component_labels_smallest_index():
    # a chain listed from its far end, closed into a cycle, plus an
    # isolated node: hooking alone would need one round per link
    edges = [(k, k + 1) for k in range(6, -1, -1)] + [(7, 3)]
    lab = component_labels(9, np.array(edges))
    assert lab.tolist() == [0] * 8 + [8]
    assert component_labels(3, np.empty((0, 2))).tolist() == [0, 1, 2]


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)
    firsts = [int(c[0]) for c in got if len(c)]
    assert firsts == sorted(firsts)


def _check_against_oracle(mesh, mask):
    tset = TriangleSet(mesh, np.where(mask)[0])
    _assert_same(tset.components, bfs_components(mesh, mask, "edge"))
    _assert_same(tset.closure_components,
                 bfs_components(mesh, mask, "closure"))
    verts = np.unique(mesh.triangles[tset.ids])
    outside = np.setdiff1d(np.arange(mesh.n_nodes), verts)
    probes = list(verts[::max(1, len(verts) // 6)]) + list(outside[:1])
    for v in probes:
        _assert_same(closure_components_minus_vertex(mesh, mask, int(v)),
                     bfs_components(mesh, mask, "closure", v=int(v)))
    comps, bounded = tset.complement_components
    want_comps, want_bounded = bfs_complement(mesh, mask)
    _assert_same(comps, want_comps)
    assert bounded == want_bounded
    return tset


@pytest.mark.parametrize("density", [0.15, 0.4, 0.6, 0.85])
def test_components_match_bfs_oracle_random(mesh16, density):
    rng = np.random.default_rng(int(100 * density))
    for _ in range(3):
        mask = rng.random(mesh16.n_triangles) < density
        _check_against_oracle(mesh16, mask)


def test_components_vertex_touching_pair(mesh16):
    t0 = cell_tris(mesh16, 8, 8)[0]
    shared = np.isin(mesh16.triangles, mesh16.triangles[t0]).sum(axis=1)
    t1 = int(np.where(shared == 1)[0][0])
    mask = np.zeros(mesh16.n_triangles, dtype=bool)
    mask[[t0, t1]] = True
    tset = _check_against_oracle(mesh16, mask)
    assert len(tset.components) == 2
    assert len(tset.closure_components) == 1
    v = int(np.intersect1d(mesh16.triangles[t0], mesh16.triangles[t1])[0])
    assert len(closure_components_minus_vertex(mesh16, mask, v)) == 2
    assert tset.complement_components[1] == [False]


def test_components_ring_with_hole(mesh16):
    hole = block_ids(mesh16, 7, 8, 7, 8)
    ring = np.setdiff1d(block_ids(mesh16, 5, 10, 5, 10), hole)
    mask = np.zeros(mesh16.n_triangles, dtype=bool)
    mask[ring] = True
    tset = _check_against_oracle(mesh16, mask)
    assert len(tset.components) == 1
    comps, bounded = tset.complement_components
    assert bounded.count(True) == 1
    assert np.array_equal(comps[bounded.index(True)], np.sort(hole))
    assert len(tset.holes) == 1
    assert np.array_equal(tset.holes[0], np.sort(hole))


def test_components_empty_and_full(mesh16):
    empty = np.zeros(mesh16.n_triangles, dtype=bool)
    tset = _check_against_oracle(mesh16, empty)
    assert tset.components == [] and tset.closure_components == []
    comps, bounded = tset.complement_components
    assert bounded == [False] and len(comps[0]) == mesh16.n_triangles

    full = ~empty
    tset = _check_against_oracle(mesh16, full)
    assert len(tset.components) == 1 and len(tset.closure_components) == 1
    comps, bounded = tset.complement_components
    assert bounded == [False] and len(comps) == 1 and not len(comps[0])


def _unit_grid():
    """Background grid of unit cells on the square [0, 4]^2."""
    return build_background_mesh(Domain((0.5, 0.5, 3.5, 3.5),
                                        (0.0, 0.0, 4.0, 4.0)),
                                 MeshParams(theta0=math.pi / 4,
                                            eps=1 / math.sqrt(2)))


@pytest.mark.parametrize("piece, rect, want", [
    # the square [1, 3]^2: the left and top sides lie wholly outside; the
    # bottom side is cut at x = 1.5 and the right side at y = 2.25
    ("square", (1.5, 0.5, 5.0, 2.25), 0.5 + 1.0 + 1.0 + 0.25),
    # sides lying along the rectangle's sides count; the next bottom edge
    # meets the rectangle in one point
    ("square", (1.0, 1.0, 2.0, 2.0), 2.0),
    ("square", (3.5, 0.0, 5.0, 5.0), 0.0),   # every edge left of it
    ("square", (-1.0, -1.0, 0.5, 5.0), 0.0),  # every edge right of it
    ("square", (0.0, 0.0, 4.0, 4.0), 8.0),
    # the triangle (1, 1), (2, 1), (2, 2): x >= 1.5 keeps half its bottom,
    # its right side and half its diagonal
    ("triangle", (1.5, 0.0, 5.0, 5.0), 0.5 + 1.0 + 0.5 * math.sqrt(2.0)),
])
def test_boundary_length_in_rect(piece, rect, want):
    mesh = _unit_grid()
    ids = block_ids(mesh, 1, 3, 1, 3) if piece == "square" else \
        [cell_tris(mesh, 1, 1)[0]]
    tset = TriangleSet(mesh, ids)
    assert tset.boundary_length == pytest.approx(
        8.0 if piece == "square" else 2.0 + math.sqrt(2.0), abs=1e-12)
    assert tset.boundary_length_in_rect(rect) == pytest.approx(want,
                                                               abs=1e-12)


def _clip_rects(mesh, rng):
    """Rectangles that cut edges, hold them, miss them, and whose sides
    run along axis-parallel edges (sides taken from node coordinates)."""
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    xs, ys = np.unique(mesh.nodes[:, 0]), np.unique(mesh.nodes[:, 1])
    rects = [mesh.domain.omega, mesh.domain.omega_prime,
             (*(lo - 1.0), *(hi + 1.0)), (*(hi + 0.5), *(hi + 1.0)),
             (xs[3], ys[5], xs[-4], ys[-6]), (xs[0], ys[0], xs[7], ys[2])]
    for _ in range(4):
        x0, x1 = np.sort(rng.uniform(lo[0], hi[0], 2))
        y0, y1 = np.sort(rng.uniform(lo[1], hi[1], 2))
        rects.append((x0, y0, x1, y1))
    return [tuple(float(v) for v in r) for r in rects]


@pytest.mark.parametrize("name", ["mesh16", "mesh32"])
def test_clip_lengths_match_scalar_clip(request, name):
    mesh = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    sets = [rng.choice(mesh.n_triangles, size=k, replace=False)
            for k in (1, 40, mesh.n_triangles // 4, mesh.n_triangles // 2)]
    sets.append(np.arange(mesh.n_triangles))  # every rim edge
    ends = mesh.nodes[mesh.edges]
    full = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
    flat = (ends[:, 0, 0] == ends[:, 1, 0]) | (ends[:, 0, 1] == ends[:, 1, 1])
    cut = held = missed = on_side = 0
    for rect in _clip_rects(mesh, rng):
        # every edge of the mesh, one segment at a time
        got = clip_lengths_rect(mesh.nodes, mesh.edges, *rect)
        want = np.array([segment_clip_rect_length(a, b, rect)
                         for a, b in ends])
        assert got.tobytes() == want.tobytes()
        cut += int(((want > 0.0) & (want < full)).sum())
        held += int((want == full).sum())
        missed += int((want == 0.0).sum())
        side = np.isin(ends[:, :, 0], rect[::2]).all(axis=1) \
            | np.isin(ends[:, :, 1], rect[1::2]).all(axis=1)
        on_side += int((flat & side & (want > 0.0)).sum())
        for ids in sets:
            tset = TriangleSet(mesh, ids)
            assert tset.boundary_length_in_rect(rect) == \
                boundary_length_in_rect_by_loop(tset, rect)
    assert min(cut, held, missed, on_side) > 0, (cut, held, missed, on_side)
    assert TriangleSet(mesh, []).boundary_length_in_rect(
        mesh.domain.omega) == 0.0
