import math
from functools import cached_property

import numpy as np
import pytest

from quasifrac import trisets, voidmod
from quasifrac._kernels import clip_areas_rect, strains_from_values
from quasifrac.mesh import DisplacementField, Triangulation, interpolate
from quasifrac.trisets import TriangleSet, complement_components
from quasifrac.voidmod import (
    VoidModParams,
    build_boundary_graph,
    fill_holes,
    _complement_strain_energy,
    _inner_window,
    _maximal_small_pieces,
    _peel_round,
    _piece_healable,
    _remove_pieces,
    _sep_piece_candidates,
    _small_saturations,
    heal_triangles,
    modify_voids,
    remove_separating_small,
)
from conftest import AffineLoad, block_ids, cell_tris, make_mesh
from _oracles import (ComplementFlood, bfs_complement, clip_areas_by_loop,
                      euler_characteristic, filled_boundary_edges,
                      heal_triangles_by_loop, healing_ratio,
                      maximal_small_pieces_by_piece, neighborhood,
                      peel_round_by_piece, remove_pieces_by_loop,
                      rim_triangles_by_loop, sep_pieces_by_vertex)

VM = VoidModParams(eta=0.2)


def zero_field(mesh):
    return DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))


def _fan(mesh, v):
    """The triangles at node v."""
    return voidmod._node_fans(mesh, np.array([v]))[1]


def smooth_field(mesh, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=6)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vals = np.column_stack([
        a[0] * np.sin(math.pi * x) * np.cos(math.pi * y) + a[1] * x + a[2] * y,
        a[3] * np.cos(math.pi * x) * np.sin(math.pi * y) + a[4] * x + a[5] * y,
    ]) * scale
    return DisplacementField(mesh, vals)


# ---------------------------------------------------------------------------
# boundary graph


def test_graph_single_triangle(mesh16):
    g = build_boundary_graph(TriangleSet(mesh16, [100]))
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert g.n_faces == 1
    assert all(d == 2 for d in g.degree.values())
    assert g.d_of_component == [0]
    assert g.euler_identity()[0] == g.euler_identity()[1]


def test_graph_vertex_touching_pair(mesh16):
    # two lower-half cells meeting only at one lattice node: the shared
    # vertex has degree 4 and both components count one high-degree visit
    a, _ = cell_tris(mesh16, 5, 5)
    b, _ = cell_tris(mesh16, 6, 6)
    g = build_boundary_graph(TriangleSet(mesh16, [a, b]))
    assert g.n_components == 2
    deg4 = [v for v, d in g.degree.items() if d == 4]
    assert len(deg4) == 1
    assert sorted(g.d_of_component) == [1, 1]
    assert g.v2l_counts.get(2, 0) == 1
    assert g.euler_identity()[0] == g.euler_identity()[1]
    assert g.edge_count_identity()[0] == g.edge_count_identity()[1]
    assert g.d_sum_identity()[0] == g.d_sum_identity()[1]


def test_graph_disk_with_hole(mesh16):
    ids = block_ids(mesh16, 4, 8, 4, 8)
    center = np.concatenate([cell_tris(mesh16, 5, 5)])
    ring = TriangleSet(mesh16, np.setdiff1d(ids, center))
    g = build_boundary_graph(ring)
    assert g.n_components == 1
    assert g.n_faces == g.n_components + 1  # the hole adds one bounded face
    assert g.euler_identity()[0] == g.euler_identity()[1]


def test_graph_identities_random(mesh32):
    rng = np.random.default_rng(123)
    for _ in range(40):
        density = rng.uniform(0.05, 0.5)
        ids = rng.choice(mesh32.n_triangles,
                         size=int(density * mesh32.n_triangles), replace=False)
        tset = TriangleSet(mesh32, ids)
        g = build_boundary_graph(tset)
        assert g.euler_identity()[0] == g.euler_identity()[1]
        assert g.edge_count_identity()[0] == g.edge_count_identity()[1]
        assert g.d_sum_identity()[0] == g.d_sum_identity()[1]
        # the cycles walk every boundary edge once, member on the left
        walked = sorted(step for comp in g.cycles for cyc in comp
                        for step in zip(cyc[-1:] + cyc[:-1], cyc))
        tri = mesh32.triangles[tset.ids]
        on_bdy = np.isin(mesh32.tri_edges[tset.ids], g.edge_ids)
        ccw = sorted(zip(tri[on_bdy].tolist(),
                         np.roll(tri, -1, axis=1)[on_bdy].tolist()))
        assert walked == ccw


def test_lemma_components_bound(mesh32):
    # after hole filling, components touching >= 3 others are controlled by
    # the single-touch count plus eta/eps (fitted constant must stay sane)
    rng = np.random.default_rng(9)
    eps = mesh32.params.eps
    ratios = []
    for _ in range(25):
        ids = rng.choice(mesh32.n_triangles, size=rng.integers(50, 400),
                         replace=False)
        b = fill_holes(TriangleSet(mesh32, ids), VM)
        g = build_boundary_graph(b)
        lhs = sum(l for l in g.d_of_component if l >= 3)
        d1 = sum(1 for l in g.d_of_component if l == 1)
        ratios.append(lhs / max(1.0, d1 + VM.eta / eps))
    assert max(ratios) < 10.0


# ---------------------------------------------------------------------------
# fill holes


def test_fill_holes_no_holes(mesh16):
    a = TriangleSet(mesh16, block_ids(mesh16, 3, 6, 3, 6))
    assert np.array_equal(fill_holes(a, VM).ids, a.ids)


def test_fill_holes_small_hole_absorbed(mesh16):
    ids = block_ids(mesh16, 4, 8, 4, 8)
    center = np.asarray(cell_tris(mesh16, 5, 5))
    ring = TriangleSet(mesh16, np.setdiff1d(ids, center))
    b = fill_holes(ring, VM)
    assert set(center) <= set(b.ids)


def test_fill_holes_large_hole_kept(mesh16):
    # ring around a hole larger than eps^2/eta^2 stays open
    ids = block_ids(mesh16, 2, 14, 2, 14)
    inner = block_ids(mesh16, 3, 13, 3, 13)
    ring = TriangleSet(mesh16, np.setdiff1d(ids, inner))
    hole_area = float(mesh16.areas[inner].sum())
    assert hole_area > VM.hole_threshold(mesh16.params.eps)
    b = fill_holes(ring, VM)
    assert np.array_equal(b.ids, ring.ids)


# ---------------------------------------------------------------------------
# separating vertices


def test_remove_separating_small_pendant(mesh16):
    # a large block with a small block hanging at one vertex: the pendant
    # goes, the block stays
    big = block_ids(mesh16, 2, 10, 2, 10)
    small = block_ids(mesh16, 10, 11, 10, 11)
    b = TriangleSet(mesh16, np.concatenate([big, small]))
    assert len(b.closure_components) == 1
    u = zero_field(mesh16)
    b_sep, _ = remove_separating_small(b, u, VM)
    assert set(small).isdisjoint(set(b_sep.ids))
    assert set(big) <= set(b_sep.ids)


def test_remove_separating_no_candidates(mesh16):
    big = TriangleSet(mesh16, block_ids(mesh16, 2, 12, 2, 12))
    u = zero_field(mesh16)
    b_sep, _ = remove_separating_small(big, u, VM)
    assert np.array_equal(b_sep.ids, big.ids)


def test_remove_separating_isolated_small(mesh16):
    # an isolated small component is a whole closure component and goes
    big = block_ids(mesh16, 2, 10, 2, 10)
    iso = np.asarray(cell_tris(mesh16, 13, 13))
    b = TriangleSet(mesh16, np.concatenate([big, iso]))
    u = zero_field(mesh16)
    b_sep, _ = remove_separating_small(b, u, VM)
    assert set(iso).isdisjoint(set(b_sep.ids))


def _assert_candidates_match(mesh, ids):
    # the pieces of area <= budget agree with the per-vertex splits, for the
    # run's budget and for an unbounded one (every split part)
    b = TriangleSet(mesh, ids)
    want = sep_pieces_by_vertex(b)
    for budget in (VM.hole_threshold(mesh.params.eps), math.inf):
        got = _sep_piece_candidates(b, budget)
        assert all(p.dtype == np.int64 for p in got)
        small = [[p.tolist() for p in pieces
                  if float(mesh.areas[p].sum()) <= budget]
                 for pieces in (got, want)]
        assert small[0] == small[1]
    return want


def test_sep_candidates_bow_ties(mesh16):
    # two triangles, and two 2x2 blocks, meeting at one lattice node
    a, _ = cell_tris(mesh16, 5, 5)
    b, _ = cell_tris(mesh16, 6, 6)
    assert len(_assert_candidates_match(mesh16, [a, b])) == 3
    blocks = np.concatenate([block_ids(mesh16, 3, 5, 3, 5),
                             block_ids(mesh16, 5, 7, 5, 7)])
    assert len(_assert_candidates_match(mesh16, blocks)) == 3


def test_sep_candidates_vertex_chain(mesh16):
    # lower halves along the diagonal: every inner node cuts the chain
    chain = [cell_tris(mesh16, k, k)[0] for k in range(3, 10)]
    assert len(_assert_candidates_match(mesh16, chain)) == 1 + 2 * 6


def test_sep_candidates_ring_with_pendant(mesh16):
    ring = np.setdiff1d(block_ids(mesh16, 4, 10, 4, 10),
                        block_ids(mesh16, 5, 9, 5, 9))
    pendant = np.concatenate([block_ids(mesh16, 10, 11, 10, 12),
                              [cell_tris(mesh16, 11, 12)[0]]])
    pieces = _assert_candidates_match(mesh16,
                                      np.concatenate([ring, pendant]))
    assert any(np.array_equal(p, np.sort(ring)) for p in pieces)


def test_sep_candidates_pinch_at_mesh_rim(mesh16):
    # two triangles meeting only at a node on the left rim of the mesh
    v = int(np.flatnonzero((mesh16.nodes[:, 0] == mesh16.nodes[:, 0].min())
                           & (mesh16.nodes[:, 1] > 0.5))[0])
    fan = _fan(mesh16, v).tolist()
    pair = [(s, t) for s in fan for t in fan if s < t and len(
        np.intersect1d(mesh16.triangles[s], mesh16.triangles[t])) == 1]
    assert pair
    _assert_candidates_match(mesh16, list(pair[0]))


@pytest.mark.parametrize("name", ["mesh16", "mesh32"])
def test_sep_candidates_random(name, request):
    mesh = request.getfixturevalue(name)
    rng = np.random.default_rng(41)
    for _ in range(6):
        density = rng.uniform(0.05, 0.5)
        _assert_candidates_match(mesh, np.flatnonzero(
            rng.random(mesh.n_triangles) < density))


# ---------------------------------------------------------------------------
# healing


def test_heal_component_affine_reproduction(mesh16):
    z = TriangleSet(mesh16, block_ids(mesh16, 6, 8, 6, 8))
    g = AffineLoad(0.1, 0.05, 0.02, -0.08)
    u = interpolate(mesh16, g, 1.0)
    broken = u.copy()
    inner = np.unique(mesh16.triangles[z.ids].ravel())
    outer = np.unique(mesh16.triangles[np.setdiff1d(
        np.arange(mesh16.n_triangles), z.ids)].ravel())
    strictly_inner = np.setdiff1d(inner, outer)
    broken.values[strictly_inner] = 7.0  # garbage inside the void
    # a one-component batch: the whole neighborhood is data
    _, healed = _remove_pieces(z, broken, [(z.ids, z.ids)], {})
    assert np.allclose(healed.values[strictly_inner],
                       u.values[strictly_inner], atol=1e-9)


def test_heal_component_rigid_motion(mesh16):
    z = TriangleSet(mesh16, block_ids(mesh16, 6, 8, 6, 8))
    w = 0.4
    rigid = np.array([0.3, -0.1]) + mesh16.nodes @ np.array([[0, -w], [w, 0.0]]).T
    u = DisplacementField(mesh16, rigid)
    _, healed = _remove_pieces(z, u, [(z.ids, z.ids)], {})
    s = healed.strains()
    assert np.abs(s[z.ids]).max() < 1e-10


def test_heal_component_two_point_pinch_ratio(mesh16):
    # dumbbell-style: Y pinches the healed piece at exactly two points
    # (diagonally opposite corners of the block touched by one triangle each)
    z = TriangleSet(mesh16, block_ids(mesh16, 6, 8, 6, 7))
    y_ids = [cell_tris(mesh16, 5, 5)[0],   # touches only lattice node (6,6)
             cell_tris(mesh16, 8, 7)[1]]   # touches only lattice node (8,7)
    znodes = np.unique(mesh16.triangles[z.ids].ravel())
    ynodes = np.unique(mesh16.triangles[np.asarray(y_ids)].ravel())
    assert len(np.intersect1d(znodes, ynodes)) == 2
    u = smooth_field(mesh16, seed=4)
    before = u.copy()
    data = np.setdiff1d(neighborhood(mesh16, z.ids), np.asarray(y_ids))
    # a one-component batch in which W keeps Y, so Y is no data
    stats = {}
    _, healed = _remove_pieces(
        TriangleSet(mesh16, np.concatenate([z.ids, y_ids])), u,
        [(z.ids, z.ids)], stats)
    assert np.isfinite(stats["heal_ratios"][0])
    assert stats["heal_ratios"] == [
        healing_ratio(mesh16, healed, before, z.ids, data)]


def _assert_heals_as_loop(W, u, pieces):
    """_remove_pieces gives the sequential oracle's kept ids, field bits
    and ratios, and hands back the field object itself when the oracle
    does; returns (kept set, field)."""
    stats = {}
    rest, got = _remove_pieces(W, u, pieces, stats)
    kept, want, ratios = remove_pieces_by_loop(W, u, pieces)
    assert np.array_equal(rest.ids, kept)
    assert got.values.tobytes() == want.values.tobytes()
    assert (got is u) == (want is u)
    assert stats["heal_ratios"] == ratios
    assert stats["sep_removed"] == len(pieces)
    return rest, got


def _heal_batch_cases(mesh):
    """Seeded random sets with a few 2x2-cell blocks strewn in, each with
    an inner node that no data triangle pins."""
    rng = np.random.default_rng(61)
    nx, ny = mesh.grid_shape[:2]
    for density in (0.02, 0.05, 0.1, 0.2, 0.35):
        ids = np.flatnonzero(rng.random(mesh.n_triangles) < density)
        corners = zip(rng.integers(1, nx - 3, 4), rng.integers(1, ny - 3, 4))
        yield np.concatenate(
            [ids, *[block_ids(mesh, i, i + 2, j, j + 2) for i, j in corners]])


@pytest.mark.parametrize("name", ["mesh16", "mesh32"])
def test_remove_pieces_matches_sequential_oracle(name, request):
    # remove_separating_small and one peel pass heal all their pieces in
    # one batch; one component after another gives the same bits
    mesh = request.getfixturevalue(name)
    peeled = 0
    for k, ids in enumerate(_heal_batch_cases(mesh)):
        b = TriangleSet(mesh, ids)
        u = smooth_field(mesh, seed=k)
        pieces = _maximal_small_pieces(b, VM)
        assert pieces
        rest, got = _assert_heals_as_loop(b, u, pieces)
        b_sep, u_sep = remove_separating_small(b, u, VM)
        assert np.array_equal(b_sep.ids, rest.ids) and u_sep is not u
        assert u_sep.values.tobytes() == got.values.tobytes()
        pieces = _peel_round(b_sep, VM)
        if pieces:
            _assert_heals_as_loop(b_sep, u_sep, pieces)
            peeled += 1
    assert peeled >= 2


def test_peel_round_lists_each_piece_once(mesh16):
    # an isolated small piece off the rim is both an edge-component with
    # no touch point and a whole small closure component; the round lists
    # it once, and its removal counts one component
    piece = block_ids(mesh16, 6, 7, 6, 7)
    rest = block_ids(mesh16, 2, 12, 11, 13)
    w = TriangleSet(mesh16, np.concatenate([piece, rest]))
    assert [p.tolist() for p, _ in _maximal_small_pieces(w, VM)] \
        == [sorted(piece.tolist())]
    pieces = _peel_round(w, VM)
    assert [p.tolist() for p, _ in pieces] == [sorted(piece.tolist())]
    stats = {}
    kept, _ = _remove_pieces(w, smooth_field(mesh16, seed=2), pieces, stats)
    assert stats["sep_removed"] == 1
    assert np.array_equal(kept.ids, np.sort(rest))


def test_remove_pieces_batch_edge_cases(mesh16):
    u = smooth_field(mesh16, seed=9)
    # two blocks one cell apart: the triangles between them touch both,
    # so each is data for both components
    a = block_ids(mesh16, 4, 6, 4, 6)
    c = block_ids(mesh16, 7, 9, 4, 6)
    shared = np.intersect1d(neighborhood(mesh16, a), neighborhood(mesh16, c))
    assert len(shared)
    pair = TriangleSet(mesh16, np.concatenate([a, c]))
    _, healed = _assert_heals_as_loop(pair, u, [(np.sort(a), np.sort(a)),
                                               (np.sort(c), np.sort(c))])
    assert len(np.flatnonzero(np.any(healed.values != u.values, axis=1))) == 2
    # one triangle: every node lies on a data triangle, so nothing moves
    # and the field object comes back
    t = np.asarray(cell_tris(mesh16, 10, 10)[:1])
    _, same = _assert_heals_as_loop(TriangleSet(mesh16, t), u, [(t, t)])
    assert same is u
    # a block inside a kept block: no data, every node free, ratio 0.0
    inner = np.sort(block_ids(mesh16, 6, 8, 6, 8))
    big = TriangleSet(mesh16, block_ids(mesh16, 3, 11, 3, 11))
    stats = {}
    _remove_pieces(big, u, [(inner, inner)], stats)
    assert stats["heal_ratios"] == [0.0]
    _assert_heals_as_loop(big, u, [(inner, inner)])


def test_heal_triangles_isolated(mesh16):
    t, _ = cell_tris(mesh16, 7, 7)
    h = TriangleSet(mesh16, [t])
    u = zero_field(mesh16)
    out = heal_triangles(h, u)
    assert len(out) == 0


def test_heal_triangles_vertex_touching_pair_healable(mesh16):
    # two triangles meeting only at a vertex are both zero-neighbor members
    # with exclusive vertices: healed away
    a, _ = cell_tris(mesh16, 5, 5)
    b, _ = cell_tris(mesh16, 6, 6)
    out = heal_triangles(TriangleSet(mesh16, [a, b]), zero_field(mesh16))
    assert len(out) == 0


def test_heal_triangles_blocked_by_shared_vertex(mesh16):
    # one-neighbor triangle whose two exposed edges meet at a vertex shared
    # with another member: no exclusive vertex, kept
    lower, upper = cell_tris(mesh16, 5, 5)
    _, toucher = cell_tris(mesh16, 6, 4)  # shares only the junction node
    h = TriangleSet(mesh16, [lower, upper, toucher])
    lower_nodes = set(int(v) for v in mesh16.triangles[lower])
    toucher_nodes = set(int(v) for v in mesh16.triangles[toucher])
    assert len(lower_nodes & toucher_nodes) == 1
    out = heal_triangles(h, zero_field(mesh16))
    assert lower in out
    assert upper not in out and toucher not in out


def test_heal_triangles_full_disk_unchanged(mesh16):
    # a block with its two single-triangle corners trimmed exposes at most
    # one edge per member: nothing qualifies for healing
    ids = block_ids(mesh16, 4, 9, 4, 9)
    trim = [cell_tris(mesh16, 4, 8)[1], cell_tris(mesh16, 8, 4)[0]]
    h = TriangleSet(mesh16, np.setdiff1d(ids, np.asarray(trim)))
    out = heal_triangles(h, zero_field(mesh16))
    assert np.array_equal(out.ids, h.ids)


def _heal_cases(mesh16, mesh32):
    lower, upper = cell_tris(mesh16, 5, 5)
    disk = block_ids(mesh16, 4, 9, 4, 9)
    trim = [cell_tris(mesh16, 4, 8)[1], cell_tris(mesh16, 8, 4)[0]]
    yield mesh16, [cell_tris(mesh16, 7, 7)[0]]
    yield mesh16, [cell_tris(mesh16, 5, 5)[0], cell_tris(mesh16, 6, 6)[0]]
    yield mesh16, [lower, upper, cell_tris(mesh16, 6, 4)[1]]
    yield mesh16, np.setdiff1d(disk, np.asarray(trim))
    rng = np.random.default_rng(17)
    for mesh in (mesh16, mesh32):
        for density in (0.02, 0.1, 0.3, 0.6):
            yield mesh, np.flatnonzero(rng.random(mesh.n_triangles) < density)


def test_heal_triangles_matches_loop_oracle(mesh16, mesh32):
    for k, (mesh, ids) in enumerate(_heal_cases(mesh16, mesh32)):
        h = TriangleSet(mesh, ids)
        u = smooth_field(mesh, seed=k)
        before = u.values.copy()
        stats = {}
        out = heal_triangles(h, u, stats=stats)
        want_ids, want_ratios = heal_triangles_by_loop(h, u)
        assert np.array_equal(u.values, before)
        assert np.array_equal(out.ids, want_ids)
        assert stats["tri_heal_ratios"] == want_ratios
        assert stats.get("healed_triangles", 0) == len(h) - len(want_ids)


# ---------------------------------------------------------------------------
# the full pipeline


def test_modify_voids_empty(mesh16):
    # an empty set takes the general path: empty sets, the field as it
    # was, the stats of a nonempty input and no energy without a window
    u = smooth_field(mesh16, 1)
    res = modify_voids(TriangleSet(mesh16), u, VM)
    assert len(res.a_mod) == len(res.t_mod) == len(res.filled) == 0
    assert res.u_mod.values.tobytes() == u.values.tobytes()
    band = modify_voids(TriangleSet(mesh16, block_ids(mesh16, 1, 15, 7, 8)),
                        u, VM)
    assert sorted(res.stats) == sorted(band.stats)
    assert res.stats["window"] is None
    assert res.stats["energy_out"] == 0.0
    assert res.stats["perim_Amod"] == 0.0 and res.stats["n_components"] == 0


def test_modify_voids_empty_in_window():
    # with a nonempty inner window, an empty set's energy_out is the
    # field's energy over the whole window
    mesh = make_mesh(1 / 64, omega_factor=6)
    u = smooth_field(mesh, 6)
    res = modify_voids(TriangleSet(mesh), u, VoidModParams(eta=0.4))
    window = res.stats["window"]
    assert window is not None
    assert res.u_mod.values.tobytes() == u.values.tobytes()
    assert res.stats["changed_area"] == 0.0
    strains = u.strains()
    want = float((clip_areas_by_loop(mesh, window)
                  * (strains ** 2).sum(axis=1)).sum())
    assert res.stats["energy_out"] == pytest.approx(want, rel=1e-12)
    assert 0.0 < res.stats["energy_out"] < res.stats["energy_in"]


def test_modify_voids_band(mesh16):
    # a long band survives with healed end caps; perimeter bound holds
    band = block_ids(mesh16, 1, 15, 7, 8)
    a = TriangleSet(mesh16, band)
    assert a.area > VM.hole_threshold(mesh16.params.eps)
    res = modify_voids(a, smooth_field(mesh16, 1), VM)
    st = res.stats
    assert st["area_Amod"] > 0.5 * st["area_A"]
    eps = mesh16.params.eps
    sin0 = math.sin(mesh16.params.theta0)
    assert st["perim_Amod"] <= 2 * st["area_A"] / (eps * sin0) + 10.0 * VM.eta
    assert filled_boundary_edges(mesh16, res.a_mod.ids, res.filled) == 0
    assert res.t_mod.issubset(a)


def test_modify_voids_nested_pairs(mesh32):
    rng = np.random.default_rng(77)
    u = smooth_field(mesh32, 2)
    for _ in range(25):
        n2 = int(rng.integers(40, 250))
        ids2 = rng.choice(mesh32.n_triangles, size=n2, replace=False)
        ids1 = rng.choice(ids2, size=int(rng.integers(10, n2)), replace=False)
        r1 = modify_voids(TriangleSet(mesh32, ids1), u, VM)
        r2 = modify_voids(TriangleSet(mesh32, ids2), u, VM)
        assert r1.a_mod.issubset(r2.a_mod)
        assert r1.t_mod.issubset(r2.t_mod)


def test_modify_voids_filled_interior(mesh32):
    # filled triangles never contribute boundary (remark-style invariant)
    rng = np.random.default_rng(5)
    u = smooth_field(mesh32, 3)
    for _ in range(20):
        ids = rng.choice(mesh32.n_triangles, size=int(rng.integers(60, 400)),
                         replace=False)
        res = modify_voids(TriangleSet(mesh32, ids), u, VM)
        assert filled_boundary_edges(mesh32, res.a_mod.ids, res.filled) == 0


def test_modify_voids_change_confined(mesh16):
    # the field changes only around removed pieces, never on the far side
    big = block_ids(mesh16, 2, 8, 2, 8)
    iso = np.asarray(cell_tris(mesh16, 13, 13))
    a = TriangleSet(mesh16, np.concatenate([big, iso]))
    u = smooth_field(mesh16, 8)
    res = modify_voids(a, u, VM)
    changed = np.where(np.any(res.u_mod.values != u.values, axis=1))[0]
    iso_nodes = set(int(v) for v in np.unique(mesh16.triangles[iso].ravel()))
    assert set(int(v) for v in changed) <= iso_nodes


@pytest.mark.parametrize("eps_inv, eta", [(64, 0.4), (32, 0.5)])
def test_modify_voids_inner_window(eps_inv, eta):
    # a maximal edge length of 6 eps leaves a nonempty inner window, where
    # the changed area and the complement energy are measured.  At eta =
    # 0.4 a whole vertex fan (6 eps^2) counts as small, so removing it
    # moves the field at its center node; at eta = 0.5 (window (0.375,
    # 0.625)^2 at eps 1/32) the fan is kept, and no piece small enough to
    # go has an inner node, so nothing moves
    eps = 1 / eps_inv
    mesh = make_mesh(eps, omega_factor=6)
    vm = VoidModParams(eta=eta)
    margin = 2 * 6 * eps + eps / eta ** 3
    window = (-0.25 + margin, -0.25 + margin, 1.25 - margin, 1.25 - margin)
    center = int(np.argmin(np.hypot(*(mesh.nodes - 0.5).T)))
    fan = _fan(mesh, center)
    # a one-cell band across the plate, kept because it reaches the rim
    band = block_ids(mesh, 0, mesh.grid_shape[0], eps_inv // 3,
                     eps_inv // 3 + 1)
    u = smooth_field(mesh, 6)
    res = modify_voids(TriangleSet(mesh, np.concatenate([fan, band])), u, vm)
    st = res.stats
    assert st["window"] == pytest.approx(window, abs=1e-15)
    moved = np.flatnonzero(np.any(res.u_mod.values != u.values, axis=1))
    if eta < 0.5:
        assert np.array_equal(res.a_mod.ids, np.sort(band))
        assert moved.tolist() == [center]
        assert st["changed_area"] == pytest.approx(mesh.areas[fan].sum(),
                                                   rel=1e-12)
        assert st["changed_area"] > 0.0
    else:
        assert set(fan) <= set(res.a_mod.ids)
        assert not len(moved) and st["changed_area"] == 0.0
    w_in = clip_areas_by_loop(mesh, window)
    strains = res.u_mod.strains()
    out = ~res.a_mod.mask
    want = float((w_in[out] * (strains[out] ** 2).sum(axis=1)).sum())
    assert st["energy_out"] == pytest.approx(want, rel=1e-12)
    assert 0.0 < st["energy_out"] < st["energy_in"]


def test_mesh_keeps_no_hidden_state(mesh32):
    # void modification and the boundary graph read the mesh's own tables;
    # what they leave on it is only what those tables cache
    rng = np.random.default_rng(31)
    ids = rng.choice(mesh32.n_triangles, size=300, replace=False)
    res = modify_voids(TriangleSet(mesh32, ids), smooth_field(mesh32, 5), VM)
    build_boundary_graph(res.a_mod)
    build_boundary_graph(TriangleSet(mesh32, ids))
    fresh = Triangulation(mesh32.nodes, mesh32.triangles, mesh32.domain,
                          mesh32.params, grid_shape=mesh32.grid_shape)
    cached = {name for name, attr in vars(Triangulation).items()
              if isinstance(attr, cached_property)}
    assert set(vars(mesh32)) <= set(vars(fresh)) | cached
    assert "factor_slot" in vars(fresh)


def _fan_ring(mesh, i, j):
    """Ring pinched at vertices around the lattice node (i, j): every other
    triangle of its fan and the triangle across the outer edge of each
    triangle in between, which leaves those three as single-triangle
    holes."""
    v = j * (mesh.grid_shape[0] + 1) + i
    fan = _fan(mesh, v).tolist()
    rows = mesh.triangles[fan]
    # the fan in angular order around v
    c = mesh.nodes[rows].mean(axis=1) - mesh.nodes[v]
    fan = [fan[k] for k in np.argsort(np.arctan2(c[:, 1], c[:, 0]))]
    ring = fan[0::2]
    for t in fan[1::2]:
        across = [int(s) for s in mesh.tri_neighbors[t] if s >= 0
                  and v not in mesh.triangles[s]]
        ring += across
    return np.asarray(ring, dtype=np.int64)


def _saturation_cases(mesh):
    """Stress sets for hole counting: random sets, rings with holes, rings
    pinched at vertices, nested sets and sets on the mesh rim."""
    nx, ny = mesh.grid_shape[:2]
    yield np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(21)
    for density in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9):
        yield np.flatnonzero(rng.random(mesh.n_triangles) < density)
    for _ in range(6):
        # small random sets near one spot, as void modification sees them
        c = rng.integers(0, mesh.n_triangles)
        near = np.argsort(np.abs(np.arange(mesh.n_triangles) - c))[:60]
        yield rng.choice(near, size=int(rng.integers(5, 40)), replace=False)

    def ring(i0, i1, j0, j1, w=1):
        return np.setdiff1d(block_ids(mesh, i0, i1, j0, j1),
                            block_ids(mesh, i0 + w, i1 - w, j0 + w, j1 - w))

    yield ring(4, 8, 4, 8)
    yield ring(3, 12, 2, 9, w=2)
    yield np.setdiff1d(ring(4, 9, 4, 9), cell_tris(mesh, 6, 4))  # opened
    # a ring without its corner cells: four sides pinched at corners
    corners = [cell_tris(mesh, i, j) for i in (4, 9) for j in (4, 9)]
    yield np.setdiff1d(ring(4, 10, 4, 10), np.concatenate(corners))
    yield _fan_ring(mesh, 6, 6)
    yield np.concatenate([_fan_ring(mesh, 4, 4), _fan_ring(mesh, 9, 5)])
    # nested: a blob in a ring's hole, a ring in a ring's hole, and a
    # pinched ring in the hole of a thick ring
    yield np.concatenate([ring(3, 11, 3, 11), block_ids(mesh, 6, 8, 6, 8)])
    yield np.concatenate([ring(2, 13, 2, 13), ring(5, 10, 5, 10)])
    yield np.concatenate([ring(2, 13, 2, 13),
                          np.setdiff1d(block_ids(mesh, 3, 12, 3, 12),
                                       block_ids(mesh, 5, 10, 5, 10)),
                          _fan_ring(mesh, 7, 7)])
    # on the rim: a block in a corner, a U against the rim, a ring touching
    # it, the frame of the whole mesh, and the mesh without one cell
    yield block_ids(mesh, 0, 3, 0, 2)
    yield np.setdiff1d(block_ids(mesh, 3, 8, 0, 4), block_ids(mesh, 4, 7, 0, 3))
    yield ring(0, 5, 5, 10)
    yield ring(0, nx, 0, ny)
    yield ring(0, nx, 0, ny, w=3)
    yield np.setdiff1d(np.arange(mesh.n_triangles), cell_tris(mesh, 8, 8))
    yield np.arange(mesh.n_triangles)
    # holes found inside the boxes of the holed closure components: a
    # single triangle as the island in a hole; a ring in the notch of a
    # holed C whose box holds the ring's box; a ring in a mesh corner; the
    # frame of the mesh split into two holes by a wall; and three rings
    # nested around a blob, holes inside islands inside holes
    yield np.concatenate([ring(3, 10, 3, 10, w=2), cell_tris(mesh, 6, 6)[:1]])
    yield np.concatenate([ring(1, 7, 1, 5), block_ids(mesh, 6, 7, 5, 14),
                          block_ids(mesh, 1, 7, 13, 14), ring(2, 5, 7, 11)])
    yield ring(0, 4, 0, 4)
    yield np.concatenate([ring(0, nx, 0, ny),
                          block_ids(mesh, nx // 2, nx // 2 + 1, 0, ny)])
    yield np.concatenate([ring(1, 16, 1, 16), ring(3, 14, 3, 14),
                          ring(5, 12, 5, 12), block_ids(mesh, 7, 10, 7, 10)])


def test_saturation_matches_bfs_oracle(mesh16, mesh32):
    # the Euler count of holes, the holes labelled inside the boxes of the
    # holed closure components, and the filled set they give agree with a
    # breadth-first flood of the whole complement
    n_holed = 0
    for mesh in (mesh16, mesh32):
        budget = VM.hole_threshold(mesh.params.eps)
        for ids in _saturation_cases(mesh):
            ts = TriangleSet(mesh, ids)
            mask = np.zeros(mesh.n_triangles, dtype=bool)
            mask[ts.ids] = True
            comps, bounded = bfs_complement(mesh, mask)
            holes = [c for c, b in zip(comps, bounded) if b]
            assert ts.n_holes == len(holes)
            assert len(ts.holes) == len(holes)
            for got, hole in zip(ts.holes, holes):
                assert got.dtype == np.int64 and np.array_equal(got, hole)
            small = [c for c in holes if float(mesh.areas[c].sum()) <= budget]
            assert np.array_equal(fill_holes(ts, VM).ids,
                                  np.unique(np.concatenate([ts.ids, *small])))
            n_holed += bool(holes)
    assert n_holed >= 20


def _oracle_holes(mesh, ids):
    mask = np.zeros(mesh.n_triangles, dtype=bool)
    mask[ids] = True
    comps, bounded = bfs_complement(mesh, mask)
    return [c for c, b in zip(comps, bounded) if b]


def test_hole_counts_per_closure_component(mesh16):
    # each closure component's count, taken for all components at once, is
    # the number of bounded components of the plane minus it alone
    for ids in _saturation_cases(mesh16):
        comps = TriangleSet(mesh16, ids).closure_components
        counts = trisets.hole_counts(mesh16, comps)
        assert counts.tolist() == [
            1 - euler_characteristic(mesh16, c) for c in comps]
        for c, k in list(zip(comps, counts))[:12]:
            assert k == len(_oracle_holes(mesh16, c))


@pytest.mark.parametrize("name", ["mesh16", "mesh32"])
def test_hole_counts_of_overlapping_pieces(name, request):
    # the candidate pieces of a set overlap; coded per piece, each one's
    # count is its own 1 - (V - E + F)
    mesh = request.getfixturevalue(name)
    rng = np.random.default_rng(41)
    n_holed = 0
    for _ in range(6):
        b = TriangleSet(mesh, np.flatnonzero(
            rng.random(mesh.n_triangles) < rng.uniform(0.05, 0.5)))
        pieces = _sep_piece_candidates(b, math.inf) + b.components
        counts = trisets.hole_counts(mesh, pieces)
        assert counts.tolist() == [1 - euler_characteristic(mesh, p)
                                   for p in pieces]
        n_holed += int((counts > 0).sum())
    assert n_holed >= 3


@pytest.mark.parametrize("name", ["mesh16", "mesh32"])
def test_candidate_batch_matches_per_piece_oracle(name, request):
    # on `test_sep_candidates_random`'s sets, the batched candidate tests
    # give the pieces and saturations of testing one piece at a time
    mesh = request.getfixturevalue(name)
    flood = ComplementFlood(mesh)
    budget = VM.hole_threshold(mesh.params.eps)
    rng = np.random.default_rng(41)
    found = 0
    for _ in range(6):
        density = rng.uniform(0.05, 0.5)
        b = TriangleSet(mesh, np.flatnonzero(
            rng.random(mesh.n_triangles) < density))
        for got, want in ((_maximal_small_pieces(b, VM),
                           maximal_small_pieces_by_piece(b, budget, flood)),
                          (_peel_round(b, VM),
                           peel_round_by_piece(b, budget, flood))):
            assert len(got) == len(want)
            for (p, sat), (q, want_sat) in zip(got, want):
                assert np.array_equal(p, q) and np.array_equal(sat, want_sat)
            found += len(got)
    assert found >= 20


def test_complement_components_in_region(mesh16):
    # over any sorted region, the bounded entries are the bounded
    # components lying wholly inside it, and every labelled non-member is
    # in exactly one entry; over all ids the result is the whole-mesh one
    mesh = mesh16
    m = mesh.n_triangles
    rng = np.random.default_rng(17)
    boxes = [(0.2, 0.1, 0.9, 0.6), (-0.25, -0.25, 0.5, 1.25),
             (-1.0, -1.0, 2.0, 2.0)]
    regions = [np.arange(m), np.arange(100, 400),
               np.flatnonzero(rng.random(m) < 0.5)]
    regions += [trisets._tris_in_boxes(mesh, [b]) for b in boxes]
    for ids in _saturation_cases(mesh):
        mask = np.zeros(m, dtype=bool)
        mask[ids] = True
        holes = _oracle_holes(mesh, ids)
        whole = complement_components(mesh, mask)
        for region in regions:
            comps, bounded = complement_components(mesh, mask, region)
            inside = [c.tolist() for c in holes if np.isin(c, region).all()]
            assert [c.tolist() for c, b in zip(comps, bounded) if b] == inside
            labelled = np.sort(np.concatenate([region[:0], *comps]))
            assert np.array_equal(labelled, region[~mask[region]])
        comps, bounded = complement_components(mesh, mask, np.arange(m))
        assert bounded == whole[1]
        assert all(np.array_equal(a, b) for a, b in zip(comps, whole[0]))


def test_tris_in_boxes_by_loop(mesh16):
    # a triangle is in a box when all three of its nodes are
    boxes = [(0.2, 0.1, 0.9, 0.6), (0.7, 0.7, 1.3, 1.3),
             (0.31, 0.31, 0.3101, 0.3101)]
    for some in ([boxes[0]], boxes[:2], boxes):
        want = [t for t in range(mesh16.n_triangles) if any(
            all(x0 <= x <= x1 and y0 <= y <= y1
                for x, y in mesh16.nodes[mesh16.triangles[t]])
            for x0, y0, x1, y1 in some)]
        got = trisets._tris_in_boxes(mesh16, some)
        assert got.dtype == np.int64 and got.tolist() == want


def test_small_ring_labels_only_its_box(mesh32, monkeypatch):
    # a ring's hole is labelled over the ring's box, not the whole mesh
    labelled = []

    def counting(mesh, mask, region=None):
        comps, bounded = label(mesh, mask, region)
        labelled.append(sum(len(c) for c in comps))
        return comps, bounded

    label = trisets.complement_components
    monkeypatch.setattr(trisets, "complement_components", counting)
    hole = block_ids(mesh32, 5, 7, 5, 7)
    ring = np.setdiff1d(block_ids(mesh32, 4, 8, 4, 8), hole)
    ts = TriangleSet(mesh32, ring)
    assert np.array_equal(fill_holes(ts, VM).ids, np.union1d(ring, hole))
    assert np.array_equal(_small_saturations(mesh32, [ring], math.inf)[0],
                          np.union1d(ring, hole))
    assert labelled == [len(hole), len(hole)]
    assert len(hole) < mesh32.n_triangles


@pytest.mark.parametrize("name", ["mesh16", "mesh32"])
def test_small_saturation_matches_set_route(name, request):
    # on every candidate of `test_sep_candidates_random`'s sets and every
    # edge-component, the Euler count of a connected piece gives the
    # saturation of the piece as a set of its own, as the flood oracle
    # finds it
    mesh = request.getfixturevalue(name)
    flood = ComplementFlood(mesh)
    rng = np.random.default_rng(41)
    n_holed = 0
    for _ in range(6):
        density = rng.uniform(0.05, 0.5)
        b = TriangleSet(mesh, np.flatnonzero(
            rng.random(mesh.n_triangles) < density))
        pieces = _sep_piece_candidates(b, math.inf) + b.components
        # all pieces of a set in one batch, overlapping ones included
        batches = {budget: _small_saturations(mesh, pieces, budget)
                   for budget in (VM.hole_threshold(mesh.params.eps),
                                  math.inf)}
        for i, p in enumerate(pieces):
            sat = flood.saturation(p)
            n_holed += len(sat) > len(p)
            for budget, sats in batches.items():
                got = sats[i]
                if (float(mesh.areas[p].sum()) > budget
                        or float(mesh.areas[sat].sum()) > budget
                        or not _piece_healable(mesh, sat)):
                    assert got is None
                else:
                    assert got.dtype == np.int64 and np.array_equal(got, sat)
    assert n_holed >= 3


def _per_id_energy(mesh, u, ids, weights):
    """Weighted squared strain summed over `ids`, from their rows alone."""
    s = strains_from_values(np.take(mesh.strain_gradients, ids, axis=1),
                            mesh.triangles[ids], u.values)
    return float((weights[ids] * (s * s).sum(axis=1)).sum())


def test_complement_strain_energy_is_per_id_sum(mesh32):
    # the audit energies equal the sum over the complement's ids, bit for
    # bit, and energy_in is that sum under the omega weights
    rng = np.random.default_rng(29)
    u = smooth_field(mesh32, 3)
    weights = rng.random(mesh32.n_triangles)
    for density in (0.0, 0.1, 0.5, 1.0):
        ids = np.flatnonzero(rng.random(mesh32.n_triangles) < density)
        a = TriangleSet(mesh32, ids)
        out = np.flatnonzero(~a.mask)
        assert _complement_strain_energy(u, a.mask, weights) == \
            _per_id_energy(mesh32, u, out, weights)
        res = modify_voids(a, u, VM)
        assert res.stats["energy_in"] == _per_id_energy(
            mesh32, u, out, mesh32.area_in_omega)


def _whole_mesh_energy(u, member_mask, weights):
    """The weighted squared strain over the complement, from the strains
    of every triangle."""
    s = u.strains()
    return float((weights * (s * s).sum(axis=1))[~member_mask].sum())


def test_complement_strain_energy_on_weighted_triangles():
    # the strains are taken only where the weight is positive; the sum is
    # the whole-mesh formula's bit for bit, under the omega weights, under
    # the inner window's, where most weights are 0.0, and under a window
    # whose sides lie a thousandth of a cell beyond grid lines, so that the
    # slivers it clips weigh next to nothing
    mesh = make_mesh(1 / 64, omega_factor=6)
    vm = VoidModParams(eta=0.4)
    wx0, wy0, wx1, wy1 = _inner_window(mesh, vm)
    w_in = clip_areas_rect(mesh.nodes, mesh.triangles, wx0, wy0, wx1, wy1)
    d = 1e-3 * mesh.params.grid_spacing
    xs, ys = np.unique(mesh.nodes[:, 0]), np.unique(mesh.nodes[:, 1])
    w_sliver = clip_areas_rect(
        mesh.nodes, mesh.triangles, xs[np.searchsorted(xs, wx0)] - d,
        ys[np.searchsorted(ys, wy0)] - d, xs[np.searchsorted(xs, wx1) - 1] + d,
        ys[np.searchsorted(ys, wy1) - 1] + d)
    assert (w_in == 0.0).mean() > 0.5 and (mesh.area_in_omega == 0.0).any()
    assert w_sliver[w_sliver > 0.0].min() < 1e-2 * mesh.areas.max()
    rng = np.random.default_rng(7)
    for k, density in enumerate((0.0, 0.05, 0.3, 0.8, 1.0)):
        u = smooth_field(mesh, seed=k)
        mask = rng.random(mesh.n_triangles) < density
        for weights in (mesh.area_in_omega, w_in, w_sliver):
            got = _complement_strain_energy(u, mask, weights)
            assert got == _whole_mesh_energy(u, mask, weights)
            assert (got > 0.0) is (density < 1.0)


def test_boundary_edges_match_edge_table_scan(mesh16, mesh32):
    # the edges met once among the members' own are those with exactly one
    # member at their two sides in the edge table, rim edges included
    for mesh in (mesh16, mesh32):
        et = mesh.edge_tris
        for ids in _saturation_cases(mesh):
            ts = TriangleSet(mesh, ids)
            in0 = ts.mask[et[:, 0]]
            in1 = (et[:, 1] >= 0) & ts.mask[np.maximum(et[:, 1], 0)]
            assert ts.boundary_edges.dtype == np.int64
            assert np.array_equal(ts.boundary_edges, np.where(in0 ^ in1)[0])


def test_boundary_graph_labels_whole_complement(mesh16, mesh32, monkeypatch):
    # the graph's Euler identity checks its bounded faces against an
    # independent count, so they come from labelling the whole complement,
    # never from the Euler count or the box-limited labelling
    def refuse(*args, **kwargs):
        raise AssertionError("hole count taken from the Euler path")

    def whole_only(mesh, mask, region=None):
        assert region is None
        return label(mesh, mask)

    label = trisets.complement_components
    monkeypatch.setattr(trisets, "complement_components", whole_only)
    for module in (trisets, voidmod):
        monkeypatch.setattr(module, "hole_counts", refuse)
        monkeypatch.setattr(module, "bounded_components", refuse)
    n_holed = 0
    for mesh in (mesh16, mesh32):
        for ids in list(_saturation_cases(mesh))[1:]:
            g = build_boundary_graph(TriangleSet(mesh, ids))
            holes = _oracle_holes(mesh, ids)
            assert g.n_bounded_complement == len(holes)
            assert g.euler_identity()[0] == g.euler_identity()[1]
            assert g.edge_count_identity()[0] == g.edge_count_identity()[1]
            assert g.d_sum_identity()[0] == g.d_sum_identity()[1]
            n_holed += bool(holes)
    assert n_holed >= 20


def test_piece_healable_is_off_rim(mesh16, mesh32):
    # healable exactly when nonempty and off the rim; such a piece always
    # has a neighborhood to take healing data from
    for mesh in (mesh16, mesh32):
        rim = rim_triangles_by_loop(mesh)
        flood = ComplementFlood(mesh)
        for ids in _saturation_cases(mesh):
            off_rim = len(ids) > 0 and not rim[ids].any()
            assert _piece_healable(mesh, ids) is off_rim
            if off_rim:
                assert len(neighborhood(mesh, np.unique(ids)))
            # the saturations, as `_small_saturations` tests them
            sat = flood.saturation(ids)
            assert _piece_healable(mesh, sat) is bool(
                len(sat) and not rim[sat].any())
        for t in range(0, mesh.n_triangles, 7):  # single triangles
            assert _piece_healable(mesh, [t]) is not rim[t]
