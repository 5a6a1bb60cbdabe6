import math

import numpy as np
import pytest

from quasifrac.energy import (
    CrackHistory,
    DegenerateTriangle,
    EnergyError,
    InconsistentHistory,
    MaterialModel,
    MeshFieldMismatch,
    choose_crack_set,
    classify_cracked,
    history_energy,
    static_energy,
    triangle_strain,
)
from quasifrac.mesh import (
    DisplacementField,
    Domain,
    MeshParams,
    Triangulation,
    interpolate,
)
from quasifrac.trisets import TriangleSet
from conftest import AffineLoad, block_ids, make_mesh


def _uniform_field(mesh, a11=0.0, a12=0.0, a21=0.0, a22=0.0):
    return interpolate(mesh, AffineLoad(a11, a12, a21, a22), 1.0)


def test_material_validation():
    with pytest.raises(EnergyError):
        MaterialModel(kappa=-1.0)
    with pytest.raises(EnergyError):
        MaterialModel(elasticity=np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]))
    MaterialModel(elasticity=np.diag([1.0, 1.0, 3.0]))
    # ellipticity: the elasticity must be positive definite
    for bad in (np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, 1.0, 0.0]),
                np.zeros((3, 3))):
        with pytest.raises(EnergyError):
            MaterialModel(elasticity=bad)


def test_triangle_strain_affine(mesh16):
    u = _uniform_field(mesh16, 0.2, 0.1, 0.3, -0.1)
    e = triangle_strain(mesh16, u, 17)
    expect = np.array([[0.2, 0.2], [0.2, -0.1]])
    assert np.allclose(e, expect, atol=1e-14)


def test_triangle_strain_skew_vanishes(mesh16):
    # u(x) = W x with W skew: the symmetrized gradient vanishes
    u = _uniform_field(mesh16, 0.0, 0.5, -0.5, 0.0)
    s = u.strains()
    assert np.abs(s).max() < 1e-12


def test_triangle_strain_hand_solved():
    # unit-leg right triangle, horizontal stretch of the x=1 node
    params = MeshParams(theta0=math.radians(20.0), eps=0.8)
    dom = Domain((0.2, 0.2, 0.6, 0.6), (0.0, 0.0, 1.0, 1.0))
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], dom, params)
    h = 0.37
    u = DisplacementField(mesh, [(0.0, 0.0), (h, 0.0), (0.0, 0.0)])
    e = triangle_strain(mesh, u, 0)
    assert e[0, 0] == pytest.approx(h, abs=1e-14)
    assert e[1, 1] == pytest.approx(0.0, abs=1e-14)


def test_triangle_strain_degenerate():
    params = MeshParams(theta0=math.radians(20.0), eps=0.8)
    dom = Domain((0.2, 0.2, 0.6, 0.6), (0.0, 0.0, 1.0, 1.0))
    mesh = Triangulation([(0, 0), (1, 0), (2, 0), (0, 1)],
                         [(0, 1, 2), (0, 2, 3)], dom, params)
    u = DisplacementField(mesh, np.zeros((4, 2)))
    with pytest.raises(DegenerateTriangle):
        triangle_strain(mesh, u, 0)


def test_static_energy_zero(mesh16):
    mat = MaterialModel()
    rep = static_energy(mesh16, _uniform_field(mesh16), mat, mesh16.params)
    assert rep.total == 0.0
    assert rep.cracked_area == 0.0


def test_static_energy_below_cap(mesh16):
    # uniform strain with eps |e|^2 = kappa/2: no triangle capped
    params = mesh16.params
    a = math.sqrt(0.5 / params.eps)
    mat = MaterialModel(kappa=1.0)
    u = _uniform_field(mesh16, a11=a)
    rep = static_energy(mesh16, u, mat, params)
    assert rep.crack_part == 0.0
    assert rep.total == pytest.approx(a * a * mesh16.domain.omega_area, rel=1e-12)


def test_static_energy_cap_active(mesh16):
    params = mesh16.params
    a = math.sqrt(2.0 / params.eps)  # eps |e|^2 = 2 kappa
    mat = MaterialModel(kappa=1.0)
    u = _uniform_field(mesh16, a11=a)
    rep = static_energy(mesh16, u, mat, params)
    assert rep.elastic_part == 0.0
    area = mesh16.domain.omega_area
    assert rep.total == pytest.approx(area / params.eps, rel=1e-12)
    assert rep.cracked_area == pytest.approx(area, rel=1e-12)


def test_split_identity_random_fields(mesh32):
    # exact split: total equals elastic + capped-area term, same summation
    params = mesh32.params
    mat = MaterialModel(kappa=1.0)
    rng = np.random.default_rng(7)
    w = mesh32.area_in_omega
    for _ in range(50):
        vals = rng.standard_normal((mesh32.n_nodes, 2)) * \
            rng.uniform(0.001, 0.3)
        u = DisplacementField(mesh32, vals)
        rep = static_energy(mesh32, u, mat, params)
        assert rep.total == rep.elastic_part + rep.crack_part
        s = u.strains()
        sq = (s * s).sum(axis=1)
        direct = float((w / params.eps * np.minimum(params.eps * sq, 1.0)).sum())
        assert rep.total == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_frame_invariance(mesh16):
    params = mesh16.params
    mat = MaterialModel()
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((mesh16.n_nodes, 2)) * 0.05
    u = DisplacementField(mesh16, vals)
    base = static_energy(mesh16, u, mat, params)
    w = 0.3
    rigid = np.array([0.7, -0.2]) + mesh16.nodes @ np.array([[0.0, -w], [w, 0.0]]).T
    u2 = DisplacementField(mesh16, vals + rigid)
    shifted = static_energy(mesh16, u2, mat, params)
    assert shifted.total == pytest.approx(base.total, rel=1e-12, abs=1e-12)
    s1, s2 = u.strains(), u2.strains()
    assert np.abs(s1 - s2).max() < 1e-12


def test_classify_boundary_case():
    # integer-lattice strip: strains are exact, so the threshold tie is exact
    eps = 1 / math.sqrt(2.0)
    params = MeshParams(theta0=math.pi / 4, eps=eps)
    dom = Domain((1.1, 0.0, 2.9, 1.0), (0.0, 0.0, 4.0, 1.0))
    from quasifrac.mesh import build_background_mesh
    mesh = build_background_mesh(dom, params)
    h = 0.5
    u = _uniform_field(mesh, a11=h)
    s = u.strains()
    assert np.all(s[:, 0] == h)  # bitwise exact on the integer lattice
    kappa = params.eps * (h * h)  # same product the classifier forms
    mat = MaterialModel(kappa=kappa)
    cracked = classify_cracked(mesh, u, mat, params)
    assert len(cracked) == mesh.n_triangles  # ties classify cracked
    mat_above = MaterialModel(kappa=np.nextafter(kappa, np.inf))
    assert len(classify_cracked(mesh, u, mat_above, params)) == 0


def test_classify_off_grid_mesh_by_density_alone():
    # a hand-built triangle off the background grid: with a zero field
    # its density is zero, so nothing cracks under either crack rule
    params = MeshParams(theta0=math.radians(20.0), eps=0.4)
    dom = Domain((0.2, 0.2, 1.0, 0.8), (0.0, 0.0, 1.4, 1.0))
    mesh = Triangulation([(0, 0), (1.4, 0), (0.7, 1.0)], [(0, 1, 2)],
                         dom, params)
    assert not mesh.is_background.any()
    u = DisplacementField(mesh, np.zeros((3, 2)))
    mat = MaterialModel()
    assert len(classify_cracked(mesh, u, mat, params)) == 0
    assert len(choose_crack_set(mesh, u, [], mat, params)) == 0
    # a field whose capped density saturates cracks it
    u = DisplacementField(mesh, np.array([[0.0, 0.0], [3.0, 0.0],
                                          [1.5, 0.0]]))
    assert classify_cracked(mesh, u, mat, params).ids.tolist() == [0]


def test_history_energy_empty_matches_static(mesh16):
    params = mesh16.params
    mat = MaterialModel()
    a = math.sqrt(0.2 / params.eps)
    u = _uniform_field(mesh16, a11=a)
    hist = CrackHistory()
    rep = history_energy(mesh16, u, hist, mat, params)
    static = static_energy(mesh16, u, mat, params)
    assert rep.elastic_part == pytest.approx(static.elastic_part, rel=1e-12)
    assert rep.crack_part == 0.0


def test_history_energy_full_history(mesh16):
    params = mesh16.params
    mat = MaterialModel(kappa=1.0)
    u = _uniform_field(mesh16, a11=0.1)
    hist = CrackHistory()
    hist.add_step(TriangleSet(mesh16, np.arange(mesh16.n_triangles)))
    rep = history_energy(mesh16, u, hist, mat, params)
    assert rep.elastic_part == 0.0
    prime_area = float(mesh16.area_in_omega_prime.sum())
    assert rep.crack_part == pytest.approx(prime_area / params.eps, rel=1e-12)


def test_history_energy_hand_sum():
    # strip of 4 cells, one pre-cracked triangle, sub-threshold affine field
    eps = 1 / math.sqrt(2.0)
    params = MeshParams(theta0=math.pi / 4, eps=eps)
    dom = Domain((1.1, 0.0, 2.9, 1.0), (0.0, 0.0, 4.0, 1.0))
    from quasifrac.mesh import build_background_mesh
    mesh = build_background_mesh(dom, params)
    assert mesh.n_triangles == 8
    mat = MaterialModel(kappa=1.0)
    a = 0.3
    u = _uniform_field(mesh, a11=a)
    star = 3
    hist = CrackHistory()
    hist.add_step(TriangleSet(mesh, [star]))
    rep = history_energy(mesh, u, hist, mat, params)
    w = mesh.area_in_omega
    expect_elastic = a * a * float(w.sum() - w[star])
    expect_crack = float(mesh.area_in_omega_prime[star]) / eps
    assert rep.elastic_part == pytest.approx(expect_elastic, rel=1e-12)
    assert rep.crack_part == pytest.approx(expect_crack, rel=1e-12)
    assert rep.total == rep.elastic_part + rep.crack_part


def test_history_energy_fringe_crack_choice():
    # integer-lattice strip of 6 cells: collar, fringe and interior cells.
    # At the exact threshold tie every triangle is saturated, but a fringe
    # triangle would be charged its larger area in omega_prime, which
    # exceeds its elastic energy: it stays out of the crack set, while the
    # interior ties (equal areas) still crack.
    eps = 1 / math.sqrt(2.0)
    params = MeshParams(theta0=math.pi / 4, eps=eps)
    dom = Domain((1.1, 0.0, 4.9, 1.0), (0.0, 0.0, 6.0, 1.0))
    from quasifrac.mesh import build_background_mesh
    mesh = build_background_mesh(dom, params)
    h = 0.5
    u = _uniform_field(mesh, a11=h)
    sq = (u.strains() ** 2).sum(axis=1)
    mat = MaterialModel(kappa=params.eps * (h * h))
    assert len(classify_cracked(mesh, u, mat, params)) == mesh.n_triangles
    w = mesh.area_in_omega
    w_prime = mesh.area_in_omega_prime
    fringe = np.where((w > 0.0) & (w < w_prime))[0]
    interior = np.where(w == w_prime)[0]
    assert len(fringe) and len(interior)
    # cracking a fringe triangle would raise the energy
    assert np.all(mat.kappa * w_prime[fringe] / eps > w[fringe] * sq[fringe])
    rep = history_energy(mesh, u, CrackHistory(), mat, params)
    assert rep.n_cracked == len(interior)
    assert rep.cracked_area == pytest.approx(float(w_prime[interior].sum()),
                                             rel=1e-12)
    kept = np.setdiff1d(np.arange(mesh.n_triangles), interior)
    assert rep.elastic_part == pytest.approx(float((w[kept] * sq[kept]).sum()),
                                             rel=1e-12)
    # a fringe triangle in the history is charged as cracked all the same
    hist = CrackHistory()
    hist.add_step(TriangleSet(mesh, fringe[:1]))
    rep_h = history_energy(mesh, u, hist, mat, params)
    assert rep_h.n_cracked == len(interior) + 1


def test_history_monotone(mesh16):
    params = mesh16.params
    mat = MaterialModel()
    rng = np.random.default_rng(5)
    u = DisplacementField(mesh16, rng.standard_normal((mesh16.n_nodes, 2)) * 0.02)
    small = rng.choice(mesh16.n_triangles, 30, replace=False)
    big = np.union1d(small, rng.choice(mesh16.n_triangles, 60, replace=False))
    h1, h2 = CrackHistory(), CrackHistory()
    h1.add_step(TriangleSet(mesh16, small))
    h2.add_step(TriangleSet(mesh16, big))
    r1 = history_energy(mesh16, u, h1, mat, params)
    r2 = history_energy(mesh16, u, h2, mat, params)
    assert r2.elastic_part <= r1.elastic_part + 1e-15
    assert r2.crack_part >= r1.crack_part - 1e-15


def test_history_inconsistent(mesh16, mesh32):
    mat = MaterialModel()
    hist = CrackHistory()
    hist.add_step(TriangleSet(mesh32, [5]))  # finer-mesh triangle
    u = _uniform_field(mesh16)
    with pytest.raises(InconsistentHistory):
        history_energy(mesh16, u, hist, mat, mesh16.params)


def test_mesh_field_mismatch(mesh16, mesh32):
    u = _uniform_field(mesh32)
    with pytest.raises(MeshFieldMismatch):
        static_energy(mesh16, u, MaterialModel(), mesh16.params)
