"""Truncated finite-element energy, crack classification, and the
history-dependent energy of the incremental scheme.

Per triangle the density is min(eps C e:e, kappa) / eps for a positive
definite elasticity C; a triangle whose density is capped counts as
cracked, whether or not it is a cell of the background grid.  The elastic
integral runs over the body rectangle; cracked area is measured inside the
enclosing rectangle.  In the history energy a triangle straddling the body
boundary therefore costs more cracked than its capped density says; for a
fixed field it joins the crack set only where
kappa |T n omega'| <= eps |T n omega| |e|_C^2, the choice that minimizes
that energy (choose_crack_set).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import DisplacementField, MeshParams, Triangulation
from .trisets import TriangleSet


class EnergyError(Exception):
    pass


class MeshFieldMismatch(EnergyError):
    pass


class DegenerateTriangle(EnergyError):
    pass


class InconsistentHistory(EnergyError):
    pass


@dataclass
class MaterialModel:
    """Energy-density cap kappa and the elasticity contraction.

    The density of a triangle is min(eps C e:e, kappa) / eps.
    `elasticity` is a symmetric positive definite 3x3 matrix acting on
    Mandel strain vectors [e11, e22, sqrt(2) e12]; its smallest and largest
    eigenvalues are the model's ellipticity constants, which bound C e:e
    from below and above by multiples of |e|^2.  With the identity matrix
    the contraction C e:e reduces exactly to the Frobenius norm |e|^2.
    """

    kappa: float = 1.0
    elasticity: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        self.elasticity = np.asarray(self.elasticity, dtype=float)
        if self.kappa <= 0.0:
            raise EnergyError(f"kappa must be positive, got {self.kappa}")
        if self.elasticity.shape != (3, 3):
            raise EnergyError("elasticity must be a 3x3 Mandel matrix")
        if not np.allclose(self.elasticity, self.elasticity.T, atol=1e-12):
            raise EnergyError("elasticity matrix must be symmetric")
        if not np.linalg.eigvalsh(self.elasticity).min() > 0.0:
            raise EnergyError("elasticity matrix must be positive definite")


@dataclass
class EnergyReport:
    total: float
    elastic_part: float
    crack_part: float
    cracked_area: float
    n_cracked: int = 0

    def csv_row(self, step: int, t: float) -> str:
        cols = [f"{step:d}", _g17(t), _g17(self.total), _g17(self.elastic_part),
                _g17(self.crack_part), _g17(self.cracked_area), f"{self.n_cracked:d}"]
        return ",".join(cols)

    CSV_HEADER = "step,t,total,elastic,crack,cracked_area,n_cracked"


def _g17(x: float) -> str:
    return f"{x:.17g}"


class CrackHistory:
    """Irreversible accumulated crack set of one run, kept by triangle id.

    A run uses one mesh, so an id names one triangle for the whole run.
    Callers may still pass a mesh of their own, so the history remembers
    the connectivity it was recorded on and refuses a mesh with other
    connectivity.
    """

    def __init__(self):
        self._ids = np.empty(0, dtype=np.int64)  # in insertion order
        self._area_prime = []  # |T n omega'| of each id at crack time
        self._triangles = None  # connectivity the ids refer to

    def add_step(self, tset: TriangleSet):
        mesh = tset.mesh
        if self._triangles is None:
            self._triangles = mesh.triangles
        _require_connectivity(self._triangles, mesh)
        new = tset.ids[~np.isin(tset.ids, self._ids)]
        self._ids = np.concatenate([self._ids, new])
        self._area_prime.extend(mesh.area_in_omega_prime[new].tolist())

    def resolve_ids(self, mesh: Triangulation) -> np.ndarray:
        """Sorted ids of the accumulated triangles on `mesh`."""
        if self._triangles is not None:
            _require_connectivity(self._triangles, mesh)
        return np.sort(self._ids)

    def area_in_omega_prime(self) -> float:
        return float(sum(self._area_prime))


def _require_connectivity(triangles, mesh: Triangulation):
    if triangles is not mesh.triangles and \
            not np.array_equal(triangles, mesh.triangles):
        raise InconsistentHistory(
            "crack history was recorded on a mesh with other connectivity")


# ---------------------------------------------------------------------------
# operations


def triangle_strain(mesh: Triangulation, u: DisplacementField, t_id: int):
    """Constant symmetrized gradient of u on one triangle, as a 2x2 matrix."""
    _check_field(mesh, u)
    if mesh.areas[t_id] < 1e-14 * mesh.params.eps ** 2:
        raise DegenerateTriangle(f"triangle {t_id} has near-zero area")
    row = u.strains()[t_id]
    s2 = row[2] / math.sqrt(2.0)
    return np.array([[row[0], s2], [s2, row[1]]])


def _check_field(mesh, u):
    if u.mesh is not mesh:
        raise MeshFieldMismatch("field does not live on this mesh")


def static_energy(mesh: Triangulation, u: DisplacementField,
                  material: MaterialModel, params: MeshParams) -> EnergyReport:
    """Total truncated energy and its exact split into the elastic part
    plus kappa * |capped region in omega| / eps."""
    _check_field(mesh, u)
    w_omega = mesh.area_in_omega
    eps = params.eps
    sq = _density(u.strains(), material)
    capped = eps * sq >= material.kappa
    elastic = float((w_omega * sq)[~capped].sum())
    crack = float((material.kappa * w_omega / eps)[capped].sum())
    return EnergyReport(total=elastic + crack, elastic_part=elastic,
                        crack_part=crack,
                        cracked_area=float(w_omega[capped].sum()),
                        n_cracked=int(capped.sum()))


def classify_cracked(mesh: Triangulation, u: DisplacementField,
                     material: MaterialModel, params: MeshParams) -> TriangleSet:
    """Triangles whose density is capped, eps |e|_C^2 >= kappa (ties
    crack)."""
    _check_field(mesh, u)
    cracked = params.eps * _density(u.strains(), material) >= material.kappa
    return TriangleSet(mesh, np.where(cracked)[0])


def choose_crack_set(mesh: Triangulation, u: DisplacementField, hist_ids,
                     material: MaterialModel, params: MeshParams) -> TriangleSet:
    """Crack set minimizing the history energy of the fixed field u.

    The accumulated ids `hist_ids` stay cracked.  Any other triangle joins
    exactly when cracking it does not raise the energy,
    kappa |T n omega'| <= eps |T n omega| |e|_C^2 (ties crack).  Where the
    two areas agree this is classify_cracked's test eps |e|_C^2 >= kappa,
    bit for bit; a triangle straddling the body boundary is charged its
    larger area in the enclosing rectangle, so it needs a proportionally
    larger strain.
    """
    _check_field(mesh, u)
    return _crack_set_of_density(mesh, _density(u.strains(), material),
                                 hist_ids, material, params)


def _density(strains, material: MaterialModel) -> np.ndarray:
    """C e : e per triangle for Mandel strain rows `strains`."""
    return np.einsum("mi,ij,mj->m", strains, material.elasticity, strains)


def _crack_set_of_density(mesh: Triangulation, sq, hist_ids,
                          material: MaterialModel,
                          params: MeshParams) -> TriangleSet:
    """choose_crack_set for the per-triangle density sq = C e : e."""
    w_omega = mesh.area_in_omega
    w_prime = mesh.area_in_omega_prime
    kappa, eps = material.kappa, params.eps
    cracked = np.where(w_omega == w_prime, eps * sq >= kappa,
                       kappa * w_prime <= eps * sq * w_omega)
    cracked[np.asarray(hist_ids, dtype=np.int64)] = True
    return TriangleSet(mesh, np.where(cracked)[0])


def history_energy(mesh: Triangulation, u: DisplacementField, history,
                   material: MaterialModel, params: MeshParams) -> EnergyReport:
    """History-dependent energy: elastic integral off the crack set, plus
    kappa/eps times the cracked area inside the enclosing rectangle.  The
    crack set is the accumulated one plus every other triangle whose
    cracking does not raise this energy (choose_crack_set): a saturated
    triangle straddling the body boundary stays elastic while its elastic
    energy is below kappa/eps times its area in the enclosing rectangle."""
    _check_field(mesh, u)
    hist_ids = _history_ids(mesh, history)
    s = choose_crack_set(mesh, u, hist_ids, material, params)
    return energy_given_crack_set(mesh, u, s.ids, material, params)


def energy_given_crack_set(mesh: Triangulation, u: DisplacementField, s_ids,
                           material: MaterialModel, params: MeshParams,
                           ) -> EnergyReport:
    """Energy with an explicit crack set (no self-classification)."""
    return _energy_of_density(mesh, _density(u.strains(), material), s_ids,
                              material, params)


def _energy_of_density(mesh: Triangulation, sq, s_ids,
                       material: MaterialModel,
                       params: MeshParams) -> EnergyReport:
    """energy_given_crack_set for the per-triangle density sq = C e : e."""
    w_omega = mesh.area_in_omega
    w_prime = mesh.area_in_omega_prime
    s_mask = np.zeros(mesh.n_triangles, dtype=bool)
    s_ids = np.asarray(s_ids, dtype=np.int64)
    s_mask[s_ids] = True
    elastic = float((w_omega[~s_mask] * sq[~s_mask]).sum())
    cracked_area = float(w_prime[s_mask].sum())
    crack = material.kappa * cracked_area / params.eps
    return EnergyReport(total=elastic + crack, elastic_part=elastic,
                        crack_part=crack, cracked_area=cracked_area,
                        n_cracked=int(len(s_ids)))


def _history_ids(mesh: Triangulation, history) -> np.ndarray:
    if history is None:
        return np.empty(0, dtype=np.int64)
    if isinstance(history, CrackHistory):
        return history.resolve_ids(mesh)
    if isinstance(history, TriangleSet):
        _require_connectivity(history.mesh.triangles, mesh)
        return history.ids
    return np.asarray(sorted(history), dtype=np.int64)
