"""Truncated finite-element energy, crack classification, and the
history-dependent energy of the incremental scheme.

Per triangle the density is min(eps C e:e, kappa) / eps for a positive
definite elasticity C; in the static energy a triangle whose density is
capped counts as cracked, on the background grid or off it.  The elastic
integral runs over the body rectangle; cracked area is measured inside the
enclosing rectangle, so in the history energy a triangle straddling the
body boundary costs more cracked than its capped density says.  The one
crack rule, classify_cracked, keeps the history cracked and cracks any
other triangle where kappa |T n omega'| <= eps |T n omega| |e|_C^2, which
minimizes the history energy of a fixed field; energy_given_crack_set is
the energy of a given set.  Both take the density C e:e per triangle.

Every function reads eps from the mesh's own parameters.  The history of
a run is its accumulated set of cracked triangles, passed as an array of
triangle ids on the run's one mesh.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import DisplacementField, Triangulation
from .trisets import TriangleSet


class EnergyError(Exception):
    pass


class MeshFieldMismatch(EnergyError):
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


# ---------------------------------------------------------------------------
# operations


def _check_field(mesh, u):
    if u.mesh is not mesh:
        raise MeshFieldMismatch("field does not live on this mesh")


def static_energy(mesh: Triangulation, u: DisplacementField,
                  material: MaterialModel) -> EnergyReport:
    """Total truncated energy and its exact split into the elastic part
    plus kappa * |capped region in omega| / eps."""
    _check_field(mesh, u)
    w_omega = mesh.area_in_omega
    eps = mesh.params.eps
    sq = _density(u.strains(), material)
    capped = eps * sq >= material.kappa
    elastic = float((w_omega * sq)[~capped].sum())
    crack = float((material.kappa * w_omega / eps)[capped].sum())
    return EnergyReport(total=elastic + crack, elastic_part=elastic,
                        crack_part=crack,
                        cracked_area=float(w_omega[capped].sum()),
                        n_cracked=int(capped.sum()))


def _density(strains, material: MaterialModel) -> np.ndarray:
    """C e : e per triangle for Mandel strain rows `strains`: the terms
    (e_i C_ij) e_j summed in row-major order.

    The first term is never -0.0 (C_00 > 0), so neither is any partial
    sum, and a term with C_ij = 0 is a signed zero that leaves the sum's
    bits unchanged for finite strains; those terms are skipped.
    """
    c = material.elasticity
    e = strains.T
    out = (e[0] * c[0, 0]) * e[0]
    for i, j in zip(*np.nonzero(c)):
        if i or j:
            out += (e[i] * c[i, j]) * e[j]
    return out


def classify_cracked(mesh: Triangulation, sq, hist_ids,
                     material: MaterialModel) -> TriangleSet:
    """Crack set minimizing the history energy of a field whose density
    per triangle is sq = C e : e.

    The accumulated ids `hist_ids` stay cracked.  Any other triangle joins
    exactly when cracking it does not raise the energy,
    kappa |T n omega'| <= eps |T n omega| |e|_C^2 (ties crack).  Where the
    two areas agree this is the static energy's cap test
    eps |e|_C^2 >= kappa, bit for bit; a triangle straddling the body
    boundary is charged its larger area in the enclosing rectangle, so it
    needs a proportionally larger strain.
    """
    w_omega = mesh.area_in_omega
    w_prime = mesh.area_in_omega_prime
    kappa, eps = material.kappa, mesh.params.eps
    cracked = np.where(w_omega == w_prime, eps * sq >= kappa,
                       kappa * w_prime <= eps * sq * w_omega)
    cracked[np.asarray(hist_ids, dtype=np.int64)] = True
    return TriangleSet(mesh, np.where(cracked)[0])


def energy_given_crack_set(mesh: Triangulation, sq, s_ids,
                           material: MaterialModel) -> EnergyReport:
    """History energy with the explicit crack set `s_ids` (no
    self-classification) of a field whose density per triangle is
    sq = C e : e."""
    w_omega = mesh.area_in_omega
    w_prime = mesh.area_in_omega_prime
    s_mask = np.zeros(mesh.n_triangles, dtype=bool)
    s_ids = np.asarray(s_ids, dtype=np.int64)
    s_mask[s_ids] = True
    elastic = float((w_omega[~s_mask] * sq[~s_mask]).sum())
    cracked_area = float(w_prime[s_mask].sum())
    crack = material.kappa * cracked_area / mesh.params.eps
    return EnergyReport(total=elastic + crack, elastic_part=elastic,
                        crack_part=crack, cracked_area=cracked_area,
                        n_cracked=int(len(s_ids)))


def history_energy(mesh: Triangulation, u: DisplacementField, hist_ids,
                   material: MaterialModel) -> EnergyReport:
    """History-dependent energy: elastic integral off the crack set, plus
    kappa/eps times the cracked area inside the enclosing rectangle.  The
    crack set is the accumulated one (ids `hist_ids`) plus every other
    triangle whose cracking does not raise this energy (classify_cracked):
    a saturated triangle straddling the body boundary stays elastic while
    its elastic energy is below kappa/eps times its area in the enclosing
    rectangle."""
    _check_field(mesh, u)
    sq = _density(u.strains(), material)
    s = classify_cracked(mesh, sq, hist_ids, material)
    return energy_given_crack_set(mesh, sq, s.ids, material)
