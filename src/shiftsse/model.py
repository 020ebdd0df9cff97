"""Antiferromagnetic anisotropic XY chain and its shifted-term decomposition.

The physical Hamiltonian on a periodic chain of N spin-1/2 sites is

    H = sum_i Z_i Z_{i+1} + delta * sum_i X_i X_{i+1},    0 <= delta <= 1,

with Z_i, X_i Pauli matrices and site indices mod N. For sampling, each
bond interaction is rewritten as a shifted non-negative-leaning factor

    H = - sum_i (m_z - Z_i Z_{i+1}) - delta * sum_i (m_x - X_i X_{i+1})
        + (m_z + delta * m_x) * N,

so the simulator works with up to 2N bond terms of the form

    coupling * (shift * I + sign * O_b),   sign = -1 for this model,

where O_b is Z_i Z_{i+1} (coupling 1, shift m_z) or X_i X_{i+1}
(coupling delta, shift m_x). The trailing constant (m_z + delta*m_x)*N is
the energy offset that must be added back to series-expansion energy
estimates. At delta = 0 the XX terms vanish, and `active_terms` builds
only the N ZZ terms: no zero-coupling term is ever built.

Conventions: basis index bit i is site i (little endian); Z|0> = +|0>.
At N=2 the periodic sum visits the single bond twice, so two ZZ and two
XX terms act on the same pair; both are kept to preserve the uniform
2N-term structure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PauliFlavor",
    "BondTerm",
    "ModelSpec",
    "active_terms",
    "dense_hamiltonian",
    "term_matrix",
]

DENSE_SITE_LIMIT = 12


class PauliFlavor(enum.Enum):
    """Two-site Pauli flavor of a bond interaction."""

    ZZ = "ZZ"
    XX = "XX"


@dataclass(frozen=True, slots=True)
class BondTerm:
    """One shifted bond factor coupling*(shift*I + sign*O) on (site, site+1).

    coupling is |h_b| (1 for ZZ bonds, delta for XX bonds), shift the
    positive constant added to the bond operator, sign = sgn(h_b) = -1
    for both flavors of this antiferromagnet.
    """

    site: int
    flavor: PauliFlavor
    coupling: float
    shift: float
    sign: int

    def __post_init__(self):
        if self.site < 0:
            raise ValueError(f"site must be non-negative, got {self.site}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.shift <= 0:
            raise ValueError(f"shift must be positive, got {self.shift}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

    def sites(self, n_sites: int) -> tuple[int, int]:
        """Bond endpoints (site, site+1 mod N)."""
        return self.site, (self.site + 1) % n_sites

    def operator_norm_bound(self) -> float:
        """Upper bound on the spectral norm: coupling*(shift + 1)."""
        return self.coupling * (self.shift + 1.0)


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """Chain size, anisotropy, shift constants, and inverse temperature."""

    n_sites: int
    delta: float
    m_x: float
    m_z: float
    beta: float

    def __post_init__(self):
        for name in ("delta", "m_x", "m_z", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.m_x <= 0 or self.m_z <= 0:
            raise ValueError(f"shifts must be positive, got m_x={self.m_x}, m_z={self.m_z}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def energy_offset(self) -> float:
        """Constant (m_z + delta*m_x)*N restored by the energy estimator."""
        return (self.m_z + self.delta * self.m_x) * self.n_sites


@lru_cache(maxsize=None)
def active_terms(spec: ModelSpec) -> tuple[BondTerm, ...]:
    """The sampler's proposal set, the bond terms with nonzero coupling.

    N ZZ terms (coupling 1, shift m_z), then N XX terms (coupling delta,
    shift m_x) unless delta = 0, all with sign -1. No zero-coupling term
    is built.
    """
    zz = tuple(BondTerm(i, PauliFlavor.ZZ, 1.0, spec.m_z, -1) for i in range(spec.n_sites))
    if spec.delta == 0.0:
        return zz
    return zz + tuple(BondTerm(i, PauliFlavor.XX, spec.delta, spec.m_x, -1)
                      for i in range(spec.n_sites))


_Z = np.diag([1.0, -1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def bond_operator_matrix(site: int, flavor: PauliFlavor, n_sites: int) -> np.ndarray:
    """Dense matrix of the bare two-site operator O_b (no coupling, no shift).

    One Kronecker chain with the Pauli on both bond sites (at N = 2 both
    bonds join the same pair, and O_b is still P x P).
    """
    op = _Z if flavor is PauliFlavor.ZZ else _X
    bond = {site, (site + 1) % n_sites}
    mat = np.ones((1, 1))
    for q in range(n_sites):
        # qubit q varies fastest; kron puts the later factor on the slow axis
        mat = np.kron(op if q in bond else np.eye(2), mat)
    return mat


def term_matrix(term: BondTerm, n_sites: int) -> np.ndarray:
    """Dense matrix coupling*(shift*I + sign*O_b) of one bond term."""
    if term.site >= n_sites:
        raise ValueError(f"term on site {term.site} does not fit {n_sites} qubits")
    dim = 2 ** n_sites
    ob = bond_operator_matrix(term.site, term.flavor, n_sites)
    return term.coupling * (term.shift * np.eye(dim) + term.sign * ob)


def dense_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the unshifted chain Hamiltonian.

    Shifts are a pure identity offset and are deliberately excluded so
    the spectrum is that of the physical model.
    """
    if spec.n_sites > DENSE_SITE_LIMIT:
        raise ValueError(
            f"dense form limited to {DENSE_SITE_LIMIT} sites, got {spec.n_sites}"
        )
    dim = 2 ** spec.n_sites
    ham = np.zeros((dim, dim))
    for i in range(spec.n_sites):
        ham += bond_operator_matrix(i, PauliFlavor.ZZ, spec.n_sites)
        if spec.delta != 0.0:
            ham += spec.delta * bond_operator_matrix(i, PauliFlavor.XX, spec.n_sites)
    return ham
