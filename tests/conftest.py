"""Shared brute-force oracles, built from raw Kronecker products.

These helpers deliberately share no code with the package kernels: terms
become dense matrices through explicit kron chains, strings through
dense matrix products, and basis states through column extraction. All
statevector, contraction, and weight results are checked against them.
"""

import numpy as np
import pytest

from shiftsse.model import BondTerm, PauliFlavor
from shiftsse.statevec import BasisChoice

PAULI_Z = np.diag([1.0 + 0j, -1.0])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def kron_site_op(op, site, n_sites):
    """Single-site operator embedded in the full space, index bit q = site q."""
    mat = np.ones((1, 1), dtype=complex)
    for q in range(n_sites):
        mat = np.kron(op if q == site else np.eye(2), mat)
    return mat


def dense_bond_op(site, flavor, n_sites):
    i, j = site, (site + 1) % n_sites
    op = PAULI_Z if flavor is PauliFlavor.ZZ else PAULI_X
    return kron_site_op(op, i, n_sites) @ kron_site_op(op, j, n_sites)


def dense_term(term: BondTerm, n_sites: int) -> np.ndarray:
    dim = 2 ** n_sites
    return term.coupling * (
        term.shift * np.eye(dim) - dense_bond_op(term.site, term.flavor, n_sites)
    )


def dense_string_product(string, n_sites):
    """Matrix of H_{b_n} ... H_{b_1}: the first list entry is applied first."""
    out = np.eye(2 ** n_sites, dtype=complex)
    for term in string:
        out = dense_term(term, n_sites) @ out
    return out


def dense_prepare(bits, basis: BasisChoice) -> np.ndarray:
    """Prepared basis vector from explicit per-qubit columns."""
    n = len(bits)
    vec = np.ones(1, dtype=complex)
    for q in range(n):
        col = basis.qubit_unitary(q, n)[:, bits[q]]
        vec = np.kron(col, vec)
    return vec


def dense_matrix_element(bits, basis, string, n_sites):
    vec = dense_prepare(bits, basis)
    return vec.conj() @ dense_string_product(string, n_sites) @ vec


def tilted_unitary(theta=np.pi / 6):
    """T phase gate after a y-rotation: tilts <Z> while staying non-Clifford.

    Unlike the default rotation (which zeroes <Z> on every qubit), this
    keeps <Z> = cos(theta), which is what makes small commuting-term
    instances genuinely sign-afflicted at shifts below 1.
    """
    ry = np.array([
        [np.cos(theta / 2), -np.sin(theta / 2)],
        [np.sin(theta / 2), np.cos(theta / 2)],
    ])
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    return t_gate @ ry


def tilted_basis(n_sites, sites=(0,)):
    """Z-product basis with the tilting rotation on the given sites."""
    rotations = [np.eye(2, dtype=complex) for _ in range(n_sites)]
    for s in sites:
        rotations[s] = tilted_unitary()
    return BasisChoice.rotated(rotations)


def random_term(rng, n_sites):
    flavor = PauliFlavor.ZZ if rng.random() < 0.5 else PauliFlavor.XX
    shift = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 2.5))
    return BondTerm(int(rng.integers(n_sites)), flavor,
                    float(rng.uniform(0.25, 1.5)), shift)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
