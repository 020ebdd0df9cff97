"""Product-state preparation and the per-term bond kernel.

`prepare` builds |alpha> as a dense complex product state, and
`bond_kernel` maps a dense vector through one shifted bond term
coupling*(shift*I + sign*O). Shifted terms are not unitary and in
general branch a basis state into a superposition; the dense vector
tracks this exactly. The sampler's `Configuration` turns strings into
weights with these two pieces.

Basis states are product states: plain Z eigenstates (a BasisChoice with
no unitaries), or Z eigenstates rotated qubit-by-qubit through a
single-qubit unitary (default T*H, a non-Clifford rotation). A basis
label is the tuple of N bits, 0 or 1, with bit i for qubit i; index bit i
of a dense vector is qubit i (little endian).
"""

from __future__ import annotations

import cmath
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import BondTerm, PauliFlavor

__all__ = [
    "BasisChoice",
    "StateVector",
    "default_rotation",
    "prepare",
    "bond_kernel",
]

_UNITARY_TOL = 1e-12


def default_rotation() -> np.ndarray:
    """T*H: Hadamard followed by the T phase gate, applied per qubit."""
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    t_gate = np.diag([1.0, cmath.exp(1j * np.pi / 4)])
    return t_gate @ had


def _as_tuple(u: np.ndarray) -> tuple:
    return tuple(tuple(complex(x) for x in row) for row in np.asarray(u, dtype=complex))


def _check_unitary(u: np.ndarray) -> None:
    if u.shape != (2, 2):
        raise ValueError(f"per-qubit rotation must be 2x2, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > _UNITARY_TOL:
        raise ValueError("per-qubit rotation is not unitary")


@dataclass(frozen=True)
class BasisChoice:
    """Product basis: Z eigenstates, optionally rotated per qubit.

    Empty `unitaries` is the plain Z basis. Otherwise it holds either a
    single 2x2 (same rotation on every qubit) or one 2x2 per qubit.
    Stored as nested tuples so the choice is hashable and prepared
    vectors can be cached.
    """

    unitaries: tuple = ()

    @classmethod
    def z_product(cls) -> "BasisChoice":
        return cls()

    @classmethod
    def rotated(cls, unitaries=None) -> "BasisChoice":
        """Rotated basis; default rotation is T*H on every qubit."""
        if unitaries is None:
            unitaries = default_rotation()
        us = np.asarray(unitaries, dtype=complex)
        if us.ndim == 2:
            us = us[None, :, :]
        if len(us) == 0:
            raise ValueError("rotated basis needs at least one 2x2 rotation")
        for u in us:
            _check_unitary(u)
        return cls(tuple(_as_tuple(u) for u in us))

    def qubit_unitary(self, qubit: int, n_qubits: int) -> np.ndarray:
        """Rotation acting on one qubit (identity for the plain Z basis)."""
        if not self.unitaries:
            return np.eye(2, dtype=complex)
        if len(self.unitaries) == 1:
            return np.array(self.unitaries[0], dtype=complex)
        if len(self.unitaries) != n_qubits:
            raise ValueError(
                f"basis carries {len(self.unitaries)} rotations for {n_qubits} qubits"
            )
        return np.array(self.unitaries[qubit], dtype=complex)


@dataclass(slots=True)
class StateVector:
    """Dense amplitudes over 2^n basis states, bit i of the index = qubit i."""

    amps: np.ndarray


# 256 labels hold every label up to N = 8; past that the cache stays at
# 256 vectors of 2^N complex amplitudes instead of all 2^N of them.
@lru_cache(maxsize=256)
def _prepared_amps(bits: tuple[int, ...], basis: BasisChoice) -> np.ndarray:
    n = len(bits)
    amps = np.ones(1, dtype=complex)
    for q in range(n):
        col = basis.qubit_unitary(q, n)[:, bits[q]]
        # qubit q toggles with stride 2^q: new index = bit_q * 2^q + old
        amps = (col[:, None] * amps[None, :]).reshape(-1)
    amps.setflags(write=False)
    return amps


def prepare(bits: tuple[int, ...], basis: BasisChoice) -> StateVector:
    """Product state tensor_i U_i |bit_i>; a unit-norm vector."""
    return StateVector(_prepared_amps(bits, basis))


@lru_cache(maxsize=None)
def bond_kernel(term: BondTerm, n_qubits: int) -> Callable[[np.ndarray], np.ndarray]:
    """Raw-array map psi -> coupling*(shift*psi + sign*O_b psi) for one term.

    O_b is Z_i Z_{i+1} or X_i X_{i+1} (periodic). Built once per
    (term, n_qubits): a ZZ term folds into one diagonal multiply, an XX
    term into one gather and two scaled adds, so an application
    allocates no StateVector and recomputes no constant.
    """
    if term.site >= n_qubits:
        raise ValueError(f"term on site {term.site} does not fit {n_qubits} qubits")
    i, j = term.site, (term.site + 1) % n_qubits
    idx = np.arange(2 ** n_qubits)
    if term.flavor is PauliFlavor.ZZ:
        phases = 1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1)
        diagonal = term.coupling * (term.shift + term.sign * phases)
        return lambda amps: amps * diagonal
    partner = idx ^ ((1 << i) | (1 << j))
    identity, flip = term.coupling * term.shift, term.coupling * term.sign
    return lambda amps: identity * amps + flip * amps[partner]
