"""Dense complex statevector kernel for bond-term products.

Matrix elements <alpha| H_{b_n} ... H_{b_1} |alpha> are evaluated by
preparing |alpha> as a product state, applying each shifted bond term in
string order, and projecting back onto |alpha>. Shifted terms
coupling*(shift*I + sign*O) are not unitary and in general branch a basis
state into a superposition; the dense vector tracks this exactly.

Every bond-term application, here and in the sampler's propagated
states, goes through one raw-array kernel per term (`bond_kernel`).

Basis states are product states: plain Z eigenstates, or Z eigenstates
rotated qubit-by-qubit through a single-qubit unitary (default T*H, a
non-Clifford rotation). Index bit i is qubit i (little endian).
"""

from __future__ import annotations

import cmath
import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import BondTerm, PauliFlavor

__all__ = [
    "BasisKind",
    "BasisChoice",
    "BasisLabel",
    "StateVector",
    "default_rotation",
    "prepare",
    "apply_term",
    "bond_kernel",
    "string_matrix_element",
]

_UNITARY_TOL = 1e-12


class BasisKind(enum.Enum):
    Z_PRODUCT = "z_product"
    ROTATED = "rotated"


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

    For ROTATED, `unitaries` holds either a single 2x2 (same rotation on
    every qubit) or one 2x2 per qubit. Stored as nested tuples so the
    choice is hashable and prepared vectors can be cached.
    """

    kind: BasisKind
    unitaries: tuple = field(default=())

    @classmethod
    def z_product(cls) -> "BasisChoice":
        return cls(BasisKind.Z_PRODUCT)

    @classmethod
    def rotated(cls, unitaries=None) -> "BasisChoice":
        """Rotated basis; default rotation is T*H on every qubit."""
        if unitaries is None:
            unitaries = default_rotation()
        us = np.asarray(unitaries, dtype=complex)
        if us.ndim == 2:
            us = us[None, :, :]
        for u in us:
            _check_unitary(u)
        return cls(BasisKind.ROTATED, tuple(_as_tuple(u) for u in us))

    def qubit_unitary(self, qubit: int, n_qubits: int) -> np.ndarray:
        """Rotation acting on one qubit (identity for the plain Z basis)."""
        if self.kind is BasisKind.Z_PRODUCT:
            return np.eye(2, dtype=complex)
        if len(self.unitaries) == 1:
            return np.array(self.unitaries[0], dtype=complex)
        if len(self.unitaries) != n_qubits:
            raise ValueError(
                f"basis carries {len(self.unitaries)} rotations for {n_qubits} qubits"
            )
        return np.array(self.unitaries[qubit], dtype=complex)


@dataclass(frozen=True, slots=True)
class BasisLabel:
    """N-bit pattern of the underlying Z-eigenstate product."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits}")

    @classmethod
    def zeros(cls, n: int) -> "BasisLabel":
        return cls((0,) * n)

    @classmethod
    def from_index(cls, index: int, n: int) -> "BasisLabel":
        return cls(tuple((index >> i) & 1 for i in range(n)))

    @property
    def n_qubits(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    def flip(self, qubit: int) -> "BasisLabel":
        bits = list(self.bits)
        bits[qubit] ^= 1
        return BasisLabel(tuple(bits))


@dataclass(slots=True)
class StateVector:
    """Dense amplitudes over 2^n basis states, bit i of the index = qubit i."""

    n_qubits: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@lru_cache(maxsize=None)
def _prepared_amps(bits: tuple[int, ...], basis: BasisChoice) -> np.ndarray:
    n = len(bits)
    amps = np.ones(1, dtype=complex)
    for q in range(n):
        col = basis.qubit_unitary(q, n)[:, bits[q]]
        # qubit q toggles with stride 2^q: new index = bit_q * 2^q + old
        amps = (col[:, None] * amps[None, :]).reshape(-1)
    amps.setflags(write=False)
    return amps


def prepare(label: BasisLabel, basis: BasisChoice) -> StateVector:
    """Product state tensor_i U_i |bit_i>; a unit-norm vector."""
    return StateVector(label.n_qubits, _prepared_amps(label.bits, basis))


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


def apply_term(state: StateVector, term: BondTerm) -> StateVector:
    """coupling*(shift*|psi> + sign*O_b|psi>); branching is expected.

    The result is generally unnormalized: shifted terms are positive
    affine combinations of I and a Pauli string, not unitaries.
    """
    return StateVector(state.n_qubits, bond_kernel(term, state.n_qubits)(state.amps))


def string_matrix_element(label: BasisLabel, basis: BasisChoice,
                          string: list[BondTerm]) -> complex:
    """<alpha| H_{b_n} ... H_{b_1} |alpha> with the first list entry applied first.

    The empty string gives <alpha|alpha> = 1.
    """
    n = label.n_qubits
    start = prepare(label, basis).amps
    cur = start
    for term in string:
        cur = bond_kernel(term, n)(cur)
    return complex(np.vdot(start, cur))
