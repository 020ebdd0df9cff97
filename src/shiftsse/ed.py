"""Dense exact diagonalization for thermal benchmarks.

The spectrum of the unshifted chain Hamiltonian comes from LAPACK's
symmetric eigensolver through ``numpy.linalg.eigvalsh``; tests check the
residual of every eigenvalue against the dense Hamiltonian directly.
``model.dense_hamiltonian`` enforces the dense site limit. Thermal
averages use the unshifted spectrum; shift constants only move the
spectrum by the known offset and are excluded by construction.
"""

from __future__ import annotations

import numpy as np

from .model import ModelSpec, dense_hamiltonian

__all__ = ["spectrum", "thermal_energy"]


def spectrum(spec: ModelSpec) -> np.ndarray:
    """All eigenvalues of the unshifted chain Hamiltonian, ascending."""
    return np.linalg.eigvalsh(dense_hamiltonian(spec))


def thermal_energy(spec: ModelSpec) -> float:
    """Boltzmann-averaged energy sum_k E_k e^{-beta E_k} / sum_k e^{-beta E_k}.

    Exponents are shifted by the ground-state energy so the weights never
    overflow at large beta.
    """
    vals = spectrum(spec)
    weights = np.exp(-spec.beta * (vals - vals[0]))
    return float(np.sum(vals * weights) / np.sum(weights))
