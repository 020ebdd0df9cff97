"""Independent brute-force validators for the sampling weights.

Two cross-checks, both deliberately avoiding the fast evaluation path:

ancilla_weight rebuilds a configuration weight on a composite register
of N system qubits plus one ancilla per string slot. Ancilla i starts in
sqrt(M_i/(M_i+1))|0> + sqrt(1/(M_i+1))|1>, and each bond term becomes a
controlled unitary applying -O_b to the system when its ancilla is
set. Tracing out the ancillas reproduces (M_i - O_b)/(M_i+1) per slot,
so

    W = beta^n/n! * prod_i (M_i+1)|h_i| * Re <Psi| U_{b_n}...U_{b_1} |Psi>

must equal the direct evaluation exactly. The controlled gates act on
the literal 2^(N+n) statevector, no shortcuts.

brute_force_partition enumerates every (label, string) configuration up
to a string-length cap and forms Z = sum W and Z' = sum |W|, giving the
exact average sign Z/Z' on micro instances. Terms whose dense matrices
are identical are grouped, each group contributing a multiplicity.
Strings are walked as a prefix tree in batches: a stack holds batches of
real dense prefix products with their multiplicities, each batch yields
its diagonal contributions in the basis in one einsum and its children
in one batched matmul, and BATCH_LIMIT bounds the products in a batch.
This shares nothing with the statevector kernel. The neglected tail is
bounded by sum_{n>cap} (beta*t*w_max)^n/n! times the number of labels,
with w_max a per-term operator-norm bound.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelSpec, PauliFlavor, active_terms, term_matrix
from .statevec import BasisChoice

__all__ = ["ancilla_weight", "brute_force_partition"]

ANCILLA_QUBIT_LIMIT = 16

# Most prefix products brute_force_partition multiplies in one batch.
BATCH_LIMIT = 4096


def _poisson_factor(beta: float, n: int) -> float:
    """beta^n/n!, each factor beta/k times the one before: no power or
    factorial is formed, so no order overflows."""
    f = 1.0
    for k in range(1, n + 1):
        f = f * beta / k
    return f


def _product_state(vectors: list[np.ndarray]) -> np.ndarray:
    """Little-endian product state: vectors[q] lives on index bit q."""
    amps = np.ones(1, dtype=complex)
    for v in vectors:
        amps = (np.asarray(v, dtype=complex)[:, None] * amps[None, :]).reshape(-1)
    return amps


def _controlled_term(state: np.ndarray, site: int, flavor: PauliFlavor,
                     n_sys: int, anc_qubit: int) -> np.ndarray:
    """Apply -O_b to the system register where ancilla anc_qubit is set."""
    idx = np.arange(state.size)
    anc_set = ((idx >> anc_qubit) & 1).astype(bool)
    i, j = site, (site + 1) % n_sys
    if flavor is PauliFlavor.ZZ:
        zz = 1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1)
        return np.where(anc_set, -zz * state, state)
    flipped = state[idx ^ ((1 << i) | (1 << j))]
    return np.where(anc_set, -flipped, state)


def ancilla_weight(config, model: ModelSpec, basis: BasisChoice) -> float:
    """Configuration weight via the ancilla-register construction."""
    n_sys = model.n_sites
    string = config.string
    n = len(string)
    total = n_sys + n
    if total > ANCILLA_QUBIT_LIMIT:
        raise ValueError(
            f"register needs {total} qubits, limit is {ANCILLA_QUBIT_LIMIT}"
        )
    vectors = [
        basis.qubit_unitary(q, n_sys)[:, config.alpha[q]]
        for q in range(n_sys)
    ]
    for term in string:
        m = term.shift
        vectors.append(np.array([math.sqrt(m / (m + 1.0)),
                                 math.sqrt(1.0 / (m + 1.0))]))
    psi = _product_state(vectors)
    cur = psi
    for i, term in enumerate(string):
        cur = _controlled_term(cur, term.site, term.flavor, n_sys, n_sys + i)
    amplitude = complex(np.vdot(psi, cur))
    scale = 1.0
    for term in string:
        scale *= (term.shift + 1.0) * term.coupling
    return _poisson_factor(model.beta, n) * scale * amplitude.real


def _basis_matrix(basis: BasisChoice, n_sites: int) -> np.ndarray:
    """Columns are the prepared basis vectors, column a = state with bits of a."""
    mat = np.ones((1, 1), dtype=complex)
    for q in range(n_sites):
        mat = np.kron(basis.qubit_unitary(q, n_sites), mat)
    return mat


def _tail_sum(x: float, n_max: int) -> float:
    """sum_{n > n_max} x^n / n! by forward recursion from the first term."""
    if x == 0.0:
        return 0.0
    log_term = (n_max + 1) * math.log(x) - math.lgamma(n_max + 2)
    term = math.exp(log_term)
    total = 0.0
    n = n_max + 1
    while term > 1e-320 and n < n_max + 2000:
        total += term
        n += 1
        term *= x / n
    return total


def brute_force_partition(model: ModelSpec, basis: BasisChoice,
                          n_max: int) -> tuple[float, float, float]:
    """Exact (Z, Z', tail_bound) over all configurations with order <= n_max.

    Feasibility scales as (distinct term matrices)^n_max; intended for
    chains of two or three sites. The tail bound covers both sums.
    """
    n_sites = model.n_sites
    dim = 2 ** n_sites
    terms = active_terms(model)
    term_mats, counts = np.unique([term_matrix(t, n_sites) for t in terms],
                                  axis=0, return_counts=True)
    basis_mat = _basis_matrix(basis, n_sites)

    z = z_abs = 0.0
    stack = [(0, np.eye(dim)[None], np.ones(1))]
    while stack:
        depth, products, mults = stack.pop()
        diag = np.einsum("ia,kij,ja->ka", basis_mat.conj(), products, basis_mat).real
        contributions = _poisson_factor(model.beta, depth) * mults[:, None] * diag
        z += float(np.sum(contributions))
        z_abs += float(np.sum(np.abs(contributions)))
        if depth == n_max:
            continue
        children = np.matmul(term_mats[:, None], products).reshape(-1, dim, dim)
        child_mults = np.outer(counts, mults).reshape(-1)
        for lo in range(0, len(children), BATCH_LIMIT):
            stack.append((depth + 1, children[lo:lo + BATCH_LIMIT],
                          child_mults[lo:lo + BATCH_LIMIT]))

    w_max = max(t.operator_norm_bound() for t in terms)
    tail_bound = dim * _tail_sum(model.beta * len(terms) * w_max, n_max)
    return z, z_abs, tail_bound
