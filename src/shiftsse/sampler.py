"""Markov chain over (order, operator string, basis label) configurations.

A configuration C = (n, [b_1..b_n], alpha) carries the signed weight

    W(C) = beta^n / n! * Re <alpha| H_{b_n} ... H_{b_1} |alpha>,

with each H_b the full shifted bond factor coupling*(shift*I + sign*O).
The chain samples |W| and emits sgn(W) so observables can be reweighted.
Configurations with W = 0 are excluded: proposals into them always
reject, keeping the sign well defined.

One sweep runs three update kinds:

  alpha    lazily (probability 1/2 per attempt) flip one uniformly
           chosen label bit, accept min(1, |W'|/|W|)
  string   replace the term at a uniform position by a uniform draw from
           the active term set, accept min(1, |W'|/|W|)
  insert / with probability 1/2 insert a uniform active term at a
  remove   uniform slot (accept min(1, N_act * |W'|/|W|)), otherwise
           remove a uniform operator (accept min(1, |W'| / (N_act*|W|)))

The insert/remove asymmetry factor N_act comes from the proposal
measure: inserting chooses among (n+1)*N_act (slot, term) pairs while
removing chooses among n+1 operators, and the factorial beta^n/n! inside
W supplies the remaining length dependence. Detailed balance with
respect to |W| holds exactly and is enforced by an enumerated
transition-matrix test.

Weights are evaluated from propagated states, the standard SSE
technique (Sandvik, PRB 59, R14157 (1999)). A configuration caches the
left states L_k = H_k ... H_1 |alpha> and the right states
R_k = H_{k+1} ... H_n |alpha>; every bond factor is real symmetric, so
<alpha| H_n ... H_{k+1} = R_k^dagger and W is proportional to
Re <R_k|L_k> at any split k. A replacement at position p then costs one
bond application and one inner product, <R_{p+1}|H'|L_p>, an insertion
at slot s likewise <R_s|H_t|L_s>, and a removal at p only <R_{p+1}|L_p>.
Both lists are extended lazily; an accepted move drops only the states
it invalidates. A label flip propagates a fresh cache for the proposed
label and adopts it when accepted. The cache is keyed on the identity of
the configuration's alpha and string objects and of the model and
basis, so a configuration built or reassigned from outside is
re-propagated, never read stale. `weight_of` is the from-scratch
reference evaluation.

String lengths are unbounded; there is no truncation anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .estimators import RunAccumulators
from .model import ModelSpec, active_terms
from .statevec import BasisChoice, BasisLabel, bond_kernel, prepare, string_matrix_element

__all__ = [
    "Configuration",
    "PropagatedStates",
    "SweepPlan",
    "SweepSample",
    "rng_stream",
    "weight",
    "weight_of",
    "propagated_states",
    "update_alpha",
    "update_string_fixed_n",
    "update_insert_remove",
    "sweep",
    "run_chain",
]


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator; (seed, stream) pairs are independent chains.

    Streams are derived from the master seed by counter through
    SeedSequence spawn keys, so identical (seed, stream) reproduce
    identical chains bit for bit.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass
class Configuration:
    """Chain state: basis label, operator string, and cached signed weight.

    The updates also keep the configuration's propagated states here
    (see `propagated_states`); they are not part of its value.
    """

    alpha: BasisLabel
    string: list
    weight_value: float
    states: PropagatedStates | None = field(default=None, init=False,
                                            repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.string)

    @classmethod
    def initial(cls, model: ModelSpec, rng: np.random.Generator | None = None) -> "Configuration":
        """Empty-string start; W = 1 for every label, so any alpha is valid."""
        if rng is None:
            bits = (0,) * model.n_sites
        else:
            bits = tuple(int(b) for b in rng.integers(0, 2, size=model.n_sites))
        return cls(alpha=BasisLabel(bits), string=[], weight_value=1.0)


@dataclass(frozen=True)
class SweepPlan:
    """Proposal counts for the three update kinds within one sweep.

    string_updates=None adapts to the current string length (minimum 1
    attempt, and attempts at order 0 are silent no-ops).
    """

    alpha_updates: int
    string_updates: int | None
    insert_remove_updates: int

    def __post_init__(self):
        if self.alpha_updates < 1 or self.insert_remove_updates < 1:
            raise ValueError("update counts must be at least 1")
        if self.string_updates is not None and self.string_updates < 1:
            raise ValueError("update counts must be at least 1")

    @classmethod
    def default(cls, n_sites: int) -> "SweepPlan":
        """N effective label flips (2N lazy attempts), adaptive string
        replacements, N insert/remove attempts."""
        return cls(alpha_updates=2 * n_sites, string_updates=None,
                   insert_remove_updates=n_sites)

    def string_count(self, order: int) -> int:
        if self.string_updates is not None:
            return self.string_updates
        return max(1, order)


@dataclass(frozen=True)
class SweepSample:
    sign: int
    order: int


@lru_cache(maxsize=None)
def _active(model: ModelSpec) -> tuple:
    return tuple(active_terms(model))


def _poisson_factor(beta: float, n: int) -> float:
    """beta^n / n! through logs, safe for any order."""
    if n == 0:
        return 1.0
    return math.exp(n * math.log(beta) - math.lgamma(n + 1))


def weight_of(alpha: BasisLabel, string: list, model: ModelSpec,
              basis: BasisChoice) -> float:
    """Signed weight of an arbitrary (alpha, string) pair, from scratch."""
    n = len(string)
    if n == 0:
        return 1.0
    me = string_matrix_element(alpha, basis, string)
    return _poisson_factor(model.beta, n) * me.real


def weight(config: Configuration, model: ModelSpec, basis: BasisChoice) -> float:
    """Signed weight of a configuration (full evaluation, no caching)."""
    return weight_of(config.alpha, config.string, model, basis)


class PropagatedStates:
    """Left and right propagated states of one (alpha, string) pair.

    left[k] = L_k = H_k ... H_1 |alpha> and right[j] = R_{n-j} =
    H_{n-j+1} ... H_n |alpha>, each a valid prefix extended on demand.
    Counting right states from the end of the string keeps them valid
    when a move changes the length in front of them. `kernels` holds the
    bond kernel of each string operator, so propagation looks none up.

    The proposal methods return the signed weight of the proposed
    configuration and remember the move as a splice of the string;
    `accept` applies the last one. The string is never mutated in place:
    an accepted move builds a new list.
    """

    __slots__ = ("alpha", "string", "model", "basis", "kernels", "left", "right", "_move")

    def __init__(self, alpha: BasisLabel, string: list, model: ModelSpec,
                 basis: BasisChoice, kernels: list | None = None):
        self.alpha = alpha
        self.string = string
        self.model = model
        self.basis = basis
        if kernels is None:
            kernels = [bond_kernel(term, model.n_sites) for term in string]
        self.kernels = kernels
        start = prepare(alpha, basis).amps
        self.left = [start]
        self.right = [start]
        self._move = None

    def keyed_on(self, config: Configuration, model: ModelSpec,
                 basis: BasisChoice) -> bool:
        return (self.alpha is config.alpha and self.string is config.string
                and self.model is model and self.basis is basis)

    def relabeled(self, alpha: BasisLabel) -> "PropagatedStates":
        """A fresh cache for the same string under another label."""
        return PropagatedStates(alpha, self.string, self.model, self.basis, self.kernels)

    def _left(self, k: int) -> np.ndarray:
        left, kernels = self.left, self.kernels
        while len(left) <= k:
            left.append(kernels[len(left) - 1](left[-1]))
        return left[k]

    def _right(self, k: int) -> np.ndarray:
        """R_k = H_{k+1} ... H_n |alpha>."""
        right, kernels = self.right, self.kernels
        n = len(kernels)
        while len(right) <= n - k:
            right.append(kernels[n - len(right)](right[-1]))
        return right[n - k]

    def _weight(self, n: int, bra: np.ndarray, ket: np.ndarray) -> float:
        return _poisson_factor(self.model.beta, n) * float(np.vdot(bra, ket).real)

    def weight(self) -> float:
        """W of the cached pair itself, <R_n|L_n> = <alpha|L_n>."""
        n = len(self.string)
        return self._weight(n, self._right(n), self._left(n))

    def replace(self, pos: int, term) -> float:
        """W with the operator at `pos` replaced: <R_{p+1}|H'|L_p>."""
        kernel = bond_kernel(term, self.model.n_sites)
        ket = kernel(self._left(pos))
        self._move = (pos, 1, [term], [kernel], ket)
        return self._weight(len(self.string), self._right(pos + 1), ket)

    def insert(self, slot: int, term) -> float:
        """W with `term` inserted before position `slot`: <R_s|H_t|L_s>."""
        kernel = bond_kernel(term, self.model.n_sites)
        ket = kernel(self._left(slot))
        self._move = (slot, 0, [term], [kernel], ket)
        return self._weight(len(self.string) + 1, self._right(slot), ket)

    def remove(self, pos: int) -> float:
        """W with the operator at `pos` removed: <R_{p+1}|L_p>."""
        self._move = (pos, 1, [], [], None)
        return self._weight(len(self.string) - 1, self._right(pos + 1), self._left(pos))

    def accept(self) -> list:
        """Apply the last proposed move and return the new string.

        The move replaces the `cut` operators at `pos` by `terms`. Left
        states up to `pos` and right states behind the cut stay valid, and
        so does the proposal's left state past `pos`.
        """
        pos, cut, terms, kernels, ket = self._move
        self._move = None
        n = len(self.string)
        del self.left[pos + 1:]
        if ket is not None:
            self.left.append(ket)
        del self.right[n - pos - cut + 1:]
        self.string = self.string[:pos] + terms + self.string[pos + cut:]
        self.kernels = self.kernels[:pos] + kernels + self.kernels[pos + cut:]
        return self.string


def propagated_states(config: Configuration, model: ModelSpec,
                      basis: BasisChoice) -> PropagatedStates:
    """The configuration's cache, rebuilt if any object it is keyed on changed."""
    states = config.states
    if states is None or not states.keyed_on(config, model, basis):
        states = config.states = PropagatedStates(config.alpha, config.string, model, basis)
    return states


def metropolis_acceptance(w_old: float, w_new: float) -> float:
    """min(1, |W'|/|W|); zero-weight proposals never accept."""
    if w_new == 0.0:
        return 0.0
    return min(1.0, abs(w_new) / abs(w_old))


def insert_acceptance(w_old: float, w_new: float, n_active: int) -> float:
    if w_new == 0.0:
        return 0.0
    return min(1.0, n_active * abs(w_new) / abs(w_old))


def remove_acceptance(w_old: float, w_new: float, n_active: int) -> float:
    if w_new == 0.0:
        return 0.0
    return min(1.0, abs(w_new) / (n_active * abs(w_old)))


def update_alpha(config: Configuration, model: ModelSpec, basis: BasisChoice,
                 rng: np.random.Generator) -> Configuration:
    """Flip one uniformly chosen label bit, Metropolis on |W|.

    The attempt is lazy: with probability 1/2 it proposes nothing. On
    degenerate weight landscapes (all labels equal, e.g. at order 0)
    every flip is accepted, and a fixed even number of deterministic
    flips per sweep would conserve label parity and cut the chain in
    two; the lazy coin restores aperiodicity without touching detailed
    balance.
    """
    if rng.random() < 0.5:
        return config
    qubit = int(rng.integers(model.n_sites))
    proposal = config.alpha.flip(qubit)
    fresh = propagated_states(config, model, basis).relabeled(proposal)
    w_new = fresh.weight()
    if rng.random() < metropolis_acceptance(config.weight_value, w_new):
        config.alpha = proposal
        config.weight_value = w_new
        config.states = fresh
    return config


def update_string_fixed_n(config: Configuration, model: ModelSpec,
                          basis: BasisChoice, rng: np.random.Generator) -> Configuration:
    """Replace the term at a uniform position with a uniform active term.

    Silently skipped at order 0. Self-replacements are ratio-1 moves and
    are accepted without a fresh evaluation.
    """
    n = config.order
    if n == 0:
        return config
    terms = _active(model)
    pos = int(rng.integers(n))
    candidate = terms[int(rng.integers(len(terms)))]
    if candidate == config.string[pos]:
        return config
    states = propagated_states(config, model, basis)
    w_new = states.replace(pos, candidate)
    if rng.random() < metropolis_acceptance(config.weight_value, w_new):
        config.string = states.accept()
        config.weight_value = w_new
    return config


def update_insert_remove(config: Configuration, model: ModelSpec,
                         basis: BasisChoice, rng: np.random.Generator) -> Configuration:
    """Grow or shrink the string by one operator (n -> n +- 1)."""
    terms = _active(model)
    n_active = len(terms)
    n = config.order
    states = propagated_states(config, model, basis)
    if rng.random() < 0.5:
        slot = int(rng.integers(n + 1))
        term = terms[int(rng.integers(n_active))]
        w_new = states.insert(slot, term)
        accept = insert_acceptance(config.weight_value, w_new, n_active)
    else:
        if n == 0:
            return config
        pos = int(rng.integers(n))
        w_new = states.remove(pos)
        accept = remove_acceptance(config.weight_value, w_new, n_active)
    if rng.random() < accept:
        config.string = states.accept()
        config.weight_value = w_new
    return config


def sweep(config: Configuration, plan: SweepPlan, model: ModelSpec,
          basis: BasisChoice, rng: np.random.Generator) -> tuple[Configuration, SweepSample]:
    """Run one full sweep and emit (sign, order) of the final state."""
    for _ in range(plan.alpha_updates):
        update_alpha(config, model, basis, rng)
    for _ in range(plan.string_count(config.order)):
        update_string_fixed_n(config, model, basis, rng)
    for _ in range(plan.insert_remove_updates):
        update_insert_remove(config, model, basis, rng)
    sign = 1 if config.weight_value > 0.0 else -1
    return config, SweepSample(sign=sign, order=config.order)


def run_chain(model: ModelSpec, basis: BasisChoice, plan: SweepPlan,
              rng: np.random.Generator, sweeps: int, warmup_sweeps: int,
              n_bins: int = 20) -> tuple[RunAccumulators, Configuration]:
    """Drive one chain for `sweeps` sweeps, accumulating after warmup.

    Each chain owns its configuration and accumulator; independent
    chains with distinct rng streams can run concurrently and merge
    their accumulators afterwards.
    """
    if warmup_sweeps >= sweeps:
        raise ValueError(f"warmup ({warmup_sweeps}) must be below sweeps ({sweeps})")
    config = Configuration.initial(model, rng)
    acc = RunAccumulators(n_bins=n_bins, expected_samples=sweeps - warmup_sweeps)
    for i in range(sweeps):
        config, sample = sweep(config, plan, model, basis, rng)
        if i >= warmup_sweeps:
            acc.add(sample.sign, sample.order)
    return acc, config
