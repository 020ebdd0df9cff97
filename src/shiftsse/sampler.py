"""Markov chain over (order, operator string, basis label) configurations.

The basis label alpha is the tuple of N bits, 0 or 1, with bit i for
qubit i of the Z product state that the basis rotates.

A configuration C = (n, [b_1..b_n], alpha) carries the signed weight

    W(C) = beta^n / n! * Re <alpha| H_{b_n} ... H_{b_1} |alpha>,

with each H_b the full shifted bond factor coupling*(shift*I - O).
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

The chain state is one `Configuration`: it binds the model and the
basis once, its label, string and weight cannot be reassigned from
outside, and it keeps the string once, each term with its bond kernel;
`string` hands out a copy. Weights come from propagated states, the
standard SSE technique (Sandvik, PRB 59, R14157 (1999)). It holds the
left states L_k = H_k ... H_1 |alpha> and the right states
R_k = H_{k+1} ... H_n |alpha>; every bond factor is real symmetric, so
<alpha| H_n ... H_{k+1} = R_k^dagger and W is proportional to
Re <R_k|L_k> at any split k. Every string move is one splice: cut k
operators at position p and put in at most one term t, for one bond
application and one inner product, <R_{p+k}|H_t|L_p>. A replacement is
k = 1 with a term, an insertion k = 0 and a removal k = 1 without one.
Both state lists are extended lazily. A label flip propagates fresh
states only for a label not yet weighed on the current string: the
configuration keeps the weight of every label it propagated since the
string last changed, so flipping back to a label costs no bond
application. Proposals return their weight, and `accept` applies the
last one, keeping the states it does not invalidate. `weight_of` weighs
any pair from scratch in a fresh `Configuration`. Every update decides
through the one rule `acceptance`.

The chain's random numbers come straight from the bit generator: once
the initial label is drawn, `run_chain` binds the generator's native
`next_double` and `next_uint32` in a `_Draws`, whose `random()` and
`integers(n)` return the same numbers as `Generator.random()` and
`Generator.integers(n)`, with numpy's own bounded-integer method
(Lemire, ACM TOMACS 29, 3 (2019)), at far less cost per call. The
draws leave the generator's state exactly where the `Generator` calls
would. A chain runs in one thread, so bypassing the `Generator`'s lock
is safe.

String lengths are unbounded; there is no truncation anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import RunAccumulators
from .model import ModelSpec, active_terms
from .statevec import BasisChoice, bond_kernel, prepare

__all__ = [
    "Configuration",
    "SweepPlan",
    "SweepSample",
    "rng_stream",
    "weight_of",
    "acceptance",
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
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


class Configuration:
    """Chain state: basis label, operator string and signed weight, bound
    to one model and basis, with the propagated states of the pair.

    left[k] = L_k = H_k ... H_1 |alpha> and right[j] = R_{n-j} =
    H_{n-j+1} ... H_n |alpha>, each a valid prefix extended on demand.
    Counting right states from the end of the string keeps them valid
    when a move changes the length in front of them. `_ops` pairs each
    string operator with its bond kernel, so propagation looks none up.
    `_label_weights` maps each label `relabel` propagated on the current
    string to the weight it found; a splice clears it.

    The model's constants are bound once: N, the active terms and their
    count, which the update functions below read directly, and
    `_poisson`, the factors beta^k/k! for every order up to one past the
    current one, so that any proposal finds its factor in the table.

    Every field is read-only. `relabel` and `splice` return the signed
    weight of a proposed configuration and remember the move; `accept`
    applies the last one together with its weight. `_ops` is never
    mutated in place: an accepted move builds a new list.
    """

    __slots__ = ("_alpha", "_ops", "_model", "_basis", "_weight",
                 "_left", "_right", "_move", "_label_weights",
                 "_n_sites", "_terms", "_n_active", "_poisson")

    def __init__(self, alpha: tuple[int, ...], string, model: ModelSpec, basis: BasisChoice):
        self._model = model
        self._basis = basis
        self._n_sites = model.n_sites
        self._terms = active_terms(model)
        self._n_active = len(self._terms)
        self._poisson = [1.0]
        self._ops = [(term, bond_kernel(term, self._n_sites)) for term in string]
        self._extend_poisson(len(self._ops) + 1)
        self._label_weights = {}
        self.relabel(alpha)
        self.accept()

    @classmethod
    def initial(cls, model: ModelSpec, basis: BasisChoice,
                rng: np.random.Generator) -> "Configuration":
        """Empty-string start; W = 1 for every label, so any alpha is valid."""
        alpha = tuple(int(b) for b in rng.integers(0, 2, size=model.n_sites))
        return cls(alpha, [], model, basis)

    @property
    def alpha(self) -> tuple[int, ...]:
        return self._alpha

    @property
    def string(self) -> list:
        """Operator string, first entry applied first; a new list."""
        return [term for term, _ in self._ops]

    @property
    def order(self) -> int:
        return len(self._ops)

    @property
    def weight_value(self) -> float:
        """Signed weight W; exactly 1.0 at order 0."""
        return self._weight

    @property
    def model(self) -> ModelSpec:
        return self._model

    @property
    def basis(self) -> BasisChoice:
        return self._basis

    def _extend_poisson(self, n: int) -> None:
        """Table beta^k/k! up to k = n, each entry beta/k times the one
        before: no power or factorial is formed, so no order overflows,
        and at beta = 1 the entries 1, 1 and 1/2 are exact."""
        poisson, beta = self._poisson, self._model.beta
        while len(poisson) <= n:
            poisson.append(poisson[-1] * beta / len(poisson))

    def relabel(self, alpha: tuple[int, ...]) -> float:
        """W with the label replaced by `alpha`: <alpha|L_n>, propagated
        unless this string already weighed `alpha`. A remembered weight
        leaves the label's states to be prepared if accepted."""
        n_sites = self._n_sites
        if type(alpha) is not tuple or len(alpha) != n_sites or not set(alpha) <= {0, 1}:
            raise ValueError(f"label must be {n_sites} bits of 0 or 1 in a tuple, "
                             f"got {alpha!r}")
        weight = self._label_weights.get(alpha)
        if weight is not None:
            self._move = (Configuration._adopt, (alpha, None), weight)
            return weight
        left = [prepare(alpha, self._basis).amps]
        for _, kernel in self._ops:
            left.append(kernel(left[-1]))
        n = len(self._ops)
        # the empty string weighs exactly 1
        weight = self._poisson[n] * float(np.vdot(left[0], left[-1]).real) if n else 1.0
        self._label_weights[alpha] = weight
        self._move = (Configuration._adopt, (alpha, left), weight)
        return weight

    def splice(self, pos: int, cut: int, term=None) -> float:
        """W with the `cut` operators at `pos` replaced by `term`, or by
        nothing when `term` is None: <R_{pos+cut}|H_term|L_pos>."""
        n = len(self._ops)
        if not 0 <= pos <= pos + cut <= n:
            raise ValueError(f"cannot cut {cut} operators at position {pos} "
                             f"of a string of order {n}")
        left, right, ops = self._left, self._right, self._ops
        while len(left) <= pos:
            left.append(ops[len(left) - 1][1](left[-1]))
        back = n - pos - cut  # right[back] = R_{pos+cut}
        while len(right) <= back:
            right.append(ops[n - len(right)][1](right[-1]))
        ket = left[pos]
        new = []
        if term is not None:
            kernel = bond_kernel(term, self._n_sites)
            ket = kernel(ket)
            new = [(term, kernel)]
        n_new = n - cut + len(new)
        weight = (self._poisson[n_new] * float(np.vdot(right[back], ket).real)
                  if n_new else 1.0)
        self._move = (Configuration._splice, (pos, cut, new, ket), weight)
        return weight

    def accept(self) -> None:
        """Apply the last proposal and take its weight."""
        if self._move is None:
            raise RuntimeError("no proposal to accept: call relabel or splice first")
        apply, args, self._weight = self._move
        self._move = None
        apply(self, *args)

    def _adopt(self, alpha: tuple[int, ...], left: list | None) -> None:
        """Take a label with its left states, or with only |alpha> for a
        remembered label; the right states restart at |alpha>."""
        if left is None:
            left = [prepare(alpha, self._basis).amps]
        self._alpha = alpha
        self._left = left
        self._right = [left[0]]

    def _splice(self, pos: int, cut: int, new: list, ket) -> None:
        """Replace the `cut` operators at `pos` by the pairs `new`.

        Left states up to `pos` and right states behind the cut stay
        valid, and so does the proposal's left state past `pos` when a
        term went in.
        """
        ops = self._ops
        self._label_weights.clear()
        del self._left[pos + 1:]
        if new:
            self._left.append(ket)
        del self._right[len(ops) - pos - cut + 1:]
        self._ops = ops[:pos] + new + ops[pos + cut:]
        self._extend_poisson(len(self._ops) + 1)


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


def weight_of(alpha: tuple[int, ...], string: list, model: ModelSpec,
              basis: BasisChoice) -> float:
    """Signed weight of an arbitrary (alpha, string) pair, from scratch."""
    return Configuration(alpha, string, model, basis).weight_value


def acceptance(w_old: float, w_new: float, up: int = 1, down: int = 1) -> float:
    """min(1, up*|W'| / (down*|W|)); zero-weight proposals never accept.

    `up` and `down` carry the proposal asymmetry: N_act up for an
    insertion, N_act down for a removal, 1 for the symmetric moves.
    """
    if w_new == 0.0:
        return 0.0
    return min(1.0, up * abs(w_new) / (down * abs(w_old)))


class _Draws:
    """`Generator.random()` and `Generator.integers(n)`, drawn through
    the bit generator's ctypes interface without the `Generator`'s
    per-call overhead. It holds the generator, so the bit generator
    outlives the pointers, and every draw advances that generator.
    """

    __slots__ = ("_rng", "_state", "_next_double", "_next_uint32")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        interface = rng.bit_generator.ctypes
        self._state = interface.state
        self._next_double = interface.next_double
        self._next_uint32 = interface.next_uint32

    def random(self) -> float:
        return self._next_double(self._state)

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n) for 1 <= n <= 2**32 by numpy's
        method: no draw at n = 1, else the high word of a 32-bit draw
        times n, drawing again while the low word is below (2**32 - n) % n."""
        if n == 1:
            return 0
        m = self._next_uint32(self._state) * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next_uint32(self._state) * n
        return m >> 32


def update_alpha(config: Configuration, rng: np.random.Generator) -> None:
    """Flip one uniformly chosen label bit, Metropolis on |W|.

    The attempt is lazy: with probability 1/2 it proposes nothing. On
    degenerate weight landscapes (all labels equal, e.g. at order 0)
    every flip is accepted, and a fixed even number of deterministic
    flips per sweep would conserve label parity and cut the chain in
    two; the lazy coin restores aperiodicity without touching detailed
    balance.

    Draws only `rng.random()` and `int(rng.integers(k))`, so a
    `Generator` and the `_Draws` of `run_chain` give the same chain.
    """
    if rng.random() < 0.5:
        return
    q = int(rng.integers(config._n_sites))
    alpha = config._alpha
    w_new = config.relabel(alpha[:q] + (alpha[q] ^ 1,) + alpha[q + 1:])
    if rng.random() < acceptance(config._weight, w_new):
        config.accept()


def update_string_fixed_n(config: Configuration, rng: np.random.Generator) -> None:
    """Replace the term at a uniform position with a uniform active term.

    Silently skipped at order 0. Self-replacements are ratio-1 moves and
    are accepted without a fresh evaluation.

    Draws only `rng.random()` and `int(rng.integers(k))`, so a
    `Generator` and the `_Draws` of `run_chain` give the same chain.
    """
    ops = config._ops
    n = len(ops)
    if n == 0:
        return
    pos = int(rng.integers(n))
    candidate = config._terms[int(rng.integers(config._n_active))]
    if candidate == ops[pos][0]:
        return
    w_new = config.splice(pos, 1, candidate)
    if rng.random() < acceptance(config._weight, w_new):
        config.accept()


def update_insert_remove(config: Configuration, rng: np.random.Generator) -> None:
    """Grow or shrink the string by one operator (n -> n +- 1).

    Draws only `rng.random()` and `int(rng.integers(k))`, so a
    `Generator` and the `_Draws` of `run_chain` give the same chain.
    """
    n_active = config._n_active
    n = len(config._ops)
    if rng.random() < 0.5:
        slot = int(rng.integers(n + 1))
        term = config._terms[int(rng.integers(n_active))]
        w_new = config.splice(slot, 0, term)
        accept = acceptance(config._weight, w_new, up=n_active)
    else:
        if n == 0:
            return
        pos = int(rng.integers(n))
        w_new = config.splice(pos, 1)
        accept = acceptance(config._weight, w_new, down=n_active)
    if rng.random() < accept:
        config.accept()


def sweep(config: Configuration, plan: SweepPlan,
          rng: np.random.Generator) -> tuple[Configuration, SweepSample]:
    """Run one full sweep and emit (sign, order) of the final state.

    The updates draw only `rng.random()` and `int(rng.integers(k))`, so a
    `Generator` and the `_Draws` of `run_chain` give the same chain.
    """
    for _ in range(plan.alpha_updates):
        update_alpha(config, rng)
    for _ in range(plan.string_count(config.order)):
        update_string_fixed_n(config, rng)
    for _ in range(plan.insert_remove_updates):
        update_insert_remove(config, rng)
    sign = 1 if config.weight_value > 0.0 else -1
    return config, SweepSample(sign=sign, order=config.order)


def run_chain(model: ModelSpec, basis: BasisChoice, plan: SweepPlan,
              rng: np.random.Generator, sweeps: int,
              warmup_sweeps: int) -> tuple[RunAccumulators, Configuration]:
    """Drive one chain for `sweeps` sweeps, accumulating after warmup.

    Each chain owns its configuration and accumulator; independent
    chains with distinct rng streams can run concurrently and merge
    their accumulators afterwards. After the initial label, the sweeps
    draw from `rng` through a `_Draws`: the same numbers, and `rng`
    ends in the same state, as if they had called it directly.
    """
    if not 0 <= warmup_sweeps < sweeps:
        raise ValueError(f"warmup ({warmup_sweeps}) must be non-negative and "
                         f"below sweeps ({sweeps})")
    config = Configuration.initial(model, basis, rng)
    draws = _Draws(rng)
    acc = RunAccumulators(expected_samples=sweeps - warmup_sweeps)
    for i in range(sweeps):
        config, sample = sweep(config, plan, draws)
        if i >= warmup_sweeps:
            acc.add(sample.sign, sample.order)
    return acc, config
