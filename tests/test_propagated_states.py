"""Propagated-state cache of the sampler against from-scratch weights.

The updates read every proposal weight from the configuration's cached
left/right states; `weight_of` recomputes from the prepared vector. These
tests drive the real update functions and compare after every call, probe
each edge slot of the cache directly, and pin that a configuration whose
alpha, string, model or basis changed from outside is re-propagated.
"""

import math

import numpy as np
import pytest

from shiftsse.harness import _random_unitary
from shiftsse.model import ModelSpec, active_terms
from shiftsse.sampler import (
    Configuration,
    propagated_states,
    rng_stream,
    update_alpha,
    update_insert_remove,
    update_string_fixed_n,
    weight_of,
)
from shiftsse.statevec import BasisChoice, BasisLabel

RTOL = 1e-12
UPDATES = (update_alpha, update_string_fixed_n, update_insert_remove)


def assert_coherent(config, model, basis):
    """The chain's weight matches a from-scratch evaluation, sign included."""
    want = weight_of(config.alpha, config.string, model, basis)
    got = config.weight_value
    assert np.sign(got) == np.sign(want), (got, want)
    assert abs(got - want) <= RTOL * abs(want), (got, want)


def assert_weight(got, alpha, string, model, basis):
    """A proposal weight matches a from-scratch evaluation.

    Proposals may be analytically zero, where both evaluations return
    rounding noise; relative error and sign are checked above the noise
    floor RTOL * beta^n/n! * prod ||H_b||.
    """
    want = weight_of(alpha, string, model, basis)
    floor = RTOL * math.prod(model.beta * t.operator_norm_bound() for t in string) \
        / math.factorial(len(string))
    assert abs(got - want) <= max(RTOL * abs(want), floor), (got, want)
    if abs(want) > floor:
        assert np.sign(got) == np.sign(want), (got, want)


def bases(n_sites, seed):
    rng = np.random.default_rng(seed)
    return {
        "z": BasisChoice.z_product(),
        "rotated": BasisChoice.rotated(),
        "random": BasisChoice.rotated([_random_unitary(rng) for _ in range(n_sites)]),
    }


def drive(config, model, basis, rng, sweeps):
    """Mixed update sequence; coherence is asserted after every call."""
    for _ in range(sweeps):
        for update in UPDATES:
            for _ in range(model.n_sites):
                update(config, model, basis, rng)
                assert_coherent(config, model, basis)
    return config


def grown_config(model, basis, seed, sweeps=12):
    rng = rng_stream(seed)
    config = Configuration.initial(model, rng)
    return drive(config, model, basis, rng, sweeps), rng


@pytest.mark.parametrize("beta", [0.3, 1.5])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7])
def test_updates_keep_weight_coherent(n_sites, beta):
    model = ModelSpec(n_sites=n_sites, delta=0.8, m_x=0.7, m_z=1.2, beta=beta)
    for basis in bases(n_sites, seed=n_sites).values():
        rng = rng_stream(100 * n_sites + int(10 * beta))
        config = Configuration.initial(model, rng)
        drive(config, model, basis, rng, sweeps=25)


@pytest.mark.parametrize("basis_name", ["z", "rotated", "random"])
def test_edge_slot_proposals_and_accepts(basis_name):
    model = ModelSpec(n_sites=5, delta=1.0, m_x=0.9, m_z=1.1, beta=1.5)
    basis = bases(5, seed=3)[basis_name]
    terms = active_terms(model)
    config, _ = grown_config(model, basis, seed=31)
    assert config.order >= 3

    def proposals(n):
        yield "insert", 0, terms[0]
        yield "insert", n, terms[-1]
        yield "remove", 0, None
        yield "remove", n - 1, None
        yield "replace", 0, terms[3]
        yield "replace", n - 1, terms[-2]

    for move, where, term in list(proposals(config.order)):
        alpha, string = config.alpha, config.string
        states = propagated_states(config, model, basis)
        # touch an interior split first so the lists are partly extended
        states.remove(len(string) // 2)
        if move == "insert":
            got = states.insert(where, term)
            proposed = string[:where] + [term] + string[where:]
        elif move == "remove":
            got = states.remove(where)
            proposed = string[:where] + string[where + 1:]
        else:
            got = states.replace(where, term)
            proposed = string[:where] + [term] + string[where + 1:]
        assert_weight(got, alpha, proposed, model, basis)
        config.string = states.accept()
        config.weight_value = got
        assert config.string == proposed
        assert propagated_states(config, model, basis) is states
        # every split of the accepted configuration must still be exact
        n = config.order
        for slot in range(n + 1):
            assert_weight(states.insert(slot, terms[slot % len(terms)]), alpha,
                          config.string[:slot] + [terms[slot % len(terms)]]
                          + config.string[slot:], model, basis)
        for pos in range(n):
            assert_weight(states.remove(pos), alpha,
                          config.string[:pos] + config.string[pos + 1:], model, basis)
        assert_weight(states.weight(), alpha, config.string, model, basis)


@pytest.mark.parametrize("basis_name", ["z", "rotated", "random"])
def test_accepted_label_flip_then_string_moves(basis_name):
    model = ModelSpec(n_sites=4, delta=1.0, m_x=1.0, m_z=1.0, beta=1.2)
    basis = bases(4, seed=4)[basis_name]
    config, rng = grown_config(model, basis, seed=41)
    for _ in range(2000):
        before = config.alpha
        update_alpha(config, model, basis, rng)
        if config.alpha != before:
            break
    else:
        pytest.fail("no label flip accepted")
    assert_coherent(config, model, basis)
    adopted = config.states
    assert propagated_states(config, model, basis) is adopted
    terms = active_terms(model)
    n = config.order
    for pos in (0, n - 1):
        assert_weight(adopted.replace(pos, terms[1]), config.alpha,
                      config.string[:pos] + [terms[1]] + config.string[pos + 1:],
                      model, basis)
    for slot in (0, n):
        assert_weight(adopted.insert(slot, terms[2]), config.alpha,
                      config.string[:slot] + [terms[2]] + config.string[slot:],
                      model, basis)
    drive(config, model, basis, rng, sweeps=3)


def test_reassigned_fields_are_never_read_stale():
    model = ModelSpec(n_sites=4, delta=0.9, m_x=0.8, m_z=1.0, beta=1.2)
    basis = BasisChoice.rotated()
    terms = active_terms(model)
    config, rng = grown_config(model, basis, seed=51)
    assert config.order >= 2
    old_states = propagated_states(config, model, basis)

    # a new string list of a different length
    config.string = list(config.string[1:]) + [terms[0], terms[5]]
    config.weight_value = weight_of(config.alpha, config.string, model, basis)
    states = propagated_states(config, model, basis)
    assert states is not old_states
    assert_weight(states.remove(0), config.alpha, config.string[1:], model, basis)

    # a new label object
    config.alpha = BasisLabel(tuple(1 - b for b in config.alpha.bits))
    config.weight_value = weight_of(config.alpha, config.string, model, basis)
    assert propagated_states(config, model, basis) is not states
    n = config.order
    assert_weight(propagated_states(config, model, basis).replace(n - 1, terms[2]),
                  config.alpha, config.string[:-1] + [terms[2]], model, basis)
    drive(config, model, basis, rng, sweeps=3)

    # the same objects under another basis object
    other = BasisChoice.rotated([_random_unitary(np.random.default_rng(5))
                                 for _ in range(4)])
    config.weight_value = weight_of(config.alpha, config.string, model, other)
    drive(config, model, other, rng, sweeps=3)

    # the same objects under another model object (same terms, lower beta)
    cooler = ModelSpec(n_sites=4, delta=0.9, m_x=0.8, m_z=1.0, beta=0.7)
    config.weight_value = weight_of(config.alpha, config.string, cooler, other)
    drive(config, cooler, other, rng, sweeps=3)

    # a configuration built by hand mid-chain from the current objects
    by_hand = Configuration(config.alpha, config.string, config.weight_value)
    assert by_hand.states is None
    drive(by_hand, cooler, other, rng, sweeps=3)
