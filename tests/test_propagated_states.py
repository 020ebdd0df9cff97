"""Propagated states of the chain configuration against from-scratch weights.

The updates read every proposal weight from the configuration's cached
left/right states; `weight_of` recomputes from the prepared vector. These
tests drive the real update functions and compare after every call, probe
each edge slot of the states directly, and pin that the chain state
cannot be reassigned or edited from outside and computes its own
weight. A hypothesis property drives random proposal sequences against
fresh configurations. A counting shim around `bond_kernel` pins that a
label already weighed on the current string is not propagated again.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftsse.harness import _random_unitary
from shiftsse.model import ModelSpec, active_terms
from shiftsse.sampler import (
    Configuration,
    rng_stream,
    update_alpha,
    update_insert_remove,
    update_string_fixed_n,
    weight_of,
)
from shiftsse.statevec import BasisChoice

RTOL = 1e-12
UPDATES = (update_alpha, update_string_fixed_n, update_insert_remove)


def assert_coherent(config, model, basis):
    """The chain's weight matches a from-scratch evaluation, sign included."""
    want = weight_of(config.alpha, config.string, model, basis)
    got = config.weight_value
    assert np.sign(got) == np.sign(want), (got, want)
    assert abs(got - want) <= RTOL * abs(want), (got, want)


def noise_floor(string, model):
    """RTOL * beta^n/n! * prod ||H_b||, the rounding noise of a weight."""
    return RTOL * math.prod(model.beta * t.operator_norm_bound() for t in string) \
        / math.factorial(len(string))


def assert_weight(got, alpha, string, model, basis):
    """A proposal weight matches a from-scratch evaluation.

    Proposals may be analytically zero, where both evaluations return
    rounding noise; relative error and sign are checked above the noise
    floor.
    """
    want = weight_of(alpha, string, model, basis)
    floor = noise_floor(string, model)
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


def drive(config, rng, sweeps):
    """Mixed update sequence; coherence is asserted after every call."""
    for _ in range(sweeps):
        for update in UPDATES:
            for _ in range(config.model.n_sites):
                update(config, rng)
                assert_coherent(config, config.model, config.basis)
    return config


def grown_config(model, basis, seed, sweeps=12):
    rng = rng_stream(seed)
    config = Configuration.initial(model, basis, rng)
    return drive(config, rng, sweeps), rng


@pytest.mark.parametrize("beta", [0.3, 1.5])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7])
def test_updates_keep_weight_coherent(n_sites, beta):
    model = ModelSpec(n_sites=n_sites, delta=0.8, m_x=0.7, m_z=1.2, beta=beta)
    for basis in bases(n_sites, seed=n_sites).values():
        rng = rng_stream(100 * n_sites + int(10 * beta))
        config = Configuration.initial(model, basis, rng)
        drive(config, rng, sweeps=25)


@pytest.mark.parametrize("basis_name", ["z", "rotated", "random"])
def test_edge_slot_proposals_and_accepts(basis_name):
    model = ModelSpec(n_sites=5, delta=1.0, m_x=0.9, m_z=1.1, beta=1.5)
    basis = bases(5, seed=3)[basis_name]
    terms = active_terms(model)
    config, _ = grown_config(model, basis, seed=31)
    assert config.order >= 3

    def proposals(n):
        # (pos, cut, term): insertions, removals and replacements at both
        # ends, then two operators cut with and without a term put in
        yield 0, 0, terms[0]
        yield n, 0, terms[-1]
        yield 0, 1, None
        yield n - 1, 1, None
        yield 0, 1, terms[3]
        yield n - 1, 1, terms[-2]
        yield 1, 2, terms[1]
        yield 0, 2, None

    for pos, cut, term in list(proposals(config.order)):
        alpha, string = config.alpha, config.string
        # touch an interior split first so the lists are partly extended
        config.splice(len(string) // 2, 1)
        got = config.splice(pos, cut, term)
        proposed = string[:pos] + ([] if term is None else [term]) + string[pos + cut:]
        assert_weight(got, alpha, proposed, model, basis)
        config.accept()
        assert config.string == proposed
        assert config.weight_value == got
        # every split of the accepted configuration must still be exact
        n = config.order
        for slot in range(n + 1):
            assert_weight(config.splice(slot, 0, terms[slot % len(terms)]), alpha,
                          config.string[:slot] + [terms[slot % len(terms)]]
                          + config.string[slot:], model, basis)
        for at in range(n):
            assert_weight(config.splice(at, 1), alpha,
                          config.string[:at] + config.string[at + 1:], model, basis)
        assert_weight(config.relabel(alpha), alpha, config.string, model, basis)


@pytest.mark.parametrize("basis_name", ["z", "rotated", "random"])
def test_accepted_label_flip_then_string_moves(basis_name):
    model = ModelSpec(n_sites=4, delta=1.0, m_x=1.0, m_z=1.0, beta=1.2)
    basis = bases(4, seed=4)[basis_name]
    config, rng = grown_config(model, basis, seed=41)
    for _ in range(2000):
        before = config.alpha
        update_alpha(config, rng)
        if config.alpha != before:
            break
    else:
        pytest.fail("no label flip accepted")
    assert_coherent(config, model, basis)
    terms = active_terms(model)
    n = config.order
    for pos in (0, n - 1):
        assert_weight(config.splice(pos, 1, terms[1]), config.alpha,
                      config.string[:pos] + [terms[1]] + config.string[pos + 1:],
                      model, basis)
    for slot in (0, n):
        assert_weight(config.splice(slot, 0, terms[2]), config.alpha,
                      config.string[:slot] + [terms[2]] + config.string[slot:],
                      model, basis)
    drive(config, rng, sweeps=3)


def test_chain_state_is_read_only_and_weighs_itself():
    model = ModelSpec(n_sites=4, delta=0.9, m_x=0.8, m_z=1.0, beta=1.2)
    for basis in bases(4, seed=5).values():
        config, rng = grown_config(model, basis, seed=51)
        assert config.order >= 2
        for name, value in (("alpha", (1, 1, 1, 1)), ("string", []),
                            ("weight_value", 1.0), ("model", model), ("basis", basis)):
            with pytest.raises(AttributeError):
                setattr(config, name, value)

        # a configuration built by hand weighs itself like the reference
        by_hand = Configuration(config.alpha, config.string, model, basis)
        assert by_hand.weight_value == weight_of(config.alpha, config.string, model, basis)
        drive(by_hand, rng, sweeps=3)
        assert Configuration(config.alpha, [], model, basis).weight_value == 1.0


@pytest.mark.parametrize("basis_name", ["z", "rotated", "random"])
def test_string_hands_out_a_copy(basis_name):
    # appending XX_0 to the live string used to read order 3 with W still
    # 2.0 (a fresh weight is 2/3), and the next splice(3, 0) raised IndexError
    model = ModelSpec(n_sites=3, delta=1.0, m_x=1.0, m_z=1.0, beta=1.0)
    basis = bases(3, seed=8)[basis_name]
    terms = active_terms(model)
    zz0, xx0 = terms[0], terms[3]
    config = Configuration((1, 0, 0), [zz0, zz0], model, basis)
    weight = config.weight_value
    if basis_name == "z":
        assert weight == 2.0
    for edit in (lambda s: s.append(xx0), list.clear, list.reverse,
                 lambda s: s.__setitem__(0, xx0)):
        edit(config.string)
        assert config.order == 2
        assert config.weight_value == weight
        assert config.string == [zz0, zz0]
    assert config.string is not config.string
    assert_weight(config.splice(2, 0, zz0), (1, 0, 0), [zz0] * 3, model, basis)
    config.accept()
    assert_coherent(config, model, basis)
    config.string.reverse()
    assert_weight(config.relabel((0, 1, 0)), (0, 1, 0), [zz0] * 3, model, basis)
    config.accept()
    assert_coherent(config, model, basis)


def test_second_order_weight_is_exact():
    # (1 - ZZ_0)^2 = 4 on this label and beta^2/2! = 1/2; the factor through
    # exp and lgamma made the weight 2.000000000000001
    model = ModelSpec(n_sites=3, delta=1.0, m_x=1.0, m_z=1.0, beta=1.0)
    zz0 = active_terms(model)[0]
    config = Configuration((1, 0, 0), [zz0, zz0], model, BasisChoice.z_product())
    assert config.weight_value == 2.0


def test_accept_without_a_proposal_raises():
    # accept() after construction or a second accept() in a row used to
    # raise TypeError from unpacking None
    model = ModelSpec(n_sites=3, delta=1.0, m_x=1.0, m_z=1.0, beta=1.0)
    basis = BasisChoice.z_product()
    term = active_terms(model)[0]
    config = Configuration((1, 0, 0), [term] * 2, model, basis)
    with pytest.raises(RuntimeError, match="relabel or splice"):
        config.accept()
    config.splice(0, 1)
    config.accept()
    with pytest.raises(RuntimeError, match="relabel or splice"):
        config.accept()
    # the state is left as the last accepted move made it
    assert config.order == 1
    assert_coherent(config, model, basis)
    config.relabel((0, 1, 0))
    config.accept()
    assert config.alpha == (0, 1, 0)
    assert_coherent(config, model, basis)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.data())
def test_any_move_sequence_matches_a_fresh_configuration(data):
    n_sites = data.draw(st.integers(2, 4), label="n_sites")
    # delta = 0 drops the XX terms; tinier couplings push the noise floor to 0
    delta = data.draw(st.just(0.0) | st.floats(0.05, 1.0), label="delta")
    model = ModelSpec(n_sites=n_sites, delta=delta,
                      m_x=data.draw(st.floats(0.05, 2.0), label="m_x"),
                      m_z=data.draw(st.floats(0.05, 2.0), label="m_z"),
                      beta=data.draw(st.floats(0.05, 3.0), label="beta"))
    basis = data.draw(st.sampled_from([BasisChoice.z_product(), BasisChoice.rotated()]),
                      label="basis")
    terms = active_terms(model)
    labels = st.tuples(*[st.integers(0, 1)] * n_sites)
    # start from a chain state the real updates reached, of order 0 and up
    config, _ = grown_config(model, basis, seed=data.draw(st.integers(0, 999), label="seed"),
                             sweeps=data.draw(st.integers(0, 6), label="sweeps"))
    alpha, string = config.alpha, config.string
    for _ in range(data.draw(st.integers(0, 30), label="moves")):
        if data.draw(st.booleans(), label="relabel"):
            to, proposed = data.draw(labels, label="to"), string
            weight = config.relabel(to)
        else:
            pos = data.draw(st.integers(0, len(string)), label="pos")
            cut = data.draw(st.integers(0, min(2, len(string) - pos)), label="cut")
            term = data.draw(st.sampled_from(terms) | st.none(), label="term")
            to = alpha
            proposed = string[:pos] + ([] if term is None else [term]) + string[pos + cut:]
            weight = config.splice(pos, cut, term)
        assert_weight(weight, to, proposed, model, basis)
        if data.draw(st.booleans(), label="accept") and abs(weight) > noise_floor(proposed, model):
            config.accept()
            assert config.weight_value == weight
            alpha, string = to, proposed
        # editing the handed-out string changes nothing
        config.string.append(terms[0])
        assert (config.alpha, config.order, config.string) == (alpha, len(string), string)
        assert_weight(config.weight_value, alpha, string, model, basis)


def test_order_zero_weighs_exactly_one():
    # <alpha|alpha> in a rotated basis rounds to 1 - 6e-16; order 0 must not
    model = ModelSpec(n_sites=3, delta=1.0, m_x=1.0, m_z=1.0, beta=0.5)
    basis = BasisChoice.rotated()
    term = active_terms(model)[0]
    for alpha in itertools.product((0, 1), repeat=3):
        empty = Configuration((alpha[0] ^ 1,) + alpha[1:], [], model, basis)
        assert empty.relabel(alpha) == 1.0
        empty.accept()
        assert empty.weight_value == 1.0
        single = Configuration(alpha, [term], model, basis)
        assert single.splice(0, 1) == 1.0
        single.accept()
        assert single.weight_value == 1.0


def test_splice_rejects_positions_outside_the_string():
    # three ZZ terms on bond 0 weigh 4/3; accepting splice(3, 1) used to
    # cache W = 4, and splice(-1, 1) grew the string to order 5
    model = ModelSpec(n_sites=3, delta=1.0, m_x=1.0, m_z=1.0, beta=1.0)
    basis = BasisChoice.z_product()
    term = active_terms(model)[0]
    config = Configuration((1, 0, 0), [term] * 3, model, basis)
    assert config.weight_value == pytest.approx(4.0 / 3.0)
    for pos, cut in ((3, 1), (-1, 1), (4, 0), (0, 4), (1, -1)):
        with pytest.raises(ValueError, match="cannot cut"):
            config.splice(pos, cut, term)
    # the edges themselves stay valid
    assert_weight(config.splice(3, 0, term), (1, 0, 0), [term] * 4, model, basis)
    assert_weight(config.splice(0, 3), (1, 0, 0), [], model, basis)
    config.accept()
    assert config.order == 0 and config.weight_value == 1.0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count every bond-kernel application of configurations built afterwards."""
    from shiftsse import sampler

    calls = [0]
    real = sampler.bond_kernel

    def counting(term, n_qubits):
        kernel = real(term, n_qubits)

        def counted(amps):
            calls[0] += 1
            return kernel(amps)
        return counted

    monkeypatch.setattr(sampler, "bond_kernel", counting)
    return calls


@pytest.mark.parametrize("basis_name", ["z", "rotated"])
def test_label_weights_are_remembered_until_the_string_changes(kernel_calls, basis_name):
    model = ModelSpec(n_sites=4, delta=0.7, m_x=0.6, m_z=1.3, beta=1.5)
    basis = bases(4, seed=6)[basis_name]
    terms = active_terms(model)
    string = [terms[i % len(terms)] for i in (0, 5, 2, 7, 1, 4, 3)]
    config = Configuration((1, 0, 0, 1), string, model, basis)
    flipped = (0, 0, 0, 1)

    # the first proposal of a label propagates the whole string, a repeat none
    kernel_calls[0] = 0
    first = config.relabel(flipped)
    assert kernel_calls[0] == len(string)
    assert first == weight_of(flipped, string, model, basis)
    kernel_calls[0] = 0
    assert config.relabel(flipped) == first
    assert config.relabel((1, 0, 0, 1)) == config.weight_value
    assert kernel_calls[0] == 0

    # an accepted splice changes the string and forgets every label
    config.splice(2, 1, terms[6])
    config.accept()
    kernel_calls[0] = 0
    again = config.relabel(flipped)
    assert kernel_calls[0] == config.order
    assert again == weight_of(flipped, config.string, model, basis)


@pytest.mark.parametrize("basis_name", ["z", "rotated", "random"])
def test_accepted_remembered_label_refills_its_states(kernel_calls, basis_name):
    model = ModelSpec(n_sites=4, delta=0.9, m_x=0.8, m_z=1.1, beta=1.3)
    basis = bases(4, seed=7)[basis_name]
    terms = active_terms(model)
    string = [terms[i % len(terms)] for i in (3, 0, 6, 2, 5, 1)]
    config = Configuration((0, 1, 1, 0), string, model, basis)
    flipped = (0, 1, 0, 0)
    config.relabel(flipped)
    config.relabel((0, 1, 1, 0))
    kernel_calls[0] = 0
    weight = config.relabel(flipped)
    assert kernel_calls[0] == 0
    config.accept()
    assert config.alpha == flipped and config.weight_value == weight
    assert_coherent(config, model, basis)
    # every split reads left and right states refilled from |flipped>
    n = config.order
    for pos in range(n):
        assert_weight(config.splice(pos, 1, terms[pos]), flipped,
                      string[:pos] + [terms[pos]] + string[pos + 1:], model, basis)
    for slot in (0, n // 2, n):
        assert_weight(config.splice(slot, 0, terms[-1]), flipped,
                      string[:slot] + [terms[-1]] + string[slot:], model, basis)
    config.accept()
    assert_coherent(config, model, basis)
