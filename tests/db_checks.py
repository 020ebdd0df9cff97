"""Enumerated transition-matrix stationarity checks for the three updates.

Each builder enumerates a micro instance's configuration space, forms the
exact proposal/acceptance transition matrix from the sampler's own
`acceptance` rule, and returns the worst |pi P - pi| residual with
pi proportional to |W|. Residuals at rounding scale certify detailed
balance of the implemented update rules.
"""

import itertools

from shiftsse.model import active_terms
from shiftsse.sampler import acceptance, weight_of


def _normalized(states):
    total = sum(abs(w) for w in states.values())
    return {k: abs(w) / total for k, w in states.items()}


def _residual(pi, transition, keys=None):
    keys = pi.keys() if keys is None else keys
    flow = {key: 0.0 for key in keys}
    for src, row in transition.items():
        for dst, p in row.items():
            if dst in flow:
                flow[dst] += pi[src] * p
    return max(abs(flow[key] - pi[key]) for key in keys)


def alpha_stationarity_residual(model, basis, string):
    """Label-flip updates at a fixed operator string."""
    states = {}
    for bits in itertools.product((0, 1), repeat=model.n_sites):
        w = weight_of(bits, string, model, basis)
        if w != 0.0:
            states[bits] = w
    pi = _normalized(states)
    transition = {}
    for bits, w in states.items():
        row = {}
        stay = 1.0
        for qubit in range(model.n_sites):
            flipped = tuple(b ^ (1 if q == qubit else 0)
                            for q, b in enumerate(bits))
            # lazy coin 1/2, then uniform qubit choice
            prob = 0.5 / model.n_sites * acceptance(w, states.get(flipped, 0.0))
            if flipped in states and prob > 0:
                row[flipped] = row.get(flipped, 0.0) + prob
            stay -= prob
        row[bits] = row.get(bits, 0.0) + stay
        transition[bits] = row
    return _residual(pi, transition)


def string_stationarity_residual(model, basis, bits, n):
    """Fixed-length term replacements at a fixed label."""
    terms = active_terms(model)
    n_active = len(terms)
    states = {}
    for ids in itertools.product(range(n_active), repeat=n):
        w = weight_of(bits, [terms[i] for i in ids], model, basis)
        if w != 0.0:
            states[ids] = w
    pi = _normalized(states)
    transition = {}
    for ids, w in states.items():
        row = {}
        stay = 1.0
        for pos in range(n):
            for tid in range(n_active):
                new_ids = ids[:pos] + (tid,) + ids[pos + 1:]
                if new_ids == ids:
                    continue  # self-replacement: pure self-loop
                prob = (1.0 / (n * n_active)) * acceptance(
                    w, states.get(new_ids, 0.0))
                if new_ids in states and prob > 0:
                    row[new_ids] = row.get(new_ids, 0.0) + prob
                stay -= prob
        row[ids] = row.get(ids, 0.0) + stay
        transition[ids] = row
    return _residual(pi, transition)


def insert_remove_stationarity_residual(model, basis, n_cap):
    """Insert/remove updates over all orders up to n_cap.

    Stationarity is checked on interior states (order < n_cap), whose
    in- and outflows are fully contained in the enumerated window.
    """
    terms = active_terms(model)
    n_active = len(terms)
    states = {}
    for bits in itertools.product((0, 1), repeat=model.n_sites):
        for n in range(n_cap + 1):
            for ids in itertools.product(range(n_active), repeat=n):
                w = weight_of(bits, [terms[i] for i in ids], model, basis)
                if w != 0.0:
                    states[(bits, ids)] = w
    pi = _normalized(states)
    transition = {}
    for (bits, ids), w in states.items():
        n = len(ids)
        row = {}
        stay = 1.0
        if n < n_cap:
            for slot in range(n + 1):
                for tid in range(n_active):
                    new_ids = ids[:slot] + (tid,) + ids[slot:]
                    prob = 0.5 / ((n + 1) * n_active) * acceptance(
                        w, states.get((bits, new_ids), 0.0), up=n_active)
                    key = (bits, new_ids)
                    if key in states and prob > 0:
                        row[key] = row.get(key, 0.0) + prob
                    stay -= prob
        else:
            stay -= 0.5  # insertions from the cap leave the window
        if n > 0:
            for pos in range(n):
                new_ids = ids[:pos] + ids[pos + 1:]
                prob = 0.5 / n * acceptance(
                    w, states.get((bits, new_ids), 0.0), down=n_active)
                key = (bits, new_ids)
                if key in states and prob > 0:
                    row[key] = row.get(key, 0.0) + prob
                stay -= prob
        row[(bits, ids)] = row.get((bits, ids), 0.0) + stay
        transition[(bits, ids)] = row
    interior = [k for k in pi if len(k[1]) < n_cap]
    return _residual(pi, transition, keys=interior)
