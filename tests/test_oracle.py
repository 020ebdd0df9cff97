import itertools
import math

import numpy as np
import pytest

from shiftsse.ed import spectrum
from shiftsse.model import ModelSpec, active_terms
from shiftsse.oracle import ancilla_weight, brute_force_partition
from shiftsse.sampler import Configuration, weight_of
from shiftsse.statevec import BasisChoice

from conftest import tilted_basis


def spec(n=2, delta=1.0, m_x=1.0, m_z=1.0, beta=0.5):
    return ModelSpec(n_sites=n, delta=delta, m_x=m_x, m_z=m_z, beta=beta)


class TestAncillaWeight:
    def test_empty_string(self):
        model = spec()
        basis = BasisChoice.rotated()
        cfg = Configuration((1, 0), [], model, basis)
        assert ancilla_weight(cfg, model, basis) == pytest.approx(1.0)

    def test_single_term_anti_aligned(self):
        model = spec(beta=1.0)
        basis = BasisChoice.z_product()
        cfg = Configuration((1, 0), [active_terms(model)[0]], model, basis)
        assert ancilla_weight(cfg, model, basis) == pytest.approx(2.0, abs=1e-12)

    def test_register_size_limit(self):
        model = spec(n=4)
        terms = active_terms(model)
        basis = BasisChoice.z_product()
        cfg = Configuration((0,) * 4, [terms[0]] * 13, model, basis)
        with pytest.raises(ValueError):
            ancilla_weight(cfg, model, basis)

    def test_matches_direct_weight(self, rng):
        # spot equivalence here; the 500-configuration sweep runs in the
        # acceptance suite
        for _ in range(60):
            n_sites = int(rng.integers(2, 5))
            model = ModelSpec(
                n_sites=n_sites,
                delta=float(rng.uniform(0.1, 1.0)),
                m_x=float(rng.uniform(0.3, 2.0)),
                m_z=float(rng.uniform(0.3, 2.0)),
                beta=float(rng.uniform(0.2, 1.5)),
            )
            terms = active_terms(model)
            k = int(rng.integers(0, 7))
            string = [terms[int(rng.integers(len(terms)))] for _ in range(k)]
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n_sites))
            basis = tilted_basis(n_sites) if rng.random() < 0.5 else BasisChoice.rotated()
            cfg = Configuration(bits, string, model, basis)
            direct = weight_of(cfg.alpha, cfg.string, model, basis)
            register = ancilla_weight(cfg, model, basis)
            assert register == pytest.approx(direct, abs=1e-10, rel=1e-10)


class TestBruteForce:
    def test_infinite_temperature(self):
        # beta -> 0 leaves only the empty string: Z = Z' = 2^N
        model = spec(beta=1e-12)
        z, zp, tail = brute_force_partition(model, BasisChoice.z_product(), n_max=3)
        assert z == pytest.approx(4.0, abs=1e-9)
        assert zp == pytest.approx(4.0, abs=1e-9)

    def test_commuting_limit_no_sign_problem(self):
        # delta=0 with unit z-shift: weights non-negative in any basis
        model = spec(delta=0.0, beta=0.7)
        for basis in (BasisChoice.z_product(), BasisChoice.rotated(), tilted_basis(2)):
            z, zp, tail = brute_force_partition(model, basis, n_max=20)
            assert tail < 1e-8
            assert z == pytest.approx(zp, abs=1e-10)

    def test_partition_matches_spectrum_trace(self):
        # Z equals sum_k exp(-beta (E_k - offset)) independent of basis
        model = spec(beta=0.25)
        expect = float(np.sum(np.exp(-model.beta * (
            spectrum(model) - model.energy_offset))))
        for basis in (BasisChoice.z_product(), tilted_basis(2)):
            z, _, tail = brute_force_partition(model, basis, n_max=18)
            assert tail < 1e-8
            assert z == pytest.approx(expect, abs=10 * tail + 1e-9)

    def test_sign_affliction_needs_tilt_and_small_shift(self):
        # with shifts below 1 the commuting N=2 factors go indefinite, but
        # exposing negative weights needs spectral correlations in the
        # basis state: a Z-tilting rotation provides them, while one
        # default-rotated site against one plain site provably cannot
        # (<Z> vanishes on the rotated site, <X> and <Y> on the plain one)
        from shiftsse.statevec import default_rotation
        afflicted = spec(m_x=0.4, m_z=0.4, beta=0.25)
        z, zp, tail = brute_force_partition(afflicted, tilted_basis(2), n_max=16)
        assert tail < 1e-8
        assert z / zp < 0.95
        one_site = BasisChoice.rotated([default_rotation(), np.eye(2)])
        z2, zp2, _ = brute_force_partition(afflicted, one_site, n_max=16)
        assert z2 == pytest.approx(zp2, abs=1e-10)

    @pytest.mark.parametrize("model, basis, n_max", [
        (spec(delta=0.0, beta=0.6), tilted_basis(2), 10),
        (spec(m_x=0.4, m_z=0.4, beta=0.25), tilted_basis(2), 6),
        (spec(n=3, delta=0.7, m_x=0.6, m_z=0.8, beta=0.4), tilted_basis(3, sites=(0, 2)), 3),
    ], ids=["commuting", "n2-sign-problem", "n3-sign-problem"])
    def test_agrees_with_direct_enumeration(self, model, basis, n_max):
        # tiny instances, explicit sum over index strings via the sampler
        # weight as an independent route; the last two have Z < Z', one
        # with coinciding term matrices (N = 2) and one without (N = 3)
        terms = active_terms(model)
        z_direct = 0.0
        zp_direct = 0.0
        for bits in itertools.product((0, 1), repeat=model.n_sites):
            for n in range(n_max + 1):
                for ids in itertools.product(range(len(terms)), repeat=n):
                    w = weight_of(bits, [terms[i] for i in ids], model, basis)
                    z_direct += w
                    zp_direct += abs(w)
        z, zp, _ = brute_force_partition(model, basis, n_max=n_max)
        assert z == pytest.approx(z_direct, rel=1e-10)
        assert zp == pytest.approx(zp_direct, rel=1e-10)
