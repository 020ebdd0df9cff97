import math

import numpy as np
import pytest

from shiftsse.model import BondTerm, ModelSpec, PauliFlavor
from shiftsse.sampler import Configuration
from shiftsse.statevec import (
    BasisChoice,
    bond_kernel,
    default_rotation,
    prepare,
)

from conftest import dense_matrix_element, dense_prepare, dense_term, random_term


def zz(site=0, shift=1.0, sign=-1, coupling=1.0):
    return BondTerm(site, PauliFlavor.ZZ, coupling, shift, sign)


def xx(site=0, shift=1.0, sign=-1, coupling=1.0):
    return BondTerm(site, PauliFlavor.XX, coupling, shift, sign)


def weight(bits, basis, string, beta=1.0):
    """Configuration weight of a hand-built string; the model only fixes N and beta."""
    model = ModelSpec(n_sites=len(bits), delta=1.0, m_x=1.0, m_z=1.0, beta=beta)
    return Configuration(bits, string, model, basis).weight_value


class TestPrepare:
    def test_z_product_is_one_hot(self):
        st = prepare((0, 0), BasisChoice.z_product())
        np.testing.assert_allclose(st.amps, [1, 0, 0, 0], atol=0)
        st = prepare((1, 0), BasisChoice.z_product())
        np.testing.assert_allclose(st.amps, [0, 1, 0, 0], atol=0)

    def test_no_unitaries_is_z_basis(self):
        assert BasisChoice.z_product() == BasisChoice()
        np.testing.assert_array_equal(BasisChoice().qubit_unitary(1, 3), np.eye(2))

    def test_default_rotation_amplitudes(self):
        # T*H |0> = (|0> + e^{i pi/4}|1>)/sqrt(2)
        st = prepare((0,), BasisChoice.rotated())
        expect = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
        np.testing.assert_allclose(st.amps, expect, atol=1e-15)

    def test_unit_norm(self, rng):
        basis = BasisChoice.rotated()
        for _ in range(10):
            n = int(rng.integers(1, 6))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            amps = prepare(bits, basis).amps
            assert np.linalg.norm(amps) == pytest.approx(1.0)

    def test_prepared_state_cache_is_bounded(self):
        from shiftsse.statevec import _prepared_amps
        basis = BasisChoice.rotated()
        labels = [tuple((index >> q) & 1 for q in range(9)) for index in range(300)]
        for bits in labels + labels[:10]:  # the first labels again, after eviction
            np.testing.assert_array_equal(prepare(bits, basis).amps, dense_prepare(bits, basis))
        assert _prepared_amps.cache_info().currsize <= 256

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            BasisChoice.rotated(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_empty_rotation_list(self):
        # an empty list must not fall through to the plain Z basis
        for empty in ([], np.zeros((0, 2, 2))):
            with pytest.raises(ValueError, match="at least one 2x2 rotation"):
                BasisChoice.rotated(empty)

    def test_per_site_length_mismatch(self):
        basis = BasisChoice.rotated([np.eye(2), default_rotation()])
        with pytest.raises(ValueError):
            prepare((0, 1, 0), basis)


class TestApplyTerm:
    """One bond term applied through its raw-array kernel."""

    def test_zz_signs_on_aligned_pair(self):
        amps = prepare((0, 0), BasisChoice.z_product()).amps
        # ferromagnetic-sign convention doubles an aligned pair
        out = bond_kernel(zz(sign=+1), 2)(amps)
        np.testing.assert_allclose(out, 2.0 * amps, atol=0)
        # the antiferromagnetic term annihilates it
        out = bond_kernel(zz(sign=-1), 2)(amps)
        np.testing.assert_allclose(out, np.zeros(4), atol=0)

    def test_xx_branches(self):
        amps = prepare((0, 0), BasisChoice.z_product()).amps
        out = bond_kernel(xx(sign=-1), 2)(amps)
        np.testing.assert_allclose(out, [1, 0, 0, -1], atol=0)

    def test_matches_dense_oracle_on_random_states(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            term = random_term(rng, n)
            amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            out = bond_kernel(term, n)(amps)
            np.testing.assert_allclose(out, dense_term(term, n) @ amps, atol=1e-12)

    def test_linearity(self, rng):
        n = 3
        term = random_term(rng, n)
        kernel = bond_kernel(term, n)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        np.testing.assert_allclose(kernel(a * u + b * v), a * kernel(u) + b * kernel(v),
                                   atol=1e-12)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            bond_kernel(zz(site=2), 2)


class TestStringMatrixElement:
    """String matrix elements, read through the configuration weight."""

    def test_empty_string(self):
        assert weight((1, 0), BasisChoice.rotated(), []) == 1.0

    def test_antialigned_pair(self):
        assert weight((1, 0), BasisChoice.z_product(), [zz()]) == pytest.approx(2.0)

    def test_matches_dense_oracle_rotated(self, rng):
        basis = BasisChoice.rotated()
        for _ in range(30):
            n = 3
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            string = [random_term(rng, n) for _ in range(int(rng.integers(0, 5)))]
            beta = float(rng.uniform(0.2, 2.0))
            got = weight(bits, basis, string, beta)
            me = dense_matrix_element(bits, basis, string, n)
            want = beta ** len(string) / math.factorial(len(string)) * me.real
            assert got == pytest.approx(want, abs=1e-12)

    def test_reversal_conjugates(self, rng):
        # shifted bond factors are real symmetric, so reversing the string
        # conjugates the matrix element
        def element(bits, string):
            start = prepare(bits, basis).amps
            cur = start
            for term in string:
                cur = bond_kernel(term, len(bits))(cur)
            return complex(np.vdot(start, cur))

        basis = BasisChoice.rotated()
        for _ in range(20):
            n = int(rng.integers(2, 5))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            string = [random_term(rng, n) for _ in range(int(rng.integers(1, 7)))]
            fwd = element(bits, string)
            rev = element(bits, string[::-1])
            assert rev.real == pytest.approx(fwd.real, abs=1e-11)
            assert rev.imag == pytest.approx(-fwd.imag, abs=1e-11)
            assert weight(bits, basis, string[::-1]) == pytest.approx(
                weight(bits, basis, string), abs=1e-11)

    def test_commuting_limit_nonnegative_in_any_basis(self, rng):
        # unit-shift antiferromagnetic ZZ factors are commuting PSD operators,
        # so every weight is non-negative in both bases
        for basis in (BasisChoice.z_product(), BasisChoice.rotated()):
            for _ in range(25):
                n = int(rng.integers(2, 5))
                bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
                string = [zz(site=int(rng.integers(n)))
                          for _ in range(int(rng.integers(1, 8)))]
                assert weight(bits, basis, string) >= -1e-12
