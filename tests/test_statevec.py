import numpy as np
import pytest

from shiftsse.model import BondTerm, PauliFlavor
from shiftsse.statevec import (
    BasisChoice,
    BasisLabel,
    StateVector,
    apply_term,
    default_rotation,
    prepare,
    string_matrix_element,
)

from conftest import dense_matrix_element, dense_term, random_term


def zz(site=0, shift=1.0, sign=-1, coupling=1.0):
    return BondTerm(site, PauliFlavor.ZZ, coupling, shift, sign)


def xx(site=0, shift=1.0, sign=-1, coupling=1.0):
    return BondTerm(site, PauliFlavor.XX, coupling, shift, sign)


class TestPrepare:
    def test_z_product_is_one_hot(self):
        st = prepare(BasisLabel((0, 0)), BasisChoice.z_product())
        np.testing.assert_allclose(st.amps, [1, 0, 0, 0], atol=0)
        st = prepare(BasisLabel((1, 0)), BasisChoice.z_product())
        np.testing.assert_allclose(st.amps, [0, 1, 0, 0], atol=0)

    def test_default_rotation_amplitudes(self):
        # T*H |0> = (|0> + e^{i pi/4}|1>)/sqrt(2)
        st = prepare(BasisLabel((0,)), BasisChoice.rotated())
        expect = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
        np.testing.assert_allclose(st.amps, expect, atol=1e-15)

    def test_unit_norm(self, rng):
        basis = BasisChoice.rotated()
        for _ in range(10):
            n = int(rng.integers(1, 6))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            amps = prepare(BasisLabel(bits), basis).amps
            assert np.linalg.norm(amps) == pytest.approx(1.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            BasisChoice.rotated(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_per_site_length_mismatch(self):
        basis = BasisChoice.rotated([np.eye(2), default_rotation()])
        with pytest.raises(ValueError):
            prepare(BasisLabel((0, 1, 0)), basis)

    def test_label_helpers(self):
        label = BasisLabel.from_index(5, 4)
        assert label.bits == (1, 0, 1, 0)
        assert label.index == 5
        assert label.flip(1).bits == (1, 1, 1, 0)
        with pytest.raises(ValueError):
            BasisLabel((0, 2))


class TestApplyTerm:
    def test_zz_signs_on_aligned_pair(self):
        st = prepare(BasisLabel((0, 0)), BasisChoice.z_product())
        # ferromagnetic-sign convention doubles an aligned pair
        out = apply_term(st, zz(sign=+1))
        np.testing.assert_allclose(out.amps, 2.0 * st.amps, atol=0)
        # the antiferromagnetic term annihilates it
        out = apply_term(st, zz(sign=-1))
        np.testing.assert_allclose(out.amps, np.zeros(4), atol=0)

    def test_xx_branches(self):
        st = prepare(BasisLabel((0, 0)), BasisChoice.z_product())
        out = apply_term(st, xx(sign=-1))
        np.testing.assert_allclose(out.amps, [1, 0, 0, -1], atol=0)

    def test_matches_dense_oracle_on_random_states(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            term = random_term(rng, n)
            amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            out = apply_term(StateVector(n, amps), term)
            np.testing.assert_allclose(out.amps, dense_term(term, n) @ amps,
                                       atol=1e-12)

    def test_linearity(self, rng):
        n = 3
        term = random_term(rng, n)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        lhs = apply_term(StateVector(n, a * u + b * v), term).amps
        rhs = (a * apply_term(StateVector(n, u), term).amps
               + b * apply_term(StateVector(n, v), term).amps)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_site_out_of_range(self):
        st = prepare(BasisLabel((0, 0)), BasisChoice.z_product())
        with pytest.raises(ValueError):
            apply_term(st, zz(site=2))


class TestStringMatrixElement:
    def test_empty_string(self):
        val = string_matrix_element(BasisLabel((1, 0)), BasisChoice.rotated(), [])
        assert val == pytest.approx(1.0 + 0.0j)

    def test_antialigned_pair(self):
        val = string_matrix_element(BasisLabel((1, 0)), BasisChoice.z_product(), [zz()])
        assert val == pytest.approx(2.0 + 0.0j)

    def test_matches_dense_oracle_rotated(self, rng):
        basis = BasisChoice.rotated()
        for _ in range(30):
            n = 3
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            string = [random_term(rng, n) for _ in range(int(rng.integers(0, 5)))]
            got = string_matrix_element(BasisLabel(bits), basis, string)
            want = dense_matrix_element(bits, basis, string, n)
            assert got == pytest.approx(want, abs=1e-12)

    def test_reversal_conjugates(self, rng):
        # shifted bond factors are real symmetric, so reversing the string
        # conjugates the matrix element
        basis = BasisChoice.rotated()
        for _ in range(20):
            n = int(rng.integers(2, 5))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            string = [random_term(rng, n) for _ in range(int(rng.integers(1, 7)))]
            fwd = string_matrix_element(BasisLabel(bits), basis, string)
            rev = string_matrix_element(BasisLabel(bits), basis, string[::-1])
            assert rev.real == pytest.approx(fwd.real, abs=1e-11)
            assert rev.imag == pytest.approx(-fwd.imag, abs=1e-11)

    def test_commuting_limit_nonnegative_in_any_basis(self, rng):
        # unit-shift antiferromagnetic ZZ factors are commuting PSD operators,
        # so every matrix element is real and non-negative in both bases
        for basis in (BasisChoice.z_product(), BasisChoice.rotated()):
            for _ in range(25):
                n = int(rng.integers(2, 5))
                bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
                string = [zz(site=int(rng.integers(n)))
                          for _ in range(int(rng.integers(1, 8)))]
                val = string_matrix_element(BasisLabel(bits), basis, string)
                assert abs(val.imag) < 1e-12
                assert val.real >= -1e-12
