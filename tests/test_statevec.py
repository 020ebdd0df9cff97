import math

import numpy as np
import pytest

from shiftsse.model import BondTerm, ModelSpec, PauliFlavor, active_terms
from shiftsse.sampler import Configuration
from shiftsse.statevec import (
    BasisChoice,
    bond_kernel,
    default_rotation,
    prepare,
)

from conftest import dense_matrix_element, dense_prepare, dense_term, random_term


def zz(site=0, shift=1.0, coupling=1.0):
    return BondTerm(site, PauliFlavor.ZZ, coupling, shift)


def xx(site=0, shift=1.0, coupling=1.0):
    return BondTerm(site, PauliFlavor.XX, coupling, shift)


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

    def test_z_basis_amplitudes_are_real(self):
        assert prepare((1, 0, 1), BasisChoice.z_product()).amps.dtype == np.float64
        assert prepare((1, 0, 1), BasisChoice.rotated()).amps.dtype == np.complex128

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
        # the antiferromagnetic term annihilates an aligned pair
        out = bond_kernel(zz(), 2)(amps)
        np.testing.assert_allclose(out, np.zeros(4), atol=0)

    def test_xx_branches(self):
        amps = prepare((0, 0), BasisChoice.z_product()).amps
        out = bond_kernel(xx(), 2)(amps)
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

    def test_real_kernels_match_complex_bit_for_bit(self, rng):
        # the float64 Z-basis path stays real and is the real part of the
        # complex one, so no z-basis amplitude the sampler computes moves
        for _ in range(20):
            n = int(rng.integers(2, 6))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            real = prepare(bits, BasisChoice.z_product()).amps
            cplx = real.astype(complex)
            for _ in range(12):
                kernel = bond_kernel(random_term(rng, n), n)
                real, cplx = kernel(real), kernel(cplx)
            assert real.dtype == np.float64
            np.testing.assert_array_equal(real, cplx.real)
            assert not cplx.imag.any()

    @pytest.mark.parametrize("basis_name", ["z", "rotated"])
    def test_folded_xx_kernels_equal_the_general_expression(self, rng, basis_name):
        # At delta = 1 every XX coupling is exactly 1.0, and at M = 1
        # every identity coefficient is 1.0 too; the kernel drops those
        # multiplications. delta = 0.3 is the unfolded control. States
        # are the ones a chain builds: a prepared label pushed through
        # random active terms, so the z basis holds zeros of either sign.
        basis = BasisChoice.z_product() if basis_name == "z" else BasisChoice.rotated()
        for n in range(2, 8):
            idx = np.arange(2 ** n)
            for delta, shift in ((1.0, 0.5), (1.0, 1.0), (0.3, 1.0)):
                model = ModelSpec(n_sites=n, delta=delta, m_x=shift, m_z=shift, beta=1.0)
                terms = active_terms(model)
                xx_terms = [t for t in terms if t.flavor is PauliFlavor.XX]
                assert all((t.coupling == 1.0) == (delta == 1.0) for t in xx_terms)
                amps = prepare(tuple(int(b) for b in rng.integers(0, 2, size=n)), basis).amps
                for _ in range(12):
                    for term in xx_terms:
                        mask = (1 << term.site) | (1 << (term.site + 1) % n)
                        general = (term.coupling * term.shift * amps
                                   - term.coupling * amps[idx ^ mask])
                        out = bond_kernel(term, n)(amps)
                        if basis_name == "z":
                            assert np.array_equal(out, general)
                            assert np.array_equal(np.signbit(out), np.signbit(general))
                        else:
                            # a complex product with (1 + 0j) can flip the
                            # sign of a zero real or imaginary part, which
                            # no weight reads; every value is equal
                            assert (out == general).all()
                    out = bond_kernel(terms[int(rng.integers(len(terms)))], n)(amps)
                    amps = out if out.any() else prepare((0,) * n, basis).amps

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
