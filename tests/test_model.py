import numpy as np
import pytest

from shiftsse.model import (
    BondTerm,
    ModelSpec,
    PauliFlavor,
    active_terms,
    dense_hamiltonian,
    term_matrix,
)

from conftest import dense_bond_op, dense_term


def spec(n=3, delta=1.0, m_x=1.0, m_z=1.0, beta=0.5):
    return ModelSpec(n_sites=n, delta=delta, m_x=m_x, m_z=m_z, beta=beta)


class TestBuildTerms:
    """The bond terms `active_terms` builds, and model validation."""

    def test_counts_and_parameters(self):
        terms = active_terms(spec(n=3, delta=1.0))
        assert len(terms) == 6
        # one cached proposal set per model, ZZ bonds first
        assert active_terms(spec(n=3, delta=1.0)) is terms
        assert [(t.site, t.flavor) for t in terms] == (
            [(i, PauliFlavor.ZZ) for i in range(3)] + [(i, PauliFlavor.XX) for i in range(3)])
        zz = [t for t in terms if t.flavor is PauliFlavor.ZZ]
        xx = [t for t in terms if t.flavor is PauliFlavor.XX]
        assert len(zz) == len(xx) == 3
        assert all(t.coupling == 1.0 and t.shift == 1.0 and t.sign == -1 for t in zz)
        assert all(t.coupling == 1.0 and t.shift == 1.0 and t.sign == -1 for t in xx)
        assert spec(n=3, delta=1.0).energy_offset == pytest.approx(6.0)

    def test_delta_zero_deactivates_xx(self):
        sp = spec(n=3, delta=0.0)
        act = active_terms(sp)
        assert len(act) == 3
        assert all(t.flavor is PauliFlavor.ZZ for t in act)
        # offset follows sum_b shift*coupling: XX couplings vanish with delta
        assert sp.energy_offset == pytest.approx(3.0)

    def test_offset_arithmetic(self):
        assert spec(n=4, delta=0.5).energy_offset == pytest.approx(6.0)

    def test_offset_equals_term_sum(self):
        for sp in (spec(), spec(n=4, delta=0.3, m_x=1.7, m_z=0.6), spec(n=2, delta=0.0)):
            total = sum(t.shift * t.coupling for t in active_terms(sp))
            assert total == pytest.approx(sp.energy_offset, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            spec(n=1)
        with pytest.raises(ValueError):
            spec(delta=-0.1)
        with pytest.raises(ValueError):
            spec(delta=1.5)
        with pytest.raises(ValueError):
            spec(m_x=0.0)
        with pytest.raises(ValueError):
            spec(m_z=-1.0)
        with pytest.raises(ValueError):
            spec(beta=0.0)
        for name in ("delta", "m_x", "m_z", "beta"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    spec(**{name: value})

    def test_bond_term_validation(self):
        with pytest.raises(ValueError):
            BondTerm(0, PauliFlavor.ZZ, 1.0, 0.0, -1)
        with pytest.raises(ValueError):
            BondTerm(0, PauliFlavor.ZZ, -0.5, 1.0, -1)
        with pytest.raises(ValueError):
            BondTerm(0, PauliFlavor.ZZ, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            BondTerm(-1, PauliFlavor.ZZ, 1.0, 1.0, -1)


class TestTermMatrix:
    def test_zz_term_hand_matrix(self):
        term = BondTerm(0, PauliFlavor.ZZ, 1.0, 1.0, -1)
        expect = np.diag([0.0, 2.0, 2.0, 0.0])
        np.testing.assert_allclose(term_matrix(term, 2), expect, atol=1e-15)

    def test_xx_term_hand_matrix(self):
        term = BondTerm(0, PauliFlavor.XX, 1.0, 1.0, -1)
        expect = np.array([
            [1, 0, 0, -1],
            [0, 1, -1, 0],
            [0, -1, 1, 0],
            [-1, 0, 0, 1],
        ], dtype=float)
        np.testing.assert_allclose(term_matrix(term, 2), expect, atol=1e-15)

    def test_matches_kron_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            flavor = PauliFlavor.ZZ if rng.random() < 0.5 else PauliFlavor.XX
            term = BondTerm(int(rng.integers(n)), flavor,
                            float(rng.uniform(0.2, 2.0)),
                            float(rng.uniform(0.2, 2.0)),
                            -1 if rng.random() < 0.5 else 1)
            np.testing.assert_allclose(term_matrix(term, n),
                                       dense_term(term, n).real, atol=1e-13)

    def test_site_out_of_range(self):
        # site 5 does not exist on a 3-site chain; the bond must not wrap onto site 0
        term = BondTerm(5, PauliFlavor.ZZ, 1.0, 1.0, -1)
        with pytest.raises(ValueError, match="does not fit 3 qubits"):
            term_matrix(term, 3)


class TestDenseHamiltonian:
    def test_two_site_spectrum(self):
        # periodic N=2 double-counts the bond: H = 2(Z0Z1 + X0X1)
        vals = np.linalg.eigvalsh(dense_hamiltonian(spec(n=2, delta=1.0)))
        np.testing.assert_allclose(vals, [-4.0, 0.0, 0.0, 4.0], atol=1e-12)

    def test_delta_zero_is_diagonal(self):
        ham = dense_hamiltonian(spec(n=3, delta=0.0))
        assert np.max(np.abs(ham - np.diag(np.diag(ham)))) == 0.0
        assert set(np.round(np.diag(ham)).astype(int)) == {-1, 3}

    def test_traceless(self):
        assert abs(np.trace(dense_hamiltonian(spec(n=3, delta=1.0)))) < 1e-12

    def test_site_limit(self):
        with pytest.raises(ValueError):
            dense_hamiltonian(spec(n=13))

    def test_equals_kronecker_oracle_exactly(self):
        # every entry is a sum of 0, +-1 and +-delta, so no rounding is allowed
        for n in range(2, 9):
            for delta in (0.0, 0.7, 1.0):
                oracle = np.zeros((2 ** n, 2 ** n), dtype=complex)
                for i in range(n):
                    oracle += dense_bond_op(i, PauliFlavor.ZZ, n)
                    oracle += delta * dense_bond_op(i, PauliFlavor.XX, n)
                assert np.array_equal(dense_hamiltonian(spec(n=n, delta=delta)), oracle)

    def test_shifted_term_sum_identity(self):
        # H + sum_b coupling*(shift*I + sign*O_b) == offset * I
        for sp in (spec(n=2), spec(n=3, delta=0.4, m_x=1.3, m_z=0.7),
                   spec(n=4, delta=1.0, m_x=2.0, m_z=0.5)):
            dim = 2 ** sp.n_sites
            total = dense_hamiltonian(sp).astype(complex)
            for t in active_terms(sp):
                total += dense_term(t, sp.n_sites)
            np.testing.assert_allclose(total, sp.energy_offset * np.eye(dim),
                                       atol=1e-12)

    def test_anisotropy_relabel_rescales_spectrum(self):
        # eig(H(delta)) == delta * eig(relabeled H(1/delta)), relabel Z<->X
        delta = 0.5
        for n in (2, 3, 4):
            vals = np.linalg.eigvalsh(dense_hamiltonian(spec(n=n, delta=delta)))
            swapped = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for i in range(n):
                swapped += dense_bond_op(i, PauliFlavor.XX, n)
                swapped += (1.0 / delta) * dense_bond_op(i, PauliFlavor.ZZ, n)
            ref = delta * np.linalg.eigvalsh(swapped)
            np.testing.assert_allclose(vals, ref, atol=1e-10)
