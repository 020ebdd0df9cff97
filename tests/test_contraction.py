import math

import numpy as np
import pytest

from shiftsse.contraction import (
    commute_adjacent,
    contract,
    merge_same_bond,
    sandwich_eliminate,
)
from shiftsse.model import BondTerm, ModelSpec, PauliFlavor
from shiftsse.sampler import Configuration
from shiftsse.statevec import BasisChoice

from conftest import dense_string_product, dense_term, random_term


def zz(site=0, shift=1.0, coupling=1.0):
    return BondTerm(site, PauliFlavor.ZZ, coupling, shift)


def xx(site=0, shift=1.0, coupling=1.0):
    return BondTerm(site, PauliFlavor.XX, coupling, shift)


class TestCommute:
    def test_same_bond_different_flavor(self):
        assert commute_adjacent(zz(0), xx(0), 4)

    def test_one_shared_site(self):
        assert not commute_adjacent(zz(0), xx(1), 4)
        assert not commute_adjacent(zz(2), xx(1), 4)

    def test_disjoint_bonds(self):
        assert commute_adjacent(zz(0), zz(2), 4)
        assert commute_adjacent(zz(0), xx(2), 5)

    def test_same_flavor_always(self):
        assert commute_adjacent(zz(0), zz(1), 4)
        assert commute_adjacent(xx(0), xx(1), 4)

    def test_periodic_wrap_two_sites(self):
        # N=2: bonds (0,1) and (1,0) cover the same pair, two shared sites
        assert commute_adjacent(zz(0), xx(1), 2)

    def test_agrees_with_dense_commutator(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            a, b = random_term(rng, n), random_term(rng, n)
            ma, mb = dense_term(a, n), dense_term(b, n)
            dense_commutes = np.max(np.abs(ma @ mb - mb @ ma)) < 1e-12
            assert commute_adjacent(a, b, n) == dense_commutes


class TestMerge:
    @pytest.mark.parametrize("m1,m2,factor,shift", [
        (1.0, 1.0, 2.0, 1.0),
        (1.0, 3.0, 4.0, 1.0),
        (2.0, 2.0, 4.0, 1.25),
    ])
    def test_values(self, m1, m2, factor, shift):
        got_factor, merged = merge_same_bond(zz(shift=m1), zz(shift=m2), 4)
        assert got_factor == pytest.approx(factor)
        assert merged.shift == pytest.approx(shift)
        assert merged.coupling == 1.0

    def test_matrix_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            site = int(rng.integers(n))
            flavor = PauliFlavor.ZZ if rng.random() < 0.5 else PauliFlavor.XX
            a = BondTerm(site, flavor, float(rng.uniform(0.3, 1.5)),
                         float(rng.uniform(0.2, 2.5)))
            b = BondTerm(site, flavor, float(rng.uniform(0.3, 1.5)),
                         float(rng.uniform(0.2, 2.5)))
            factor, merged = merge_same_bond(a, b, n)
            lhs = dense_term(b, n) @ dense_term(a, n)
            rhs = factor * dense_term(merged, n)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_mixed_flavor_or_sign(self):
        with pytest.raises(ValueError):
            merge_same_bond(zz(0), xx(0), 4)
        # bonds (0,1) and (2,3): the merged factor was off by 4.0 (max abs)
        with pytest.raises(ValueError):
            merge_same_bond(zz(0), zz(2), 4)

    def test_same_pair_merges_at_two_sites(self):
        # N = 2: bonds (0,1) and (1,0) cover the same pair
        a, b = zz(0, shift=0.7), zz(1, shift=1.9)
        factor, merged = merge_same_bond(a, b, 2)
        np.testing.assert_allclose(dense_term(b, 2) @ dense_term(a, 2),
                                   factor * dense_term(merged, 2), atol=1e-12)


class TestSandwich:
    @pytest.mark.parametrize("mid_site", [2, 1])
    def test_unit_shift_elimination(self, mid_site):
        # ZZ bread on bond (2,3), XX filling on (1,2) or (2,3)+1 neighbors
        n = 4
        bread = zz(2, shift=1.0)
        mid = xx(mid_site, shift=1.0)
        got = sandwich_eliminate(bread, mid, bread, n)
        if mid_site == 2:
            # same bond commutes; not a sandwich pattern
            assert got is None
            return
        factor, survivor = got
        assert factor == pytest.approx(2.0)
        assert survivor == bread
        lhs = dense_term(bread, n) @ dense_term(mid, n) @ dense_term(bread, n)
        np.testing.assert_allclose(lhs, factor * dense_term(survivor, n), atol=1e-12)

    def test_both_neighbor_sides(self):
        n = 5
        bread = zz(2, shift=1.0)
        for mid in (xx(1), xx(3)):
            factor, survivor = sandwich_eliminate(bread, mid, bread, n)
            assert factor == pytest.approx(2.0)
            lhs = dense_term(bread, n) @ dense_term(mid, n) @ dense_term(bread, n)
            np.testing.assert_allclose(lhs, factor * dense_term(survivor, n),
                                       atol=1e-12)

    def test_general_mx_factor(self):
        n = 4
        bread = zz(1, shift=1.0)
        mid = xx(0, shift=1.7, coupling=0.6)
        factor, survivor = sandwich_eliminate(bread, mid, bread, n)
        assert factor == pytest.approx(2.0 * 1.7 * 0.6)
        lhs = dense_term(bread, n) @ dense_term(mid, n) @ dense_term(bread, n)
        np.testing.assert_allclose(lhs, factor * dense_term(survivor, n), atol=1e-12)

    def test_non_unit_shift_not_applicable(self):
        n = 4
        bread = zz(1, shift=2.0)
        mid = xx(0)
        assert sandwich_eliminate(bread, mid, bread, n) is None
        # the dense product genuinely keeps an XX remainder at shift 2
        prod = dense_term(bread, n) @ dense_term(mid, n) @ dense_term(bread, n)
        best = prod - 2.0 * mid.shift * dense_term(bread, n)
        assert np.max(np.abs(best)) > 0.1

    def test_near_unit_shift_not_applicable(self):
        # the rule is exact only at shift 1.0 itself, so 1 + 1e-13 keeps all three terms
        bread, mid = zz(0, shift=1.0 + 1e-13), xx(1)
        assert sandwich_eliminate(bread, mid, bread, 3) is None
        reduced = contract([bread, mid, bread], 3)
        assert (reduced.prefactor, reduced.terms) == (1.0, [bread, mid, bread])

    def test_xx_bread_not_rewritten(self):
        assert sandwich_eliminate(xx(1), zz(0), xx(1), 4) is None


class TestContract:
    def test_repeated_bond_pair(self):
        reduced = contract([zz(0), zz(0)], 3)
        assert reduced.prefactor == pytest.approx(2.0)
        assert reduced.terms == [zz(0)]

    def test_empty(self):
        reduced = contract([], 3)
        assert reduced.prefactor == 1.0
        assert reduced.terms == []

    def test_merge_through_commuting_gap(self):
        # the disjoint-bond term between the pair does not block merging
        string = [zz(0), zz(2), zz(0)]
        reduced = contract(string, 4)
        assert reduced.prefactor == pytest.approx(2.0)
        assert len(reduced.terms) == 2

    def test_sandwich_inside_string(self):
        string = [zz(0), xx(1), zz(0)]
        reduced = contract(string, 4)
        assert reduced.prefactor == pytest.approx(2.0)
        assert reduced.terms == [zz(0)]

    def test_random_exactness(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 5))
            string = [random_term(rng, n) for _ in range(int(rng.integers(0, 9)))]
            original = dense_string_product(string, n)
            reduced = contract(string, n)
            rebuilt = reduced.prefactor * dense_string_product(reduced.terms, n)
            scale = max(1.0, np.max(np.abs(original)))
            assert np.max(np.abs(rebuilt - original)) / scale < 1e-10
            assert len(reduced.terms) <= len(string)
            assert reduced.prefactor > 0.0

    def test_idempotent(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            string = [random_term(rng, n) for _ in range(int(rng.integers(0, 9)))]
            once = contract(string, n)
            twice = contract(once.terms, n)
            assert twice.prefactor == 1.0
            assert twice.terms == once.terms

    def test_weight_equivalence_both_bases(self, rng):
        # at beta = 1 a weight is Re <alpha|string|alpha> / n!
        def element(label, terms, model, basis):
            weight = Configuration(label, terms, model, basis).weight_value
            return math.factorial(len(terms)) * weight

        for basis in (BasisChoice.z_product(), BasisChoice.rotated()):
            for _ in range(25):
                n = int(rng.integers(2, 5))
                model = ModelSpec(n_sites=n, delta=1.0, m_x=1.0, m_z=1.0, beta=1.0)
                label = tuple(int(b) for b in rng.integers(0, 2, size=n))
                string = [random_term(rng, n) for _ in range(int(rng.integers(0, 7)))]
                reduced = contract(string, n)
                direct = element(label, string, model, basis)
                via = reduced.prefactor * element(label, reduced.terms, model, basis)
                assert via == pytest.approx(direct, abs=1e-10)
