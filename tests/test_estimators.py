import numpy as np
import pytest

from shiftsse.estimators import RunAccumulators, energy
from shiftsse.model import ModelSpec


def filled(samples):
    acc = RunAccumulators(expected_samples=len(samples))
    for sign, order in samples:
        acc.add(sign, order)
    return acc


def merge(first, *rest):
    """`first` after absorbing each of `rest` in turn, as harness.run merges chains."""
    for acc in rest:
        first.absorb(acc)
    return first


def spec(beta=0.5):
    return ModelSpec(n_sites=3, delta=1.0, m_x=1.0, m_z=1.0, beta=beta)


class TestAverageSign:
    def test_all_positive(self):
        est = energy(filled([(1, 0)] * 200), spec())
        assert est.sign_value == pytest.approx(1.0)
        assert est.sign_stderr == pytest.approx(0.0)

    def test_alternating(self):
        est = energy(filled([(1, 0), (-1, 0)] * 100), spec())
        assert est.sign_value == pytest.approx(0.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="one sample per bin"):
            energy(filled([(1, 0)] * 5), spec())

    def test_no_samples(self):
        with pytest.raises(ValueError, match=r"\(20 bins, 0 samples\)"):
            energy(RunAccumulators(expected_samples=10), spec())

    def test_stderr_scale(self, rng):
        # iid random signs: stderr should approximate 1/sqrt(count)
        signs = rng.choice([-1, 1], size=4000)
        est = energy(filled([(int(s), 0) for s in signs]), spec())
        assert est.sign_stderr == pytest.approx(1.0 / np.sqrt(4000), rel=0.4)


class TestEnergy:
    def test_sign_free_reduces_to_plain_mean(self, rng):
        orders = [int(o) for o in rng.integers(0, 12, size=400)]
        acc = filled([(1, o) for o in orders])
        sp = spec(beta=0.5)
        est = energy(acc, sp)
        expect = -np.mean(orders) / sp.beta + sp.energy_offset
        assert est.value == pytest.approx(expect, abs=1e-12)
        assert est.reliable

    def test_reweighted_ratio(self):
        # two interleaved populations with known signs
        samples = [(1, 4), (1, 4), (-1, 2), (1, 4)] * 100
        acc = filled(samples)
        sp = spec(beta=1.0)
        est = energy(acc, sp)
        expect_n = (3 * 4 * 100 - 2 * 100) / (2 * 100)
        assert est.order_value == pytest.approx(expect_n)
        assert est.value == pytest.approx(-expect_n + sp.energy_offset)

    def test_vanishing_sign_is_flagged(self):
        est = energy(filled([(1, 3), (-1, 5)] * 200), spec())
        assert not est.reliable
        assert est.sign_value == pytest.approx(0.0)

    def test_jackknife_error_reasonable(self, rng):
        orders = rng.poisson(6.0, size=8000)
        acc = filled([(1, int(o)) for o in orders])
        est = energy(acc, spec(beta=1.0))
        naive = np.std(orders) / np.sqrt(len(orders))
        assert est.order_stderr == pytest.approx(naive, rel=0.5)


class TestMerge:
    def test_monoid_laws(self, rng):
        def random_samples():
            return [(int(rng.choice([-1, 1])), int(rng.integers(0, 9)))
                    for _ in range(60)]

        # merge absorbs into its first argument, so each side gets fresh copies
        a, b, c = random_samples(), random_samples(), random_samples()

        def key(acc):
            return (acc.count, tuple(acc.bin_count), tuple(acc.bin_sign),
                    tuple(acc.bin_order_sign))

        assert (key(merge(merge(filled(a), filled(b)), filled(c)))
                == key(merge(filled(a), merge(filled(b), filled(c)))))
        assert key(merge(filled(a), filled(b))) == key(merge(filled(b), filled(a)))

    def test_merged_estimates_pool_samples(self, rng):
        a = filled([(1, 2)] * 100)
        b = filled([(1, 4)] * 100)
        est = energy(merge(a, b), spec(beta=1.0))
        assert est.order_value == pytest.approx(3.0)


class TestAccumulatorValidation:
    def test_rejects_bad_sign(self):
        acc = RunAccumulators(expected_samples=10)
        with pytest.raises(ValueError):
            acc.add(0, 3)

    def test_rejects_samples_past_expected(self):
        # the 30 extra samples used to pile silently into the last bin
        acc = RunAccumulators(expected_samples=10)
        for _ in range(10):
            acc.add(1, 3)
        with pytest.raises(ValueError, match="all 10 expected samples"):
            acc.add(1, 3)
        assert acc.count == acc.bin_count.sum() == 10

    def test_bins_partition_in_order(self):
        acc = RunAccumulators(expected_samples=40)
        for i in range(40):
            acc.add(1, i)
        assert list(acc.bin_count) == [2] * 20
        assert list(acc.bin_order_sign) == [4 * k + 1 for k in range(20)]
