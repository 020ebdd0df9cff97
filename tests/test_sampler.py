import itertools
import math

import numpy as np
import pytest

from shiftsse.model import ModelSpec, PauliFlavor, active_terms
from shiftsse.oracle import ANCILLA_QUBIT_LIMIT, ancilla_weight
from shiftsse.sampler import (
    Configuration,
    _Draws,
    SweepPlan,
    rng_stream,
    run_chain,
    sweep,
    update_alpha,
    update_insert_remove,
    update_string_fixed_n,
    weight_of,
)
from shiftsse.statevec import BasisChoice

import db_checks
from conftest import dense_matrix_element, tilted_basis

CHI2_999_DOF3 = 16.266  # chi-square 99.9% quantile, 3 degrees of freedom


def spec(n=2, delta=1.0, m_x=1.0, m_z=1.0, beta=0.5):
    return ModelSpec(n_sites=n, delta=delta, m_x=m_x, m_z=m_z, beta=beta)


def config_for(model, bits, term_ids, basis):
    terms = active_terms(model)
    string = [terms[i] for i in term_ids]
    return Configuration(bits, string, model, basis)


class TestWeight:
    def test_empty_string(self):
        model = spec()
        basis = BasisChoice.rotated()
        assert weight_of((1, 0), [], model, basis) == 1.0
        assert Configuration((1, 0), [], model, basis).weight_value == 1.0

    @pytest.mark.parametrize("bits, term_ids", [
        ((0, 1, 1), []), ((0, 1, 1), [0]), ((0,), []), ((0, 2), []), ((0, 2), [0]),
    ], ids=["three-bits", "three-bits-term", "one-bit", "bit-2", "bit-2-term"])
    def test_rejects_label_that_is_not_n_bits(self, bits, term_ids):
        # a 3-bit label on N = 2 used to weigh 1.0 with an empty string
        with pytest.raises(ValueError, match="label must be 2 bits of 0 or 1"):
            config_for(spec(), bits, term_ids, BasisChoice.z_product())

    @pytest.mark.parametrize("bits", [(0, 1), (0, 1, 0, 1, 1), (0, 2, 1)],
                             ids=["two-bits", "five-bits", "bit-2"])
    def test_relabel_rejects_label_that_is_not_n_bits(self, bits):
        # at order 0 both wrong lengths used to weigh 1.0, and accept()
        # installed a label that update_alpha then flipped bits of
        config = config_for(spec(n=3), (0, 1, 0), [], BasisChoice.z_product())
        with pytest.raises(ValueError, match="label must be 3 bits of 0 or 1"):
            config.relabel(bits)
        # the rejected label was not remembered either
        with pytest.raises(ValueError, match="label must be 3 bits of 0 or 1"):
            config.relabel(bits)

    def test_rejects_label_that_is_not_a_tuple(self):
        # a list label used to raise TypeError from the label memo
        with pytest.raises(ValueError, match="label must be 3 bits of 0 or 1"):
            Configuration([1, 0, 0], [], spec(n=3), BasisChoice.z_product())

    def test_single_bond_anti_aligned(self):
        model = spec(beta=1.0)
        basis = BasisChoice.z_product()
        cfg = config_for(model, (1, 0), [0], basis)
        assert cfg.weight_value == pytest.approx(2.0)

    def test_matches_uncontracted_dense_oracle(self, rng):
        model = spec(n=3, beta=0.8)
        basis = BasisChoice.rotated()
        terms = active_terms(model)
        for _ in range(25):
            k = int(rng.integers(0, 4))
            ids = [int(rng.integers(len(terms))) for _ in range(k)]
            bits = tuple(int(b) for b in rng.integers(0, 2, size=3))
            got = weight_of(bits, [terms[i] for i in ids], model, basis)
            me = dense_matrix_element(bits, basis, [terms[i] for i in ids], 3)
            want = (model.beta ** k / math.factorial(k)) * me.real
            assert got == pytest.approx(want, abs=1e-10)


class TestUpdateAlpha:
    def test_always_accepts_at_order_zero(self):
        # every non-lazy proposal is accepted when all weights are 1, so
        # the move rate matches the lazy-coin rate and every move is a
        # single-bit flip
        model = spec()
        basis = BasisChoice.z_product()
        rng = rng_stream(5)
        cfg = Configuration((0, 0), [], model, basis)
        moved = 0
        for _ in range(4000):
            before = cfg.alpha
            update_alpha(cfg, rng)
            after = cfg.alpha
            if after != before:
                moved += 1
                assert sum(a != b for a, b in zip(before, after)) == 1
        assert 0.42 < moved / 4000 < 0.58

    def test_rejects_zero_weight_labels(self):
        model = spec(beta=1.0)
        basis = BasisChoice.z_product()
        cfg = config_for(model, (1, 0), [0], basis)  # anti-aligned, W = 2
        rng = rng_stream(6)
        for _ in range(200):
            update_alpha(cfg, rng)
            assert cfg.alpha in ((1, 0), (0, 1))

    def test_uniform_over_labels_at_order_zero(self):
        model = spec()
        basis = BasisChoice.z_product()
        rng = rng_stream(7)
        cfg = Configuration((0, 0), [], model, basis)
        counts = {bits: 0 for bits in itertools.product((0, 1), repeat=2)}
        steps = 40000
        for _ in range(steps):
            update_alpha(cfg, rng)
            counts[cfg.alpha] += 1
        expected = steps / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_999_DOF3


class TestUpdateString:
    def test_noop_at_order_zero(self):
        model = spec()
        basis = BasisChoice.z_product()
        cfg = Configuration((0, 0), [], model, basis)
        update_string_fixed_n(cfg, rng_stream(8))
        assert cfg.order == 0

    def test_delta_zero_proposals_stay_zz(self):
        model = spec(delta=0.0, beta=1.0)
        basis = tilted_basis(2, sites=(0, 1))
        cfg = config_for(model, (0, 1), [0, 1, 0], basis)
        rng = rng_stream(9)
        for _ in range(300):
            update_string_fixed_n(cfg, rng)
            assert all(t.flavor is PauliFlavor.ZZ for t in cfg.string)
            assert cfg.order == 3


class TestInsertRemove:
    def test_remove_rejected_at_order_zero(self):
        model = spec(delta=0.0, beta=0.5)
        basis = BasisChoice.z_product()
        # aligned pair: every ZZ insertion has zero weight, so the chain
        # is pinned at order 0 with weight 1
        cfg = Configuration((0, 0), [], model, basis)
        rng = rng_stream(10)
        for _ in range(500):
            update_insert_remove(cfg, rng)
            assert cfg.order == 0
            assert cfg.weight_value == 1.0

    def test_grows_when_insertions_allowed(self):
        model = spec(beta=1.0)
        basis = BasisChoice.z_product()
        cfg = Configuration((1, 0), [], model, basis)
        rng = rng_stream(11)
        for _ in range(600):
            update_insert_remove(cfg, rng)
        assert cfg.order > 0
        assert cfg.weight_value == pytest.approx(
            weight_of(cfg.alpha, cfg.string, model, basis), rel=1e-12
        )


def _enumerate_strings(terms, n):
    return list(itertools.product(range(len(terms)), repeat=n))


class TestDetailedBalance:
    """Enumerated transition matrices must leave the |W| distribution invariant."""

    def test_alpha_updates(self):
        model = spec(m_x=0.4, m_z=0.4, beta=0.6)
        terms = active_terms(model)
        residual = db_checks.alpha_stationarity_residual(
            model, tilted_basis(2), [terms[0], terms[2]])
        assert residual < 1e-12

    def test_string_updates_fixed_length(self):
        model = spec(m_x=0.7, m_z=0.7, beta=0.6)
        residual = db_checks.string_stationarity_residual(
            model, tilted_basis(2), (1, 0), n=2)
        assert residual < 1e-12

    def test_insert_remove_updates(self):
        model = spec(m_x=0.8, m_z=0.8, beta=0.5)
        residual = db_checks.insert_remove_stationarity_residual(
            model, tilted_basis(2), n_cap=3)
        assert residual < 1e-12


class TestStationaryOrderDistribution:
    def test_matches_enumerated_weights(self):
        # delta=0, z basis, N=2: aligned labels die beyond order 0 and the
        # two anti-aligned labels give sum_{strings of length n} W =
        # (4 beta)^n / n!, so P(0) = 4/(2 + 2 e^{4 beta}) and
        # P(n>=1) = 2 (4 beta)^n / n! / (2 + 2 e^{4 beta})
        beta = 0.5
        model = spec(delta=0.0, beta=beta)
        basis = BasisChoice.z_product()
        norm = 2.0 + 2.0 * math.exp(4.0 * beta)
        expected = {0: 4.0 / norm}
        for n in range(1, 9):
            expected[n] = 2.0 * (4.0 * beta) ** n / math.factorial(n) / norm

        rng = rng_stream(12)
        plan = SweepPlan.default(2)
        orders = []
        cfg = Configuration.initial(model, basis, rng)
        for i in range(30000):
            cfg, sample = sweep(cfg, plan, rng)
            if i >= 2000:
                orders.append(sample.order)
        orders = np.array(orders)
        n_bins = 20
        chunks = np.array_split(orders, n_bins)
        for n, p_exact in expected.items():
            if p_exact < 5e-3:
                continue
            freqs = [np.mean(chunk == n) for chunk in chunks]
            mean = np.mean(freqs)
            stderr = np.std(freqs, ddof=1) / np.sqrt(n_bins)
            assert abs(mean - p_exact) < 3.0 * max(stderr, 1e-4), (
                f"order {n}: sampled {mean:.4f} vs exact {p_exact:.4f}"
            )


class TestErgodicity:
    def test_reaches_every_nonzero_configuration(self):
        model = spec(beta=0.4)
        basis = tilted_basis(2)
        terms = active_terms(model)
        reachable = set()
        for bits in itertools.product((0, 1), repeat=2):
            for n in range(3):
                for ids in _enumerate_strings(terms, n):
                    w = weight_of(bits, [terms[i] for i in ids], model, basis)
                    if w != 0.0:
                        reachable.add((bits, ids))

        id_of = {t: i for i, t in enumerate(terms)}
        rng = rng_stream(13)
        plan = SweepPlan.default(2)
        cfg = Configuration.initial(model, basis, rng)
        visited = set()
        for _ in range(12000):
            cfg, _ = sweep(cfg, plan, rng)
            if cfg.order <= 2:
                visited.add((cfg.alpha, tuple(id_of[t] for t in cfg.string)))
        missing = reachable - visited
        assert not missing, f"unvisited configurations: {sorted(missing)[:5]}"


class TestSweepProtocol:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SweepPlan(alpha_updates=0, string_updates=None, insert_remove_updates=1)
        with pytest.raises(ValueError):
            SweepPlan(alpha_updates=1, string_updates=0, insert_remove_updates=1)
        plan = SweepPlan.default(5)
        assert plan.alpha_updates == 10  # 2N lazy attempts = N expected flips
        assert plan.string_count(0) == 1
        assert plan.string_count(7) == 7
        assert SweepPlan(1, 3, 1).string_count(9) == 3

    def test_deterministic_streams(self):
        model = spec(beta=0.8)
        basis = tilted_basis(2)
        plan = SweepPlan.default(2)

        def stream(seed):
            rng = rng_stream(seed)
            cfg = Configuration.initial(model, basis, rng)
            samples = []
            for _ in range(400):
                cfg, s = sweep(cfg, plan, rng)
                samples.append((s.sign, s.order))
            return samples, cfg

        s1, c1 = stream(99)
        s2, c2 = stream(99)
        assert s1 == s2
        assert c1.string == c2.string and c1.alpha == c2.alpha
        s3, _ = stream(100)
        assert s1 != s3

    def test_unbounded_order_excursions(self):
        # no cutoff: the chain must visit orders well above its mean
        model = spec(beta=1.0)
        basis = BasisChoice.z_product()
        rng = rng_stream(14)
        plan = SweepPlan.default(2)
        cfg = Configuration.initial(model, basis, rng)
        orders = []
        for _ in range(15000):
            cfg, s = sweep(cfg, plan, rng)
            orders.append(s.order)
        orders = np.array(orders[1000:])
        assert orders.max() > 2.0 * orders.mean()

    def test_run_chain_counts(self):
        model = spec(beta=0.5)
        basis = BasisChoice.z_product()
        acc, cfg = run_chain(model, basis, SweepPlan.default(2), rng_stream(15),
                             sweeps=500, warmup_sweeps=100)
        assert acc.count == 400
        assert cfg.weight_value != 0.0
        with pytest.raises(ValueError):
            run_chain(model, basis, SweepPlan.default(2), rng_stream(15),
                      sweeps=100, warmup_sweeps=100)

    def test_run_chain_rejects_negative_warmup(self):
        # a negative warmup used to size the bins for 35 samples and leave
        # the last three empty after 30
        with pytest.raises(ValueError, match="non-negative"):
            run_chain(spec(), BasisChoice.z_product(), SweepPlan.default(2),
                      rng_stream(15), sweeps=30, warmup_sweeps=-5)


class TestDraws:
    """`_Draws` against numpy's `Generator` as the reference: the same
    numbers, and the generator left in the same state."""

    SIZES = (1, 2, 3, 6, 7, 14, 21, 2**31 + 5, 2**32)

    @pytest.mark.parametrize("start", ["fresh", "label", "odd-32-bit"])
    def test_matches_twin_generator(self, start):
        rng, twin = rng_stream(21), rng_stream(21)
        for g in (rng, twin):
            if start == "label":
                g.integers(0, 2, size=7)
            elif start == "odd-32-bit":
                g.integers(0, 2**32, size=3, dtype=np.uint32)
        if start != "fresh":
            # seven or three 32-bit draws leave half of a 64-bit draw buffered
            assert twin.bit_generator.state["has_uint32"] == 1
        draws = _Draws(rng)
        script = np.random.default_rng(5)
        for _ in range(20000):
            if script.random() < 0.4:
                assert draws.random() == twin.random()
            else:
                n = self.SIZES[int(script.integers(len(self.SIZES)))]
                assert draws.integers(n) == int(twin.integers(n))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()
        assert rng.integers(10**9) == twin.integers(10**9)

    @pytest.mark.parametrize("n_sites, delta, m_x, basis", [
        (3, 1.0, 1.0, BasisChoice.rotated()),
        (4, 0.6, 0.7, BasisChoice.z_product()),
    ], ids=["n3-rotated", "n4-z-delta0.6"])
    def test_same_chain_as_generator(self, n_sites, delta, m_x, basis):
        model = spec(n=n_sites, delta=delta, m_x=m_x, beta=0.8)
        plan = SweepPlan.default(n_sites)
        rng, twin = rng_stream(22), rng_stream(22)
        cfg = Configuration.initial(model, basis, rng)
        twin_cfg = Configuration.initial(model, basis, twin)
        draws = _Draws(twin)
        for _ in range(300):
            cfg, sample = sweep(cfg, plan, rng)
            twin_cfg, twin_sample = sweep(twin_cfg, plan, draws)
            assert twin_cfg.alpha == cfg.alpha
            assert twin_cfg.string == cfg.string
            assert twin_cfg.weight_value == cfg.weight_value
            assert twin_sample == sample
        assert rng.bit_generator.state == twin.bit_generator.state


class TestChainWeightAtSamplerSizes:
    """The final chain weight of a run at N = 6 and 7 against both oracles."""

    @pytest.mark.parametrize("basis_name", ["z", "rotated"])
    @pytest.mark.parametrize("n_sites", [6, 7])
    def test_final_weight_matches_oracles(self, n_sites, basis_name):
        model = spec(n=n_sites, delta=0.8, m_x=0.9, m_z=1.1, beta=0.6)
        basis = BasisChoice.z_product() if basis_name == "z" else BasisChoice.rotated()
        _, cfg = run_chain(model, basis, SweepPlan.default(n_sites),
                           rng_stream(40 + n_sites), sweeps=300, warmup_sweeps=30)
        n = cfg.order
        me = dense_matrix_element(cfg.alpha, basis, cfg.string, n_sites)
        dense = model.beta ** n / math.factorial(n) * me.real
        assert cfg.weight_value == pytest.approx(dense, rel=1e-10, abs=0.0)
        if n_sites + n <= ANCILLA_QUBIT_LIMIT:
            register = ancilla_weight(cfg, model, basis)
            assert cfg.weight_value == pytest.approx(register, rel=1e-10, abs=0.0)
