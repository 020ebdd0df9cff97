"""Seeded chain outputs pinned across commits.

Other tests compare two runs on one commit; these pin the numbers
themselves, so a refactor that moves a float operation or an rng draw
fails here. The average sign, the final order and the final label are
compared exactly; the error bars and jackknife ratios at rel 1e-12, so a
different BLAS summation order does not trip the test. A change that
alters the chain on purpose updates these values and says so.
"""

import pytest

from shiftsse.estimators import energy
from shiftsse.harness import RunConfig, run
from shiftsse.model import ModelSpec
from shiftsse.sampler import SweepPlan, rng_stream, run_chain
from shiftsse.statevec import BasisChoice

RTOL = 1e-12

RUN_PINS = {
    "rotated": {
        "avg_sign": 0.9144444444444444,
        "avg_sign_err": 0.015232655322501693,
        "energy": -1.334143377885784,
        "energy_err": 0.25903555522058275,
        "avg_order": 3.667071688942892,
        "avg_order_err": 0.12951777761029137,
    },
    "z": {
        "avg_sign": 0.9422222222222222,
        "avg_sign_err": 0.019639373799815077,
        "energy": -1.8962264150943398,
        "energy_err": 0.25029533956602246,
        "avg_order": 3.94811320754717,
        "avg_order_err": 0.12514766978301123,
    },
}


# At delta = M = 1 every z-basis amplitude is an integer, so the pins
# above cannot see a change in the order of a floating-point sum. This
# point has non-integer amplitudes and a sign problem (<sgn> = 0.58).
NON_DYADIC_CONFIG = RunConfig(n_sites=6, delta=0.3, m_x=0.3, m_z=0.7, sweeps=1000,
                              chains=2, seed=5, basis="z")
NON_DYADIC_PINS = {
    "avg_sign": 0.58,
    "avg_sign_err": 0.03505391030439892,
    "energy": -3.0377777777777784,
    "energy_err": 0.36830028243458607,
    "avg_order": 3.888888888888889,
    "avg_order_err": 0.18415014121729303,
}


# At delta = 1 every XX factor's flip coefficient is exactly -1.0, and at
# m_x = 0.5 its identity coefficient is 0.5, not 1.0: this rotated point
# runs the XX kernel that keeps one scaled term and folds the flip.
HALF_SHIFT_CONFIG = RunConfig(n_sites=4, delta=1.0, m_x=0.5, m_z=0.5, sweeps=1000,
                              chains=2, seed=6, basis="rotated")
HALF_SHIFT_PINS = {
    "avg_sign": 0.6666666666666666,
    "avg_sign_err": 0.0363758447682232,
    "energy": -3.5266666666666664,
    "energy_err": 0.40001709243343286,
    "avg_order": 3.763333333333333,
    "avg_order_err": 0.20000854621671643,
}


# At delta = 0.6 no XX coupling is 1.0, so this rotated point runs the
# general XX kernel with both coefficients scaled.
GENERAL_XX_CONFIG = RunConfig(n_sites=4, delta=0.6, m_x=0.7, m_z=0.9, sweeps=1000,
                              chains=2, seed=7, basis="rotated")
GENERAL_XX_PINS = {
    "avg_sign": 0.8844444444444445,
    "avg_sign_err": 0.015787816243935385,
    "energy": -1.3858291457286427,
    "energy_err": 0.3779142972365822,
    "avg_order": 3.3329145728643215,
    "avg_order_err": 0.1889571486182911,
}


def assert_pinned(config, pins):
    record = run(config).as_dict()
    assert record["avg_sign"] == pins["avg_sign"]
    for name, value in pins.items():
        assert record[name] == pytest.approx(value, rel=RTOL), name


@pytest.mark.parametrize("basis", sorted(RUN_PINS))
def test_run_record_is_pinned(basis):
    assert_pinned(RunConfig(n_sites=3, sweeps=2000, chains=2, seed=4, basis=basis),
                  RUN_PINS[basis])


def test_non_dyadic_z_run_is_pinned():
    assert_pinned(NON_DYADIC_CONFIG, NON_DYADIC_PINS)


def test_half_shift_rotated_run_is_pinned():
    assert_pinned(HALF_SHIFT_CONFIG, HALF_SHIFT_PINS)


def test_general_xx_rotated_run_is_pinned():
    assert_pinned(GENERAL_XX_CONFIG, GENERAL_XX_PINS)


def test_long_chain_is_pinned():
    # the benchmark's N = 7 chain workload at seed 3 (master seed 3000)
    model = ModelSpec(n_sites=7, delta=1.0, m_x=1.0, m_z=1.0, beta=1.0)
    acc, config = run_chain(model, BasisChoice.z_product(), SweepPlan.default(7),
                            rng_stream(3000), sweeps=400, warmup_sweeps=40)
    est = energy(acc, model)
    assert est.sign_value == 0.95
    assert est.value == pytest.approx(-8.760233918128655, rel=RTOL)
    assert est.stderr == pytest.approx(0.8092976855643548, rel=RTOL)
    assert est.order_value == pytest.approx(22.760233918128655, rel=RTOL)
    assert config.order == 29
    assert config.alpha == (1, 0, 1, 0, 0, 1, 1)
