"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line with its headline numbers so a plain
`pytest -v -s tests/test_acceptance.py` reads as a checklist. Statistical
criteria run the standard measurement protocol (20,000 sweeps split over
4 seeded chains, 10% warmup) and are pinned to seeds verified to pass
with comfortable margins. They run their chains on two worker processes,
which give the same bytes as one.
"""

import dataclasses
import time

import numpy as np
import pytest

from shiftsse.estimators import energy
from shiftsse.harness import (
    CampaignSpec,
    RunConfig,
    campaign,
    main,
    random_contraction_check,
    random_weight_equivalence_check,
    run,
)
from shiftsse.model import ModelSpec
from shiftsse.oracle import brute_force_partition
from shiftsse.sampler import SweepPlan, rng_stream, run_chain

import db_checks
from conftest import tilted_basis


def _announce(number, detail):
    print(f"\nACCEPTANCE {number} PASS - {detail}", flush=True)


@pytest.fixture(scope="module")
def m_grid_rows():
    """Joint-shift scan at N=3, T=2, rotated basis; shared by two criteria."""
    base = RunConfig(n_sites=3, delta=1.0, temperature=2.0, basis="rotated",
                     sweeps=20000, chains=4, seed=11, workers=2)
    spec = CampaignSpec(axis="m_joint", grid=(0.1, 0.5, 1.0, 1.5, 2.0, 2.5),
                        base=base)
    rows = campaign(spec)
    assert all(row["error"] == "" for row in rows)
    return rows


def test_01_direct_vs_ancilla_register_weights():
    started = time.monotonic()
    worst = random_weight_equivalence_check(count=500, seed=101)
    elapsed = time.monotonic() - started
    assert worst <= 1e-10
    assert elapsed < 60.0
    _announce(1, f"500 random configurations, max deviation {worst:.2e}, "
                 f"{elapsed:.1f}s")


def test_02_contraction_exactness():
    from shiftsse.contraction import merge_same_bond, sandwich_eliminate
    from shiftsse.model import BondTerm, PauliFlavor

    started = time.monotonic()
    worst = random_contraction_check(count=1000, seed=102)
    elapsed = time.monotonic() - started
    assert worst <= 1e-10

    # pinned rule values: general merge and both sandwich orientations
    factor, merged = merge_same_bond(
        BondTerm(0, PauliFlavor.ZZ, 1.0, 1.0),
        BondTerm(0, PauliFlavor.ZZ, 1.0, 3.0),
        5,
    )
    assert factor == pytest.approx(4.0) and merged.shift == pytest.approx(1.0)
    bread = BondTerm(2, PauliFlavor.ZZ, 1.0, 1.0)
    for mid_site in (1, 3):
        mid = BondTerm(mid_site, PauliFlavor.XX, 1.0, 1.0)
        factor, survivor = sandwich_eliminate(bread, mid, bread, 5)
        assert factor == pytest.approx(2.0) and survivor == bread
    assert sandwich_eliminate(
        dataclasses.replace(bread, shift=2.0), mid,
        dataclasses.replace(bread, shift=2.0), 5) is None

    assert elapsed < 60.0
    _announce(2, f"1000 random strings, max deviation {worst:.2e}, {elapsed:.1f}s")


class TestSignFreeLimits:
    """Every sampled sign must be +1, with no warmup discarded."""

    def test_03a_commuting_limit_rotated_basis(self):
        rec = run(RunConfig(n_sites=3, delta=0.0, m_x=1.0, m_z=1.0,
                            temperature=2.0, basis="rotated", sweeps=20000,
                            chains=4, warmup_fraction=0.0, seed=31, workers=2))
        assert rec.avg_sign == 1.0
        assert rec.avg_sign_err == 0.0
        _announce("3a", "delta=0, unit z-shift, rotated basis: 20000/20000 "
                        "signs positive")

    @pytest.mark.parametrize("n", [4, 6])
    def test_03b_even_chains_plain_basis(self, n):
        rec = run(RunConfig(n_sites=n, delta=1.0, temperature=2.0, basis="z",
                            sweeps=20000, chains=4, warmup_fraction=0.0,
                            seed=32, workers=2))
        assert rec.avg_sign == 1.0
        assert rec.avg_sign_err == 0.0
        _announce("3b", f"N={n} plain-z basis: 20000/20000 signs positive")


@pytest.mark.parametrize("n,delta,basis,temperature", [
    (2, 1.0, "z", 1.0),
    (2, 1.0, "z", 2.0),
    (3, 0.0, "rotated", 1.0),
    (3, 0.0, "rotated", 2.0),
    (4, 1.0, "z", 1.0),
    (4, 1.0, "z", 2.0),
])
def test_04_energy_matches_exact_diagonalization(n, delta, basis, temperature):
    rec = run(RunConfig(n_sites=n, delta=delta, temperature=temperature,
                        basis=basis, sweeps=20000, chains=4, seed=41, workers=2))
    assert rec.avg_sign == 1.0  # sign-free settings
    z_score = abs(rec.energy - rec.energy_ed) / rec.energy_err
    assert z_score <= 3.0, (
        f"E={rec.energy:.5f}+-{rec.energy_err:.5f} vs ED {rec.energy_ed:.5f} "
        f"({z_score:.2f} sigma)"
    )
    _announce(4, f"N={n} delta={delta} T={temperature} {basis}-basis: "
                 f"E={rec.energy:.4f}+-{rec.energy_err:.4f}, "
                 f"ED={rec.energy_ed:.4f}, {z_score:.2f} sigma")


def test_05_micro_average_sign_matches_exhaustive_ratio():
    # two-site chain with sub-unit shifts and a Z-tilting one-site rotation:
    # the smallest instance whose weights genuinely change sign (the default
    # rotation on one site provably cannot produce negative weights at N=2)
    model = ModelSpec(n_sites=2, delta=1.0, m_x=0.4, m_z=0.4, beta=0.25)
    basis = tilted_basis(2, sites=(0,))
    z, zp, tail = brute_force_partition(model, basis, n_max=18)
    exact = z / zp
    assert tail < 1e-8
    assert exact < 0.95  # genuinely sign-afflicted

    plan = SweepPlan.default(2)
    accs = [run_chain(model, basis, plan, rng_stream(51, stream=k),
                      sweeps=5000, warmup_sweeps=500)[0] for k in range(4)]
    merged = accs[0]
    for extra in accs[1:]:
        merged.absorb(extra)
    est = energy(merged, model)
    sign, sign_err = est.sign_value, est.sign_stderr
    z_score = abs(sign - exact) / sign_err
    assert z_score <= 3.0, f"sampled {sign:.5f}+-{sign_err:.5f} vs exact {exact:.5f}"
    _announce(5, f"<sgn> sampled {sign:.4f}+-{sign_err:.4f} vs exhaustive "
                 f"{exact:.4f} ({z_score:.2f} sigma), tail {tail:.1e}")


def test_06_shift_scan_trends(m_grid_rows):
    rows = m_grid_rows
    signs = [row["avg_sign"] for row in rows]
    errs = [row["avg_sign_err"] for row in rows]
    orders = [row["avg_order"] for row in rows]
    # gating: <sgn> non-decreasing within error bars, <n> strictly increasing
    for i in range(len(rows) - 1):
        assert signs[i + 1] - signs[i] >= -2.0 * (errs[i] + errs[i + 1]), (
            f"average sign decreased between grid points {i} and {i + 1}"
        )
    assert all(b > a for a, b in zip(orders, orders[1:]))

    # reported, non-gating: quantitative targets at the two reference shifts
    ref = {0.1: 0.31, 1.0: 0.92}
    notes = []
    for row in rows:
        m = row["axis_value"]
        if m in ref:
            delta_ref = abs(row["avg_sign"] - ref[m])
            status = "ok" if delta_ref <= 0.05 else "off"
            notes.append(f"M={m}: {row['avg_sign']:.3f} vs {ref[m]} "
                         f"(|diff|={delta_ref:.3f}, {status})")
    _announce(6, "sign non-decreasing, order strictly increasing; "
                 + "; ".join(notes))


def test_07_even_odd_size_oscillation():
    base = RunConfig(delta=1.0, m_x=1.0, m_z=1.0, temperature=2.0,
                     basis="rotated", sweeps=20000, chains=4, seed=23, workers=2)
    results = {}
    for n in (4, 5, 6, 7):
        rec = run(dataclasses.replace(base, n_sites=n))
        results[n] = (rec.avg_sign, rec.avg_sign_err)
    details = []
    for even, odd in ((4, 5), (6, 7)):
        s_even, e_even = results[even]
        s_odd, e_odd = results[odd]
        gap = s_even - s_odd
        sigma = np.hypot(e_even, e_odd)
        assert gap > 2.0 * sigma, (
            f"sgn(N={even})={s_even:.4f}+-{e_even:.4f} vs "
            f"sgn(N={odd})={s_odd:.4f}+-{e_odd:.4f}"
        )
        details.append(f"N={even}>{odd}: gap {gap:.4f} = {gap / sigma:.1f} sigma")
    _announce(7, "; ".join(details))


def test_08_order_fluctuation_scaling(m_grid_rows):
    rows = [row for row in m_grid_rows if row["axis_value"] >= 0.5]
    x = np.log([row["avg_order"] for row in rows])
    y = np.log([row["avg_order_err"] for row in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    assert 0.3 <= slope <= 0.7
    _announce(8, f"log-log slope of order fluctuations {slope:.3f} (target 0.5+-0.2)")


def test_09_detailed_balance_stationarity():
    from shiftsse.model import active_terms

    model = ModelSpec(n_sites=2, delta=1.0, m_x=0.7, m_z=0.7, beta=0.5)
    basis = tilted_basis(2)
    terms = active_terms(model)
    residuals = {
        "alpha": db_checks.alpha_stationarity_residual(
            model, basis, [terms[0], terms[2]]),
        "string": db_checks.string_stationarity_residual(
            model, basis, (1, 0), n=2),
        "insert_remove": db_checks.insert_remove_stationarity_residual(
            model, basis, n_cap=3),
    }
    for kind, residual in residuals.items():
        assert residual < 1e-12, f"{kind} residual {residual:.2e}"
    _announce(9, "stationarity residuals " + ", ".join(
        f"{k}={v:.1e}" for k, v in residuals.items()))


def test_10_byte_identical_outputs(tmp_path):
    args = ["campaign", "--axis", "m_joint", "--grid", "0.5,1.0",
            "--sites", "2", "--sweeps", "2000", "--chains", "2",
            "--seed", "77"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(args + ["--csv", str(first)]) == 0
    assert main(args + ["--csv", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().decode("utf-8").count("\n") == 3
    _announce(10, "two seeded campaign runs produced byte-identical CSV")
