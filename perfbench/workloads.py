"""The benchmark's workloads: inputs, entry calls, checks and digests.

Each workload is built from the master seed and a repetition stream, runs
through the package's public entry points (``sampler.run_chain``,
``harness.run``, ``harness.campaign``), and returns outputs that the
checks and the determinism digest read after the timed region.

Every workload pins the documented sweep protocol explicitly: 2N lazy
label-flip attempts, adaptive string replacements and N insert/remove
attempts per sweep. The chain workload uses ``SweepPlan.default``; the
harness workloads pass ``plan_alpha``/``plan_insert`` so that a change
of ``RunConfig``'s own defaults cannot silently change the work.

``oracle`` is reference code: the checks use it, nothing times it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shiftsse import estimators, harness, model, oracle, sampler, statevec

# Energies must lie within this many jackknife sigmas of the exact
# reference. Deliberately loose: the 20-bin error of a short correlated
# chain underestimates the true error, and the check exists to catch
# wrong physics (offset, sign, weights), not to test statistics.
ENERGY_SIGMAS = 6.0
WEIGHT_RTOL = 1e-10
ED_RTOL = 1e-9
ORACLE_QUBIT_LIMIT = 16


def exact_energy(spec: model.ModelSpec) -> float:
    """Thermal energy from numpy's eigvalsh, independent of ``shiftsse.ed``."""
    vals = np.linalg.eigvalsh(model.dense_hamiltonian(spec))
    weights = np.exp(-spec.beta * (vals - vals[0]))
    return float(np.sum(vals * weights) / np.sum(weights))


def dense_weight(config: sampler.Configuration, spec: model.ModelSpec,
                 basis: statevec.BasisChoice) -> float:
    """beta^n/n! Re <alpha| H_n...H_1 |alpha> from dense ``term_matrix`` products."""
    n_sites = spec.n_sites
    psi = statevec.prepare(config.alpha, basis).amps
    product = np.eye(2 ** n_sites, dtype=complex)
    for term in config.string:
        product = model.term_matrix(term, n_sites) @ product
    n = len(config.string)
    return spec.beta ** n / math.factorial(n) * float(np.vdot(psi, product @ psi).real)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def estimate_failures(sign: float, energy: float, energy_err: float,
                      reference: float) -> list[str]:
    """Sign in (0, 1] and energy within ENERGY_SIGMAS of the exact reference."""
    problems = []
    if not 0.0 < sign <= 1.0:
        problems.append(f"avg_sign {sign!r} outside (0, 1]")
    if not (math.isfinite(energy) and math.isfinite(energy_err) and energy_err > 0.0):
        problems.append(f"energy {energy!r} +- {energy_err!r} not finite")
    elif abs(energy - reference) > ENERGY_SIGMAS * energy_err:
        problems.append(f"energy {energy!r} +- {energy_err!r} is more than "
                        f"{ENERGY_SIGMAS:g} sigma from exact {reference!r}")
    return problems


def record_failures(rec: dict) -> list[str]:
    """Checks on one harness result (a ResultRecord dict or a campaign row)."""
    if rec.get("error"):
        return [f"error row: {rec['error']}"]
    spec = model.ModelSpec(rec["n_sites"], rec["delta"], rec["m_x"], rec["m_z"],
                           1.0 / rec["temperature"])
    reference = exact_energy(spec)
    problems = estimate_failures(rec["avg_sign"], rec["energy"], rec["energy_err"],
                                 reference)
    if relative_gap(rec["energy_ed"], reference) > ED_RTOL:
        problems.append(f"ed.thermal_energy {rec['energy_ed']!r} differs from "
                        f"eigvalsh {reference!r}")
    return problems


def digest(payload) -> str:
    """sha256 of the canonical JSON of a workload's seeded outputs."""
    if isinstance(payload, bytes):
        return hashlib.sha256(payload).hexdigest()
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rep_seed(seed: int, stream: int) -> int:
    """Master seed of one repetition; repetitions of one run differ by stream."""
    return seed * 1000 + stream


def run_config(n_sites: int, temperature: float, m: float, sweeps: int,
               seed: int) -> harness.RunConfig:
    return harness.RunConfig(
        n_sites=n_sites, delta=1.0, m_x=m, m_z=m, temperature=temperature,
        sweeps=sweeps, chains=4, seed=seed, basis="rotated",
        plan_alpha=2 * n_sites, plan_string=None, plan_insert=n_sites, workers=1,
    )


def plan_dict(plan: sampler.SweepPlan) -> dict:
    return {"alpha_updates": plan.alpha_updates, "string_updates": plan.string_updates,
            "insert_remove_updates": plan.insert_remove_updates}


@dataclass
class Outcome:
    """Failed operations, what failed, and the determinism digest of one repetition."""

    failed: int
    problems: list[str]
    digest: str


class ChainJob:
    """chain_n7_long: one chain through ``sampler.run_chain``, then ``energy``."""

    operations = 1

    def __init__(self, seed: int, stream: int, tiny: bool):
        n_sites, self.sweeps = (3, 300) if tiny else (7, 400)
        self.warmup = self.sweeps // 10
        self.spec = model.ModelSpec(n_sites=n_sites, delta=1.0, m_x=1.0, m_z=1.0, beta=1.0)
        self.basis = statevec.BasisChoice.z_product()
        self.plan = sampler.SweepPlan.default(n_sites)
        self.seed = rep_seed(seed, stream)

    def describe(self) -> dict:
        return {"n_sites": self.spec.n_sites, "temperature": 1.0 / self.spec.beta,
                "basis": "z", "sweeps": self.sweeps, "warmup_sweeps": self.warmup,
                "seed": self.seed, "plan": plan_dict(self.plan)}

    def execute(self, out_dir: Path):
        acc, config = sampler.run_chain(
            self.spec, self.basis, self.plan, sampler.rng_stream(self.seed),
            sweeps=self.sweeps, warmup_sweeps=self.warmup,
        )
        return estimators.energy(acc, self.spec), config

    def check(self, outputs) -> Outcome:
        est, config = outputs
        problems = estimate_failures(est.sign_value, est.value, est.stderr,
                                     exact_energy(self.spec))
        dense = dense_weight(config, self.spec, self.basis)
        if relative_gap(config.weight_value, dense) > WEIGHT_RTOL:
            problems.append(f"cached weight {config.weight_value!r} != dense {dense!r}")
        if self.spec.n_sites + config.order <= ORACLE_QUBIT_LIMIT:
            register = oracle.ancilla_weight(config, self.spec, self.basis)
            if relative_gap(config.weight_value, register) > WEIGHT_RTOL:
                problems.append(f"cached weight {config.weight_value!r} != "
                                f"ancilla oracle {register!r}")
        seeded = {"avg_sign": est.sign_value, "avg_sign_err": est.sign_stderr,
                  "energy": est.value, "energy_err": est.stderr,
                  "avg_order": est.order_value, "avg_order_err": est.order_stderr,
                  "final_order": config.order}
        return Outcome(int(bool(problems)), problems, digest(seeded))


class RunJob:
    """run_n3_std: ``harness.run`` at the headline point N = 3, T = 2."""

    operations = 1

    def __init__(self, seed: int, stream: int, tiny: bool):
        self.config = run_config(3, 2.0, 1.0, 400 if tiny else 20000, rep_seed(seed, stream))
        self.config.model_spec()
        self.config.basis_choice()
        self.plan = self.config.sweep_plan()
        self.sweeps = self.config.sweeps

    def describe(self) -> dict:
        return {"n_sites": 3, "temperature": 2.0, "basis": "rotated",
                "sweeps": self.sweeps, "chains": self.config.chains,
                "seed": self.config.seed, "plan": plan_dict(self.plan)}

    def execute(self, out_dir: Path):
        return harness.run(self.config).as_dict()

    def check(self, record: dict) -> Outcome:
        seeded = {k: record[k] for k in ("avg_sign", "avg_sign_err", "energy",
                                         "energy_err", "avg_order", "avg_order_err")}
        problems = record_failures(record)
        return Outcome(int(bool(problems)), problems, digest(seeded))


class CampaignJob:
    """campaign_n8_mscan: ``harness.campaign`` over m_joint in (0.5, 1.0) at
    N = 8, T = 2, then ``harness.write_campaign_csv``."""

    def __init__(self, seed: int, stream: int, tiny: bool):
        n_sites, sweeps = (3, 400) if tiny else (8, 400)
        base = run_config(n_sites, 2.0, 1.0, sweeps, rep_seed(seed, stream))
        self.spec = harness.CampaignSpec(axis="m_joint", grid=(0.5, 1.0), base=base)
        base.model_spec()
        base.basis_choice()
        self.plan = base.sweep_plan()
        self.operations = len(self.spec.grid)
        self.sweeps = sweeps * self.operations
        self.csv_name = f"campaign-seed{seed}-stream{stream}.csv"

    def describe(self) -> dict:
        base = self.spec.base
        return {"n_sites": base.n_sites, "temperature": base.temperature,
                "basis": "rotated", "axis": self.spec.axis, "grid": list(self.spec.grid),
                "sweeps_per_point": base.sweeps, "chains": base.chains,
                "seed": base.seed, "plan": plan_dict(self.plan)}

    def execute(self, out_dir: Path):
        rows = harness.campaign(self.spec)
        path = out_dir / self.csv_name
        harness.write_campaign_csv(rows, path, self.spec)
        return rows, path

    def check(self, outputs) -> Outcome:
        rows, path = outputs
        per_row = [record_failures(row) for row in rows]
        problems = [f"m_joint={row['axis_value']}: {p}"
                    for row, found in zip(rows, per_row) for p in found]
        failed = sum(1 for found in per_row if found)
        if len(rows) != self.operations:
            problems.append(f"{len(rows)} rows for {self.operations} grid points")
            failed = self.operations
        return Outcome(failed, problems, digest(path.read_bytes()))


WORKLOADS = {
    "chain_n7_long": ChainJob,
    "run_n3_std": RunJob,
    "campaign_n8_mscan": CampaignJob,
}
