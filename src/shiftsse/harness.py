"""Experiment runner: seeded parallel chains, sweep campaigns, CSV output.

A RunConfig fully determines one simulation: model parameters, basis,
sweep budget, chain count, and master seed. The sweep budget is the
total across chains (chain k receives an equal share and its own rng
stream derived from the master seed by counter), so the default 20,000
sweeps over 4 chains reproduce the standard measurement protocol.
Identical configs give byte-identical outputs.

Campaigns scan one axis (joint shift, x-shift only, size, temperature,
anisotropy) and emit one CSV row per grid point plus a JSON sidecar
recording the full provenance. Grid points that fail validation produce
an error row instead of aborting the campaign.

CLI verbs: run, campaign, ed, contract-check, oracle-check. The flags of
run and campaign, the JSON record and the CSV header all derive from
RUN_OPTIONS and the RunConfig and ResultRecord dataclasses.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ed
from .contraction import contract
from .estimators import N_BINS, energy
from .model import DENSE_SITE_LIMIT, BondTerm, ModelSpec, PauliFlavor, active_terms, term_matrix
from .oracle import ancilla_weight
from .sampler import Configuration, SweepPlan, rng_stream, run_chain
from .statevec import BasisChoice

__all__ = [
    "RunConfig",
    "CampaignSpec",
    "ResultRecord",
    "run",
    "campaign",
    "write_campaign_csv",
    "random_contraction_check",
    "random_weight_equivalence_check",
    "main",
]


# RunConfig field -> (CLI flags, parser of the flag text, role). "model"
# fields are the options of the `ed` verb too; "model" and "record" fields
# are the leading columns of the run record and the campaign CSV, in this
# order.
RUN_OPTIONS = {
    "n_sites": (("--sites",), int, "model"),
    "delta": (("--delta",), float, "model"),
    "m_x": (("--mx",), float, "model"),
    "m_z": (("--mz",), float, "model"),
    "temperature": (("--temperature", "-T"), float, "model"),
    "sweeps": (("--sweeps",), int, "record"),
    "warmup_fraction": (("--warmup-fraction",), float, "record"),
    "chains": (("--chains",), int, "record"),
    "seed": (("--seed",), int, "record"),
    "basis": (("--basis",), str, "record"),
    "plan_alpha": (("--plan-alpha",), int, None),
    "plan_string": (("--plan-string",), int, None),
    "plan_insert": (("--plan-insert",), int, None),
    "workers": (("--workers",), int, None),
}
REPORTED_CONFIG = tuple(name for name, (_, _, role) in RUN_OPTIONS.items() if role)

# campaign axis -> the RunConfig fields one grid value sets
AXES = {
    "m_joint": ("m_x", "m_z"),
    "m_x_only": ("m_x",),
    "size": ("n_sites",),
    "temperature": ("temperature",),
    "anisotropy": ("delta",),
}


@dataclass(frozen=True)
class RunConfig:
    """One simulation: model, basis, sweep protocol, seeding, parallelism.

    The sweep protocol that `run` and `campaign` execute is
    `sweep_plan()`: N lazy label-flip attempts unless `plan_alpha` is
    set, adaptive string replacements unless `plan_string` is set, and N
    insert/remove attempts unless `plan_insert` is set. `SweepPlan.default`
    and the benchmark use 2N label-flip attempts instead.
    """

    n_sites: int = 3
    delta: float = 1.0
    m_x: float = 1.0
    m_z: float = 1.0
    temperature: float = 2.0
    sweeps: int = 20000
    warmup_fraction: float = 0.1
    chains: int = 4
    seed: int = 1
    basis: str = "rotated"
    plan_alpha: int | None = None
    plan_string: int | None = None
    plan_insert: int | None = None
    workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if self.chains < 1:
            raise ValueError(f"need at least one chain, got {self.chains}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup fraction must lie in [0, 1), got {self.warmup_fraction}"
            )
        if self.basis not in ("z", "rotated"):
            raise ValueError(f"basis must be 'z' or 'rotated', got {self.basis!r}")
        if self.sweeps < self.chains:
            raise ValueError("fewer sweeps than chains")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("plan_alpha", "plan_string", "plan_insert"):
            count = getattr(self, name)
            if count is not None and count < 1:
                raise ValueError(f"{name} must be at least 1, got {count}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            n_sites=self.n_sites,
            delta=self.delta,
            m_x=self.m_x,
            m_z=self.m_z,
            beta=self.beta,
        )

    def basis_choice(self) -> BasisChoice:
        return BasisChoice.z_product() if self.basis == "z" else BasisChoice.rotated()

    def sweep_plan(self) -> SweepPlan:
        return SweepPlan(
            alpha_updates=self.plan_alpha if self.plan_alpha is not None else self.n_sites,
            string_updates=self.plan_string,
            insert_remove_updates=(
                self.plan_insert if self.plan_insert is not None else self.n_sites
            ),
        )

    def chain_schedule(self) -> list[tuple[int, int]]:
        """Per-chain (sweeps, warmup_sweeps); the total budget splits evenly."""
        base, rem = divmod(self.sweeps, self.chains)
        schedule = []
        for k in range(self.chains):
            total = base + (1 if k < rem else 0)
            warmup = int(round(self.warmup_fraction * total))
            warmup = min(warmup, total - 1)
            schedule.append((total, warmup))
        return schedule


@dataclass(frozen=True)
class ResultRecord:
    """Merged-chain estimates plus the exact-diagonalization reference."""

    config: RunConfig
    avg_sign: float
    avg_sign_err: float
    energy: float
    energy_err: float
    avg_order: float
    avg_order_err: float
    energy_ed: float
    abs_energy_diff: float
    pct_stderr_vs_ed: float
    reliable: bool

    def as_dict(self) -> dict:
        """Reported config fields, then the results."""
        out = {name: getattr(self.config, name) for name in REPORTED_CONFIG}
        out.update((name, getattr(self, name)) for name in RESULT_FIELDS)
        return out


RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(ResultRecord) if f.name != "config")
CSV_FIELDS = ["axis", "axis_value", *REPORTED_CONFIG, *RESULT_FIELDS, "error"]


def _chain_worker(job: tuple[RunConfig, int]):
    config, k = job
    spec = config.model_spec()
    basis = config.basis_choice()
    plan = config.sweep_plan()
    total, warmup = config.chain_schedule()[k]
    acc, _ = run_chain(spec, basis, plan, rng_stream(config.seed, stream=k),
                       sweeps=total, warmup_sweeps=warmup)
    return acc


def run(config: RunConfig) -> ResultRecord:
    """Execute all chains of a config and merge their estimates.

    The ED reference is computed before sampling, so a point beyond the
    dense site limit fails at once.
    """
    spec = config.model_spec()
    for total, warmup in config.chain_schedule():
        if total - warmup < N_BINS:
            raise ValueError(
                f"each chain must keep at least {N_BINS} samples; "
                f"got {total - warmup} (sweeps={config.sweeps}, chains={config.chains})"
            )
    e_ref = ed.thermal_energy(spec)
    jobs = [(config, k) for k in range(config.chains)]
    if config.workers > 1 and config.chains > 1:
        with ProcessPoolExecutor(max_workers=min(config.workers, config.chains)) as pool:
            accs = list(pool.map(_chain_worker, jobs))
    else:
        accs = [_chain_worker(job) for job in jobs]
    merged = accs[0]
    for extra in accs[1:]:
        merged.absorb(extra)

    energy_est = energy(merged, spec)
    pct = (
        abs(energy_est.stderr / e_ref) * 100.0
        if e_ref != 0.0 and math.isfinite(energy_est.stderr)
        else float("nan")
    )
    return ResultRecord(
        config=config,
        avg_sign=energy_est.sign_value,
        avg_sign_err=energy_est.sign_stderr,
        energy=energy_est.value,
        energy_err=energy_est.stderr,
        avg_order=energy_est.order_value,
        avg_order_err=energy_est.order_stderr,
        energy_ed=e_ref,
        abs_energy_diff=abs(energy_est.value - e_ref),
        pct_stderr_vs_ed=pct,
        reliable=energy_est.reliable,
    )


@dataclass(frozen=True)
class CampaignSpec:
    """One scan axis, its grid, and the base config every point derives from."""

    axis: str
    grid: tuple[float, ...]
    base: RunConfig

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {tuple(AXES)}, got {self.axis!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be non-empty")
        for value in self.grid:
            if not math.isfinite(value):
                raise ValueError(f"grid values must be finite, got {value}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")


def apply_axis(base: RunConfig, axis: str, value: float) -> RunConfig:
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    if axis == "size":
        if value != int(value):
            raise ValueError(f"size grid values must be integers, got {value}")
        value = int(value)
    return dataclasses.replace(base, **dict.fromkeys(AXES[axis], value))


def campaign(spec: CampaignSpec) -> list[dict]:
    """Run every grid point; failures become error rows, not aborts."""
    rows = []
    for value in spec.grid:
        row = {field: "" for field in CSV_FIELDS}
        row["axis"] = spec.axis
        row["axis_value"] = value
        try:
            point = apply_axis(spec.base, spec.axis, value)
            record = run(point)
            row.update(record.as_dict())
        except ValueError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    """`value` with None (JSON null) for each non-finite float in it or its dicts."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_campaign_csv(rows: list[dict], path: Path, spec: CampaignSpec) -> None:
    """CSV table plus a JSON sidecar with full provenance."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([_format_cell(row[field]) for field in CSV_FIELDS])
    sidecar = {
        "schema": CSV_FIELDS,
        "axis": spec.axis,
        "grid": list(spec.grid),
        "base_config": dataclasses.asdict(spec.base),
        "git_revision": _git_revision(),
        "rows": len(rows),
    }
    Path(str(path) + ".meta.json").write_text(
        json.dumps(_json_safe(sidecar), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


# ---------------------------------------------------------------------------
# Randomized self-checks (also exposed as CLI verbs)

# Maximum deviation at which contract-check and oracle-check pass.
CHECK_TOLERANCE = 1e-10
# Longest string random_contraction_check draws.
CONTRACTION_MAX_LEN = 8
# System plus ancilla qubits bounding random_weight_equivalence_check's registers.
ORACLE_QUBIT_BUDGET = 12


def random_bond_term(rng: np.random.Generator, n_sites: int) -> BondTerm:
    """Random term with mixed shifts; shift lands exactly on 1 half the time."""
    flavor = PauliFlavor.ZZ if rng.random() < 0.5 else PauliFlavor.XX
    shift = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 2.5))
    coupling = float(rng.uniform(0.25, 1.5))
    sign = -1 if rng.random() < 0.5 else 1
    return BondTerm(int(rng.integers(n_sites)), flavor, coupling, shift, sign)


def _dense_product(string: list[BondTerm], n_sites: int) -> np.ndarray:
    out = np.eye(2 ** n_sites)
    for term in string:
        out = term_matrix(term, n_sites) @ out
    return out


def random_contraction_check(count: int, seed: int, max_sites: int = 4) -> float:
    """Max relative deviation of prefactor*contracted vs original products."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 2 <= max_sites <= DENSE_SITE_LIMIT:
        raise ValueError(f"max_sites must lie in [2, {DENSE_SITE_LIMIT}], got {max_sites}")
    rng = rng_stream(seed)
    worst = 0.0
    for _ in range(count):
        n_sites = int(rng.integers(2, max_sites + 1))
        length = int(rng.integers(0, CONTRACTION_MAX_LEN + 1))
        string = [random_bond_term(rng, n_sites) for _ in range(length)]
        original = _dense_product(string, n_sites)
        reduced = contract(string, n_sites)
        rebuilt = reduced.prefactor * _dense_product(reduced.terms, n_sites)
        scale = max(1.0, float(np.max(np.abs(original))))
        worst = max(worst, float(np.max(np.abs(rebuilt - original))) / scale)
    return worst


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_basis(rng: np.random.Generator, n_sites: int) -> BasisChoice:
    pick = rng.random()
    if pick < 0.3:
        return BasisChoice.z_product()
    if pick < 0.6:
        return BasisChoice.rotated()
    return BasisChoice.rotated([_random_unitary(rng) for _ in range(n_sites)])


def random_weight_equivalence_check(count: int, seed: int) -> float:
    """Max relative deviation between configuration and ancilla-register weights."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = rng_stream(seed)
    worst = 0.0
    for _ in range(count):
        n_sites = int(rng.integers(2, 6))
        delta = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 1.0))
        spec = ModelSpec(
            n_sites=n_sites,
            delta=delta,
            m_x=float(rng.uniform(0.3, 2.5)),
            m_z=float(rng.uniform(0.3, 2.5)),
            beta=float(rng.uniform(0.1, 2.0)),
        )
        terms = active_terms(spec)
        length = int(rng.integers(0, ORACLE_QUBIT_BUDGET - n_sites + 1))
        string = [terms[int(rng.integers(len(terms)))] for _ in range(length)]
        alpha = tuple(int(b) for b in rng.integers(0, 2, size=n_sites))
        basis = _random_basis(rng, n_sites)
        config = Configuration(alpha, string, spec, basis)
        direct = config.weight_value
        register = ancilla_weight(config, spec, basis)
        dev = abs(direct - register) / max(1.0, abs(direct), abs(register))
        worst = max(worst, dev)
    return worst


# ---------------------------------------------------------------------------
# CLI

def _add_run_options(p: argparse.ArgumentParser) -> None:
    for name, (flags, parse, _) in RUN_OPTIONS.items():
        p.add_argument(*flags, dest=name, type=parse)


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{name: getattr(args, name) for name in RUN_OPTIONS
                        if getattr(args, name) is not None})


def _output_path(text: str, what: str) -> Path:
    """A file path (not a directory) in an existing directory, checked before sampling."""
    path = Path(text)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"{what} directory does not exist: {path.parent}")
    if path.is_dir():
        raise IsADirectoryError(f"{what} path is a directory: {path}")
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_run_config(args)
    output = _output_path(args.output, "output") if args.output else None
    payload = json.dumps(_json_safe(run(config).as_dict()), indent=2, allow_nan=False)
    print(payload)
    if output:
        output.write_text(payload + "\n", encoding="utf-8")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    base = _build_run_config(args)
    grid = tuple(float(v) for v in args.grid.split(","))
    spec = CampaignSpec(axis=args.axis, grid=grid, base=base)
    csv_path = _output_path(args.csv, "CSV")
    _output_path(args.csv + ".meta.json", "CSV sidecar")
    rows = campaign(spec)
    write_campaign_csv(rows, csv_path, spec)
    failures = sum(1 for row in rows if row["error"])
    print(f"wrote {len(rows)} rows to {args.csv} ({failures} failed points)")
    return 0


def _cmd_ed(args: argparse.Namespace) -> int:
    options = {k: v for k, v in vars(args).items() if k in RUN_OPTIONS}
    spec = RunConfig(**options).model_spec()
    value = ed.thermal_energy(spec)
    print(f"thermal_energy={value!r}")
    print(f"energy_offset={spec.energy_offset!r}")
    if args.spectrum:
        for ev in ed.spectrum(spec):
            print(repr(float(ev)))
    return 0


def _cmd_contract_check(args: argparse.Namespace) -> int:
    worst = random_contraction_check(args.count, args.seed, max_sites=args.max_sites)
    ok = worst <= CHECK_TOLERANCE
    print(f"contract-check: {args.count} strings, max deviation {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {CHECK_TOLERANCE:g})")
    return 0 if ok else 1


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    worst = random_weight_equivalence_check(args.count, args.seed)
    ok = worst <= CHECK_TOLERANCE
    print(f"oracle-check: {args.count} configurations, max deviation {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {CHECK_TOLERANCE:g})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftsse",
        description="Shifted-term series-expansion Monte Carlo for the anisotropic XY chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation, JSON result")
    _add_run_options(p_run)
    p_run.add_argument("--output", help="also write the JSON record here")
    p_run.set_defaults(func=_cmd_run)

    p_camp = sub.add_parser("campaign", help="scan one axis, CSV output")
    _add_run_options(p_camp)
    p_camp.add_argument("--axis", required=True, choices=AXES)
    p_camp.add_argument("--grid", required=True,
                        help="comma-separated, strictly increasing values")
    p_camp.add_argument("--csv", required=True, help="output CSV path")
    p_camp.set_defaults(func=_cmd_campaign)

    p_ed = sub.add_parser("ed", help="exact-diagonalization reference")
    for name, (flags, parse, role) in RUN_OPTIONS.items():
        if role == "model":
            p_ed.add_argument(*flags, dest=name, type=parse, required=name == "n_sites",
                              default=getattr(RunConfig, name))
    p_ed.add_argument("--spectrum", action="store_true", help="print all eigenvalues")
    p_ed.set_defaults(func=_cmd_ed)

    p_cc = sub.add_parser("contract-check", help="randomized contraction exactness")
    p_cc.add_argument("--count", type=int, default=1000)
    p_cc.add_argument("--seed", type=int, default=7)
    p_cc.add_argument("--max-sites", type=int, default=7)
    p_cc.set_defaults(func=_cmd_contract_check)

    p_oc = sub.add_parser("oracle-check", help="direct vs ancilla-register weights")
    p_oc.add_argument("--count", type=int, default=500)
    p_oc.add_argument("--seed", type=int, default=11)
    p_oc.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
