import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftsse
from shiftsse import ed
from shiftsse.harness import (
    RUN_OPTIONS,
    CampaignSpec,
    RunConfig,
    _build_run_config,
    _git_revision,
    apply_axis,
    build_parser,
    campaign,
    main,
    run,
    write_campaign_csv,
)
from shiftsse.sampler import SweepPlan

FAST = dict(n_sites=2, temperature=2.0, sweeps=1200, chains=2, seed=5)

# The campaign CSV header, as documented in the README "CSV schema" section.
CSV_HEADER = [
    "axis", "axis_value", "n_sites", "delta", "m_x", "m_z", "temperature",
    "sweeps", "warmup_fraction", "chains", "seed", "basis", "avg_sign",
    "avg_sign_err", "energy", "energy_err", "avg_order", "avg_order_err",
    "energy_ed", "abs_energy_diff", "pct_stderr_vs_ed", "reliable", "error",
]

# A sign-afflicted point too short for binned error bars: energy_err,
# avg_order_err and pct_stderr_vs_ed come out NaN and reliable is false.
UNDEFINED_ERRORS = ["--sites", "3", "--mx", "0.1", "--mz", "0.1", "-T", "1", "--sweeps", "200",
                    "--chains", "1", "--seed", "0", "--warmup-fraction", "0"]
UNDEFINED_FIELDS = ("energy_err", "avg_order_err", "pct_stderr_vs_ed")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are errors."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


# One non-default value per RunConfig field: the value and its flag.
FIELD_SAMPLES = {
    "n_sites": (4, ["--sites", "4"]),
    "delta": (0.5, ["--delta", "0.5"]),
    "m_x": (0.75, ["--mx", "0.75"]),
    "m_z": (1.25, ["--mz", "1.25"]),
    "temperature": (1.5, ["--temperature", "1.5"]),
    "sweeps": (3000, ["--sweeps", "3000"]),
    "warmup_fraction": (0.2, ["--warmup-fraction", "0.2"]),
    "chains": (3, ["--chains", "3"]),
    "seed": (12, ["--seed", "12"]),
    "basis": ("z", ["--basis", "z"]),
    "plan_alpha": (6, ["--plan-alpha", "6"]),
    "plan_string": (2, ["--plan-string", "2"]),
    "plan_insert": (5, ["--plan-insert", "5"]),
    "workers": (2, ["--workers", "2"]),
}


class TestRunConfig:
    def test_beta_from_temperature(self):
        assert RunConfig(temperature=2.0).beta == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(temperature=0.0)
        with pytest.raises(ValueError):
            RunConfig(chains=0)
        with pytest.raises(ValueError):
            RunConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            RunConfig(basis="bell")
        with pytest.raises(ValueError):
            RunConfig(sweeps=2, chains=4)
        for name in ("plan_alpha", "plan_string", "plan_insert"):
            for count in (0, -2):
                with pytest.raises(ValueError, match=f"{name} must be at least 1"):
                    RunConfig(**{name: count})
            RunConfig(**{name: 1})

    def test_chain_schedule_splits_budget(self):
        cfg = RunConfig(sweeps=10001, chains=4, warmup_fraction=0.1)
        schedule = cfg.chain_schedule()
        assert sum(total for total, _ in schedule) == 10001
        assert all(warmup < total for total, warmup in schedule)

    def test_default_sweep_plan_is_n_label_flip_attempts(self):
        assert RunConfig(n_sites=5).sweep_plan() == SweepPlan(5, None, 5)


class TestRun:
    def test_deterministic_records(self):
        rec1 = run(RunConfig(**FAST))
        rec2 = run(RunConfig(**FAST))
        assert rec1.as_dict() == rec2.as_dict()
        rec3 = run(RunConfig(**{**FAST, "seed": 6}))
        assert rec3.as_dict() != rec1.as_dict()

    def test_sign_free_run_is_exactly_one(self):
        rec = run(RunConfig(n_sites=3, delta=0.0, temperature=2.0,
                            sweeps=2000, chains=2, seed=8))
        assert rec.avg_sign == 1.0
        assert rec.avg_sign_err == 0.0
        assert rec.reliable

    def test_parallel_matches_serial(self):
        serial = run(RunConfig(**FAST, workers=1))
        parallel = run(RunConfig(**FAST, workers=2))
        assert serial.as_dict() == parallel.as_dict()

    def test_workers_capped_at_chain_count(self, monkeypatch):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        record = run(RunConfig(**FAST, workers=8))
        assert asked == [FAST["chains"]]
        assert record.as_dict() == run(RunConfig(**FAST)).as_dict()

    def test_insufficient_samples_per_bin(self):
        with pytest.raises(ValueError):
            run(RunConfig(n_sites=2, sweeps=30, chains=2, seed=1))

    def test_dense_limit_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a point that has no ED reference")
        monkeypatch.setattr("shiftsse.harness.run_chain", no_sampling)
        with pytest.raises(ValueError, match="dense form limited to 12 sites"):
            run(RunConfig(n_sites=13, sweeps=400, chains=2, seed=1))

    def test_pct_stderr_is_error_over_reference(self):
        record = run(RunConfig(**FAST)).as_dict()
        assert record["energy_ed"] != 0.0
        expect = abs(record["energy_err"] / record["energy_ed"]) * 100.0
        assert record["pct_stderr_vs_ed"] == expect

    def test_nan_stderr_gives_nan_pct(self, monkeypatch):
        honest = shiftsse.harness.energy

        def nan_stderr(acc, spec):
            return dataclasses.replace(honest(acc, spec), stderr=float("nan"))
        monkeypatch.setattr("shiftsse.harness.energy", nan_stderr)
        assert math.isnan(run(RunConfig(**FAST)).pct_stderr_vs_ed)


class TestRecordSchema:
    def test_record_key_order_and_basis_label(self):
        rec = run(RunConfig(**{**FAST, "n_sites": 3}))
        record = rec.as_dict()
        assert list(record) == CSV_HEADER[2:-1]
        assert record["basis"] == "rotated"
        assert record["n_sites"] == 3 and record["seed"] == FAST["seed"]
        assert record["avg_sign"] == rec.avg_sign
        assert run(RunConfig(**FAST, basis="z")).as_dict()["basis"] == "z"


class TestCampaign:
    def test_error_rows_do_not_abort(self):
        spec = CampaignSpec(
            axis="anisotropy",
            grid=(0.5, 1.0, 1.5),  # 1.5 is outside the model's range
            base=RunConfig(**FAST),
        )
        rows = campaign(spec)
        assert len(rows) == 3
        assert rows[0]["error"] == "" and rows[0]["avg_sign"] != ""
        assert rows[2]["error"] != ""

    def test_axis_application(self):
        base = RunConfig(**FAST)
        assert apply_axis(base, "m_joint", 2.0).m_x == 2.0
        assert apply_axis(base, "m_joint", 2.0).m_z == 2.0
        assert apply_axis(base, "m_x_only", 2.0).m_z == base.m_z
        assert apply_axis(base, "size", 4).n_sites == 4
        assert apply_axis(base, "temperature", 1.0).temperature == 1.0
        assert apply_axis(base, "anisotropy", 0.3).delta == 0.3
        with pytest.raises(ValueError):
            apply_axis(base, "size", 2.5)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(axis="m_joint", grid=(), base=RunConfig(**FAST))
        with pytest.raises(ValueError):
            CampaignSpec(axis="m_joint", grid=(1.0, 0.5), base=RunConfig(**FAST))
        with pytest.raises(ValueError):
            CampaignSpec(axis="shift", grid=(1.0,), base=RunConfig(**FAST))

    def test_csv_schema_and_determinism(self, tmp_path):
        spec = CampaignSpec(axis="m_joint", grid=(0.5, 1.0), base=RunConfig(**FAST))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_campaign_csv(campaign(spec), p1, spec)
        write_campaign_csv(campaign(spec), p2, spec)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert sidecar["axis"] == "m_joint"
        assert sidecar["base_config"]["seed"] == FAST["seed"]
        assert sidecar["rows"] == 2

    def test_csv_cells_for_undefined_errors_and_booleans(self, tmp_path, capsys):
        csv_path = tmp_path / "undefined.csv"
        assert main(["campaign", "--axis", "m_joint", "--grid", "0.1", *UNDEFINED_ERRORS,
                     "--csv", str(csv_path)]) == 0
        with csv_path.open(newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert [row[name] for name in UNDEFINED_FIELDS] == ["nan", "nan", "nan"]
        assert row["reliable"] == "false"
        strict_json((tmp_path / "undefined.csv.meta.json").read_text(encoding="utf-8"))

    def test_git_timeout_still_writes_sidecar(self, tmp_path, monkeypatch):
        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
        spec = CampaignSpec(axis="m_joint", grid=(1.0,), base=RunConfig(**FAST))
        rows = campaign(spec)
        monkeypatch.setattr("subprocess.run", hang)
        write_campaign_csv(rows, tmp_path / "a.csv", spec)
        sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert sidecar["git_revision"] == "unknown"

    def test_git_revision_marks_uncommitted_changes(self, tmp_path, monkeypatch):
        git = ["git", "-C", str(tmp_path), "-c", "user.name=test", "-c",
               "user.email=test@example.invalid", "-c", "commit.gpgsign=false"]
        (tmp_path / "tracked.txt").write_text("committed\n")
        for args in (["init", "-q"], ["add", "tracked.txt"], ["commit", "-q", "-m", "one"]):
            subprocess.run([*git, *args], check=True, capture_output=True)
        head = subprocess.run([*git, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        # _git_revision asks git about the directory its module lives in
        monkeypatch.setattr("shiftsse.harness.__file__", str(tmp_path / "harness.py"))
        assert _git_revision() == head
        (tmp_path / "tracked.txt").write_text("changed\n")
        assert _git_revision() == head + "-dirty"


class TestConfigFile:
    """The flags of run and campaign: one per RunConfig field."""

    def test_option_table_covers_run_config(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(RUN_OPTIONS) == fields
        assert set(FIELD_SAMPLES) == fields

    @pytest.mark.parametrize("field", sorted(FIELD_SAMPLES))
    def test_config_line_and_flag_agree(self, field):
        value, flag = FIELD_SAMPLES[field]
        from_flag = _build_run_config(build_parser().parse_args(["run", *flag]))
        assert from_flag == RunConfig(**{field: value})
        assert value != getattr(RunConfig(), field)


class TestCli:
    def test_run_verb(self, capsys):
        code = main(["run", "--sites", "2", "--sweeps", "1000", "--chains", "2",
                     "--seed", "4", "--delta", "0.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_sign"] == 1.0

    def test_validation_failure_exit_code(self, capsys):
        code = main(["run", "--sites", "2", "--temperature", "-1"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_bad_plan_fails_before_sampling(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("ran a point whose sweep plan is invalid")
        monkeypatch.setattr("shiftsse.harness.run_chain", no_work)
        monkeypatch.setattr("shiftsse.harness.ed.thermal_energy", no_work)
        assert main(["run", "--sites", "3", "--sweeps", "400", "--chains", "2",
                     "--plan-alpha", "-2"]) == 2
        assert "error: plan_alpha must be at least 1, got -2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--mx", "nan"], "m_x must be finite, got nan"),
        (["--mz", "inf"], "m_z must be finite, got inf"),
        (["-T", "nan"], "temperature must be positive and finite, got nan"),
        (["-T", "inf"], "temperature must be positive and finite, got inf"),
    ], ids=["mx-nan", "mz-inf", "T-nan", "T-inf"])
    def test_non_finite_model_fails_before_sampling(self, monkeypatch, capsys,
                                                    flags, message):
        def no_work(*args, **kwargs):
            raise AssertionError("ran a point with a non-finite parameter")
        monkeypatch.setattr("shiftsse.harness.run_chain", no_work)
        monkeypatch.setattr("shiftsse.harness.ed.thermal_energy", no_work)
        assert main(["run", "--sites", "2", "--sweeps", "400", "--chains", "2",
                     *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_output_directory_fails_before_sampling(self, tmp_path, monkeypatch,
                                                            capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("sampled a run whose record cannot be written")
        monkeypatch.setattr("shiftsse.harness.run_chain", no_work)
        monkeypatch.setattr("shiftsse.harness.ed.thermal_energy", no_work)
        out_path = tmp_path / "no" / "such" / "x.json"
        assert main(["run", "--sites", "2", "--sweeps", "1000", "--chains", "2",
                     "--output", str(out_path)]) == 2
        assert "error: output directory does not exist" in capsys.readouterr().err
        assert not out_path.parent.exists()

    def test_run_json_writes_null_for_undefined_errors(self, tmp_path, capsys):
        out_path = tmp_path / "record.json"
        assert main(["run", *UNDEFINED_ERRORS, "--output", str(out_path)]) == 0
        for text in (capsys.readouterr().out, out_path.read_text(encoding="utf-8")):
            record = strict_json(text)
            assert [record[name] for name in UNDEFINED_FIELDS] == [None, None, None]
            assert record["reliable"] is False and math.isfinite(record["energy"])

    def test_campaign_sidecar_writes_null_for_non_finite_base(self, tmp_path, capsys):
        csv_path = tmp_path / "x.csv"
        assert main(["campaign", "--axis", "m_joint", "--grid", "0.5,1.0", "--mx", "nan",
                     "--sites", "3", "--sweeps", "2000", "--chains", "2", "--seed", "4",
                     "--csv", str(csv_path)]) == 0
        sidecar = strict_json((tmp_path / "x.csv.meta.json").read_text(encoding="utf-8"))
        assert sidecar["base_config"]["m_x"] is None

    @pytest.mark.parametrize("argv, target, what", [
        (["run", "--sites", "3", "--output", "{dir}"], "{dir}", "output"),
        (["campaign", "--axis", "m_joint", "--grid", "0.5,1.0", "--csv", "{dir}"],
         "{dir}", "CSV"),
        (["campaign", "--axis", "m_joint", "--grid", "0.5,1.0", "--csv", "{tmp}/x.csv"],
         "{tmp}/x.csv.meta.json", "CSV sidecar"),
    ], ids=["run-output", "campaign-csv", "campaign-sidecar"])
    def test_directory_as_output_fails_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                       argv, target, what):
        def no_work(*args, **kwargs):
            raise AssertionError("sampled a point whose output path is a directory")
        monkeypatch.setattr("shiftsse.harness.run_chain", no_work)
        monkeypatch.setattr("shiftsse.harness.ed.thermal_energy", no_work)
        names = {"dir": tmp_path / "taken", "tmp": tmp_path}
        target = Path(target.format(**names))
        target.mkdir()
        assert main([arg.format(**names) for arg in argv]) == 2
        assert f"error: {what} path is a directory: {target}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_failed_output_write_keeps_record_on_stdout(self, tmp_path, monkeypatch, capsys):
        def disk_full(self, *args, **kwargs):
            raise OSError(f"No space left on device: {self}")
        monkeypatch.setattr(Path, "write_text", disk_full)
        out_path = tmp_path / "record.json"
        assert main(["run", "--sites", "2", "--sweeps", "1000", "--chains", "2", "--seed", "4",
                     "--output", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "error: No space left on device" in captured.err
        assert strict_json(captured.out)["n_sites"] == 2
        assert not out_path.exists()

    def test_missing_csv_directory_fails_before_sampling(self, tmp_path, monkeypatch,
                                                         capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("sampled a campaign whose CSV cannot be written")
        monkeypatch.setattr("shiftsse.harness.run_chain", no_work)
        monkeypatch.setattr("shiftsse.harness.ed.thermal_energy", no_work)
        csv_path = tmp_path / "no" / "such" / "x.csv"
        assert main(["campaign", "--axis", "m_joint", "--grid", "0.5,1.0",
                     "--csv", str(csv_path), "--sites", "2"]) == 2
        assert "error: CSV directory does not exist" in capsys.readouterr().err
        assert not csv_path.parent.exists()

    @pytest.mark.parametrize("axis, grid, value", [
        ("size", "3,inf", "inf"),
        ("m_joint", "1.0,nan,0.5", "nan"),
    ], ids=["size-inf", "m-nan"])
    def test_non_finite_grid_fails_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                   axis, grid, value):
        def no_work(*args, **kwargs):
            raise AssertionError("ran a campaign whose grid is not finite")
        monkeypatch.setattr("shiftsse.harness.run_chain", no_work)
        monkeypatch.setattr("shiftsse.harness.ed.thermal_energy", no_work)
        csv_path = tmp_path / "grid.csv"
        assert main(["campaign", "--axis", axis, "--grid", grid, "--sweeps", "200",
                     "--chains", "2", "--csv", str(csv_path)]) == 2
        assert f"error: grid values must be finite, got {value}" in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--sites", "3", "--sweeps", "200", "--chains", "2"],
        ["campaign", "--axis", "m_joint", "--grid", "0.5,1.0", "--sites", "2",
         "--sweeps", "200", "--chains", "2", "--csv", "{tmp}/seed.csv"],
        ["contract-check", "--count", "5"],
        ["oracle-check", "--count", "5"],
    ], ids=["run", "campaign", "contract-check", "oracle-check"])
    def test_negative_seed_fails_before_any_work(self, tmp_path, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("worked with a negative seed")
        for name in ("run_chain", "ed.thermal_energy", "random_bond_term", "contract",
                     "ancilla_weight"):
            monkeypatch.setattr(f"shiftsse.harness.{name}", no_work)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([*argv, "--seed", "-1"]) == 2
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "seed.csv").exists()

    def test_python_dash_m_runs_cli(self):
        src = str(Path(shiftsse.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "shiftsse", "ed", "--sites", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("thermal_energy=")

    def test_ed_verb(self, capsys):
        code = main(["ed", "--sites", "2", "--delta", "1.0", "-T", "2.0",
                     "--spectrum"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("thermal_energy=")
        eigenvalues = [float(v) for v in lines[2:]]
        np.testing.assert_allclose(eigenvalues, [-4.0, 0.0, 0.0, 4.0], atol=1e-10)

    def test_ed_verb_defaults_follow_run_config(self, capsys):
        assert main(["ed", "--sites", "3"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        expect = ed.thermal_energy(RunConfig(n_sites=3).model_spec())
        assert first == f"thermal_energy={expect!r}"

    def test_ed_verb_rejects_zero_temperature(self, capsys):
        assert main(["ed", "--sites", "3", "-T", "0"]) == 2
        assert "error: temperature must be positive" in capsys.readouterr().err

    def test_ed_verb_rejects_non_finite_shift(self, capsys):
        assert main(["ed", "--sites", "2", "--mz", "inf"]) == 2
        assert "error: m_z must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["contract-check", "--count", "-5"], "count must be at least 1, got -5"),
        (["contract-check", "--count", "0"], "count must be at least 1, got 0"),
        (["oracle-check", "--count", "0"], "count must be at least 1, got 0"),
        (["oracle-check", "--count", "-5"], "count must be at least 1, got -5"),
    ], ids=["contract-count-neg", "contract-count-0", "oracle-count-0", "oracle-count-neg"])
    def test_self_checks_reject_empty_or_oversized_ranges(self, monkeypatch, capsys,
                                                          argv, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a sample for an invalid check")
        monkeypatch.setattr("shiftsse.harness.rng_stream", no_draw)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("verb, check", [
        ("contract-check", "random_contraction_check"),
        ("oracle-check", "random_weight_equivalence_check"),
    ])
    def test_self_checks_fail_above_fixed_tolerance(self, monkeypatch, capsys, verb, check):
        for worst, code, verdict in ((1e-10, 0, "PASS"), (2e-10, 1, "FAIL")):
            monkeypatch.setattr(f"shiftsse.harness.{check}", lambda *a, worst=worst, **k: worst)
            assert main([verb, "--count", "1"]) == code
            assert f"({verdict} at 1e-10)" in capsys.readouterr().out

    def test_contract_check_verb(self, capsys):
        assert main(["contract-check", "--count", "40", "--seed", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_check_verb(self, capsys):
        assert main(["oracle-check", "--count", "20", "--seed", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_campaign_verb(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        code = main([
            "campaign", "--axis", "m_joint", "--grid", "0.5,1.0",
            "--csv", str(csv_path), "--sites", "2", "--sweeps", "1000",
            "--chains", "2", "--seed", "3",
        ])
        assert code == 0
        assert csv_path.exists()
        assert (tmp_path / "scan.csv.meta.json").exists()

