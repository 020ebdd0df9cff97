import json

import numpy as np
import pytest

from shiftsse.harness import (
    CSV_FIELDS,
    CampaignSpec,
    RunConfig,
    apply_axis,
    campaign,
    main,
    parse_config_file,
    random_contraction_check,
    random_weight_equivalence_check,
    run,
    write_campaign_csv,
)

FAST = dict(n_sites=2, temperature=2.0, sweeps=1200, chains=2, seed=5)


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

    def test_chain_schedule_splits_budget(self):
        cfg = RunConfig(sweeps=10001, chains=4, warmup_fraction=0.1)
        schedule = cfg.chain_schedule()
        assert sum(total for total, _ in schedule) == 10001
        assert all(warmup < total for total, warmup in schedule)

    def test_rotate_sites_basis(self):
        cfg = RunConfig(n_sites=3, rotate_sites=(1,))
        basis = cfg.basis_choice()
        np.testing.assert_allclose(basis.qubit_unitary(0, 3), np.eye(2))
        assert abs(basis.qubit_unitary(1, 3)[1, 0]) > 0.1
        with pytest.raises(ValueError):
            RunConfig(n_sites=2, rotate_sites=(5,)).basis_choice()


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

    def test_insufficient_samples_per_bin(self):
        with pytest.raises(ValueError):
            run(RunConfig(n_sites=2, sweeps=30, chains=2, seed=1))


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
        assert header == ",".join(CSV_FIELDS)
        sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert sidecar["axis"] == "m_joint"
        assert sidecar["base_config"]["seed"] == FAST["seed"]
        assert sidecar["rows"] == 2


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "n_sites = 4\n"
            "delta = 0.5  # inline comment\n"
            "basis = z\n"
            "rotate_sites = 0,2\n"
            "seed = 9\n",
            encoding="utf-8",
        )
        values = parse_config_file(cfg)
        assert values == {
            "n_sites": 4, "delta": 0.5, "basis": "z",
            "rotate_sites": (0, 2), "seed": 9,
        }

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux_capacitor = 1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config_file(cfg)

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config_file(cfg)


class TestCli:
    def test_run_verb(self, capsys):
        code = main(["run", "--sites", "2", "--sweeps", "1000", "--chains", "2",
                     "--seed", "4", "--delta", "0.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_sign"] == 1.0

    def test_run_verb_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_sites = 2\nsweeps = 1000\nchains = 2\nseed = 4\n",
                       encoding="utf-8")
        code = main(["run", "--config", str(cfg), "--delta", "0.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == 0.0
        assert payload["n_sites"] == 2

    def test_validation_failure_exit_code(self, capsys):
        code = main(["run", "--sites", "2", "--temperature", "-1"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_ed_verb(self, capsys):
        code = main(["ed", "--sites", "2", "--delta", "1.0", "-T", "2.0",
                     "--spectrum"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("thermal_energy=")
        eigenvalues = [float(v) for v in lines[2:]]
        np.testing.assert_allclose(eigenvalues, [-4.0, 0.0, 0.0, 4.0], atol=1e-10)

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


class TestRandomChecks:
    def test_contraction_check_tight(self):
        assert random_contraction_check(150, seed=21) < 1e-10

    def test_contraction_check_at_sampler_sizes(self):
        # the sampler runs up to N = 7; the default check stops at N = 4
        assert random_contraction_check(60, seed=23, max_sites=7) <= 1e-10

    def test_weight_equivalence_tight(self):
        assert random_weight_equivalence_check(60, seed=22) < 1e-10
