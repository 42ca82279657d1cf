"""CLI behavior: ingestion, routing, report rendering, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import natfx.cli
import oracles
from natfx.cfexpr import Scenario
from natfx.cli import (
    Report,
    build_parser,
    load_dataset,
    load_roles,
    main,
    run,
)
from natfx.decomp import Query, decompose
from natfx.estimate import LinearParams
from natfx.infer import BootstrapConfig, bootstrap
from natfx.scm import DiscreteScm, from_dataset, model_to_json, save_model
from natfx.scm import simulate as simulate_model

ROLES2 = {"exposure": "A", "m1": "M1", "m2": "M2", "outcome": "Y"}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_roles(tmp_path, doc=ROLES2, name="roles.json"):
    return write(tmp_path / name, json.dumps(doc))


def run_argv(*argv):
    """`run` on the arguments `main` would parse from `argv`."""
    return run(build_parser().parse_args(argv))


class TestLoadRoles:
    def test_valid(self, tmp_path):
        path = write_roles(tmp_path, dict(ROLES2, covariates=["age"]))
        roles = load_roles(path)
        assert roles["m2"] == "M2"
        assert roles["covariates"] == ["age"]

    def test_missing_required_role(self, tmp_path):
        path = write_roles(tmp_path, {"exposure": "A", "outcome": "Y"})
        with pytest.raises(ValueError, match="'m1'"):
            load_roles(path)

    def test_unknown_key(self, tmp_path):
        path = write_roles(tmp_path, dict(ROLES2, instrument="Z"))
        with pytest.raises(ValueError, match="instrument"):
            load_roles(path)

    def test_covariates_must_be_names(self, tmp_path):
        path = write_roles(tmp_path, dict(ROLES2, covariates="age"))
        with pytest.raises(ValueError, match="covariates"):
            load_roles(path)


class TestLoadDataset:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "A,M1,M2,Y\n1,0,1,2.5\n0,1,0,1.0\n1,1,1,3.0\n")
        data = load_dataset(path, ROLES2)
        assert data.n == 3
        assert data.n_dropped == 0
        assert data.exposure.tolist() == [1, 0, 1]
        assert data.outcome.tolist() == [2.5, 1.0, 3.0]

    def test_missing_cell_dropped_and_counted(self, tmp_path):
        path = write(tmp_path / "d.csv", "A,M1,M2,Y\n1,0,1,\n0,1,0,1.0\n")
        data = load_dataset(path, ROLES2)
        assert data.n == 1
        assert data.n_dropped == 1

    def test_missing_unbound_cell_is_kept(self, tmp_path):
        path = write(
            tmp_path / "d.csv", "A,M1,M2,Y,junk\n1,0,1,2.0,\n0,1,0,1.0,x\n"
        )
        data = load_dataset(path, ROLES2)
        assert data.n == 2

    def test_header_missing_bound_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "A,M1,M2,Y\n1,0,1,2.0\n")
        with pytest.raises(ValueError, match="'bmi'"):
            load_dataset(path, dict(ROLES2, m1="bmi"))

    def test_unparseable_outcome_names_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "A,M1,M2,Y\n1,0,1,2.0\n0,1,0,oops\n")
        with pytest.raises(ValueError, match="line 3.*'oops'.*'Y'"):
            load_dataset(path, ROLES2)

    def test_width_mismatch_names_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "A,M1,M2,Y\n1,0,1,2.0\n1,0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(path, ROLES2)

    @pytest.mark.parametrize("row", ["0,1,0,1.0,", "0,1,0,1.0,7"], ids=["trailing-comma", "extra-field"])
    def test_long_row_names_line(self, tmp_path, row):
        path = write(tmp_path / "d.csv", f"A,M1,M2,Y\n1,0,1,2.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3: expected 4 fields, found 5$"):
            load_dataset(path, ROLES2)

    @pytest.mark.parametrize("cells, dtype", [
        (["9223372036854775808", "9223372036854775809"], np.uint64),
        (["9223372036854775808", "1"], np.float64),
        (["-9223372036854775809", "1"], object),
    ])
    def test_integers_beyond_int64_keep_the_csv_readers_dtype(self, tmp_path, cells, dtype):
        rows = [f"1,0,1,{cell}" for cell in cells]
        path = write(tmp_path / "d.csv", "\n".join(["A,M1,M2,Y", *rows]) + "\n")
        data = load_dataset(path, dict(ROLES2, outcome="M2", covariates=["Y"]))
        assert data.covariates["Y"].dtype == dtype
        assert data.covariates["Y"].tolist() == [int(cell) for cell in cells]

    def test_one_quoted_cell_reads_as_plain_text(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [f"{a},{m1},{m2},{y!r}" for a, m1, m2, y in zip(
            rng.integers(0, 2, 5000), rng.integers(0, 3, 5000), rng.integers(0, 3, 5000),
            rng.normal(size=5000).tolist())]
        plain = write(tmp_path / "plain.csv", "\n".join(["A,M1,M2,Y", *rows]) + "\n")
        quoted_row = rows[2500].split(",")
        rows[2500] = ",".join([f'"{quoted_row[0]}"', *quoted_row[1:]])
        quoted = write(tmp_path / "quoted.csv", "\n".join(["A,M1,M2,Y", *rows]) + "\n")
        # the quote sends the copy through the csv module, the plain file not
        assert natfx.cli._loadtxt_columns(plain, list(ROLES2.values())) is not None
        assert natfx.cli._loadtxt_columns(quoted, list(ROLES2.values())) is None
        want, got = load_dataset(quoted, ROLES2), load_dataset(plain, ROLES2)
        assert got.n_dropped == want.n_dropped == 0
        for role in ("exposure", "m1", "m2", "outcome"):
            assert getattr(got, role).dtype == getattr(want, role).dtype
            assert getattr(got, role).tobytes() == getattr(want, role).tobytes()

    def test_quoted_fields(self, tmp_path):
        path = write(
            tmp_path / "d.csv",
            'A,M1,M2,Y\n"current, heavy",0,1,2.0\nnever,1,0,1.0\n',
        )
        data = load_dataset(path, ROLES2)
        assert data.exposure.tolist() == ["current, heavy", "never"]

    def test_integer_columns_stay_integers(self, tmp_path):
        path = write(tmp_path / "d.csv", "A,M1,M2,Y\n1,0,1,2.0\n0,1,0,1.0\n")
        data = load_dataset(path, ROLES2)
        assert data.m1.dtype.kind == "i"

    def test_covariates_parsed_numeric(self, tmp_path):
        path = write(
            tmp_path / "d.csv", "A,M1,M2,Y,age\n1,0,1,2.0,48.3\n0,1,0,1.0,39.0\n"
        )
        data = load_dataset(path, dict(ROLES2, covariates=["age"]))
        assert data.covariates["age"].tolist() == [48.3, 39.0]
        path2 = write(
            tmp_path / "e.csv", "A,M1,M2,Y,age\n1,0,1,2.0,young\n"
        )
        with pytest.raises(ValueError, match="'age'"):
            load_dataset(path2, dict(ROLES2, covariates=["age"]))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(ValueError, match="header"):
            load_dataset(path, ROLES2)


class TestCheck:
    def test_identifiable_formula_exits_zero(self):
        report, code = run_argv("check", "--scenario", "seq2", "Y(a, M1(a*), M2(a, M1(a*)))")
        assert code == 0
        assert report.body["status"] == "identifiable"
        assert report.body["conflicts"] == []

    def test_kite_conflict_exits_two(self):
        report, code = run_argv("check", "--scenario", "seq2", "Y(a, M1(a), M2(a, M1(a*)))")
        assert code == 2
        assert report.body["status"] == "problematic"
        specs = report.body["conflicts"][0]["specs"]
        assert set(specs) == {"M1(a)", "M1(a*)"}

    def test_parse_error_exits_one(self, capsys):
        code = main(["check", "--scenario", "seq2", "Y(a, M(a*))"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEvalCommand:
    def test_world_value(self, tmp_path, dm1):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        report, code = run_argv(
            "eval", "--model", model, "Y(a, M1(a*), M2(a*, M1(a*)))", "--a", "1", "--aref", "0"
        )
        assert code == 0
        assert report.body["value"] == pytest.approx(2.96, abs=1e-12)

    def test_problematic_formula_exit_code(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        code = main(["eval", "--model", model, "Y(a, M1(a), M2(a, M1(a*)))"])
        assert code == 2
        assert "not identifiable" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_golden_model(self, tmp_path, dm1):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        report, code = run_argv(
            "decompose", "--model", model, "--scenario", "seq2",
            "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
        )
        assert code == 0
        assert report.result["TE"] == pytest.approx(3.12, abs=1e-12)
        assert report.result["PIE_M1"] == pytest.approx(1.16, abs=1e-12)
        assert report.result.sum_gap < 1e-9
        assert report.ledger is not None
        assert not any(a.acknowledged for a in report.ledger.assumptions)

    def test_scenario_mismatch(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        code = main(
            ["decompose", "--model", model, "--scenario", "nonseq2",
             "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0"]
        )
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_json_and_table_share_digits(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        argv = ["decompose", "--model", model, "--a", "1", "--aref", "0",
                "--m1star", "0", "--m2star", "0"]
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "table"]) == 0
        table = capsys.readouterr().out
        for row in doc["components"]:
            shown = f"{row['estimate']:.4g}"
            assert shown in table, row["name"]

    def test_extended_rows(self, tmp_path, dm1):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        report, _ = run_argv(
            "decompose", "--model", model, "--a", "1", "--aref", "0",
            "--m1star", "0", "--m2star", "0", "--extended",
        )
        names = [c.name for c in report.result.components]
        assert names[-2:] == ["TDE", "SIE_M1"]


class TestSimulateCommand:
    def test_writes_csv_and_summary(self, tmp_path, dm1):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        out = tmp_path / "sim.csv"
        report, code = run_argv(
            "simulate", "--model", model, "--n", "50", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "A,M1,M2,Y"
        assert len(lines) == 51
        assert report.body["rows"] == 50
        assert report.body["seed"] == 3

    def test_stdout_when_no_out(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        code = main(["simulate", "--model", model, "--n", "4", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "A,M1,M2,Y"
        assert len(lines) == 5

    def test_env_seed_fallback(self, tmp_path, dm1, monkeypatch):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        monkeypatch.setenv("NATFX_SEED", "17")
        report, _ = run_argv("simulate", "--model", model, "--n", "5", "--out", str(tmp_path / "a.csv"))
        assert report.body["seed"] == 17
        monkeypatch.setenv("NATFX_SEED", "not-a-number")
        with pytest.raises(ValueError, match="NATFX_SEED"):
            run_argv("simulate", "--model", model, "--n", "5", "--out", str(tmp_path / "b.csv"))

    def test_deterministic(self, tmp_path, dm1):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run_argv("simulate", "--model", model, "--n", "30", "--seed", "9", "--out", str(p1))
        run_argv("simulate", "--model", model, "--n", "30", "--seed", "9", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_levels_with_commas_and_quotes_round_trip(self, tmp_path):
        levels = ("a,1", 'b"0')
        model = DiscreteScm(
            Scenario.single(),
            pm1={a: {'m "lo"': 0.25, "m,hi": 0.75} for a in levels},
            ymean={a: {'m "lo"': 1.0 + i, "m,hi": -2.0 * i} for i, a in enumerate(levels)},
        )
        path = write(tmp_path / "m.json", "")
        save_model(model, path)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--model", path, "--n", "40", "--seed", "2", "--out", str(out)]) == 0
        data = load_dataset(str(out), {"exposure": "A", "m1": "M1", "outcome": "Y"})
        want = simulate_model(model, 40, 2)
        assert data.exposure.tolist() == want.exposure.tolist()
        assert data.m1.tolist() == want.m1.tolist()
        assert data.outcome.tolist() == want.outcome.tolist()
        assert set(data.exposure.tolist()) == set(levels)

    @pytest.mark.parametrize("noise_sd", ["nan", "inf", "-0.5"])
    def test_bad_noise_sd_exits_one(self, tmp_path, dm1, capsys, noise_sd):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", model, "--n", "5", "--seed", "1",
                     "--noise-sd", noise_sd, "--out", str(out)])
        assert code == 1
        assert "noise_sd" in capsys.readouterr().err
        assert not out.exists()


def linear_csv(tmp_path, n=800, seed=4, with_cov=True):
    """Gaussian chain data generated at known coefficients."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n).astype(float)
    c = rng.uniform(-1, 1, size=n) if with_cov else np.zeros(n)
    m1 = 0.5 + 1.0 * a + 0.3 * c + rng.normal(size=n)
    m2 = 1.0 - 0.5 * a + 0.4 * m1 + 0.2 * a * m1 + 0.1 * c + rng.normal(size=n)
    y = (
        2.0 + 1.0 * a - 0.5 * m1 + 0.8 * m2 + 0.6 * a * m1 - 0.4 * a * m2
        + 0.3 * m1 * m2 + 0.2 * a * m1 * m2 + 0.5 * c + rng.normal(size=n)
    )
    lines = ["smoke,bmi,tg,chol" + (",age" if with_cov else "")]
    for i in range(n):
        row = f"{int(a[i])},{float(m1[i])!r},{float(m2[i])!r},{float(y[i])!r}"
        if with_cov:
            row += f",{float(c[i])!r}"
        lines.append(row)
    path = write(tmp_path / "lin.csv", "\n".join(lines) + "\n")
    roles = {"exposure": "smoke", "m1": "bmi", "m2": "tg", "outcome": "chol"}
    if with_cov:
        roles["covariates"] = ["age"]
    return path, write_roles(tmp_path, roles, "lin_roles.json")


class TestFitCommand:
    def test_document_shape(self, tmp_path):
        data, roles = linear_csv(tmp_path)
        report, code = run_argv("fit", "--data", data, "--roles", roles)
        assert code == 0
        doc = report.as_dict()
        assert set(doc["params"]) >= {"theta", "beta", "gamma", "sigma2_m1"}
        assert doc["covariates"] == ["age"]
        assert doc["n_used"] == 800
        assert len(doc["params"]["theta"]) == 8
        assert LinearParams.from_dict(doc["params"]).n_covariates == 1

    def test_fit_recovers_noisy_coefficients_roughly(self, tmp_path):
        data, roles = linear_csv(tmp_path, n=4000, seed=8)
        report, _ = run_argv("fit", "--data", data, "--roles", roles)
        gamma = report.body["params"]["gamma"]
        assert gamma[1] == pytest.approx(1.0, abs=0.15)

    def test_table_format_contains_numbers(self, tmp_path, capsys):
        data, roles = linear_csv(tmp_path, n=200)
        assert main(["fit", "--data", data, "--roles", roles, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "outcome coefficients" in out
        assert "sigma2_m1" in out
        assert "pivot_ratio: outcome=" in out

    def test_pivot_ratio_per_equation(self, tmp_path):
        data, roles = linear_csv(tmp_path)
        report, _ = run_argv("fit", "--data", data, "--roles", roles)
        ratios = report.as_dict()["diagnostics"]["pivot_ratio"]
        assert list(ratios) == ["outcome", "m2", "m1"]
        assert all(0.0 < r <= 1.0 for r in ratios.values())
        # the fit document itself is unchanged: the ratio is a diagnostic
        assert "pivot_ratio" not in report.body

    def test_as_many_rows_as_regressors_reports_zero_dof(self, tmp_path):
        # 8 rows fit the 8 outcome regressors exactly: sigma2_y is 0 by
        # construction, and the diagnostics say why
        rng = np.random.default_rng(21)
        lines = ["A,M1,M2,Y"] + [
            f"{a},{m1!r},{m2!r},{y!r}"
            for a, m1, m2, y in zip([0, 1] * 4, *rng.normal(size=(3, 8)).tolist())
        ]
        data = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        report, code = run_argv("fit", "--data", data, "--roles", write_roles(tmp_path))
        assert code == 0
        assert report.diagnostics["residual_dof"] == {"outcome": 0, "m2": 4, "m1": 6}
        assert report.body["sigma2_y"] == 0.0
        assert "residual_dof" not in report.body


class TestDecomposeLinearCommand:
    def _fit_doc(self, tmp_path, **kwargs):
        data, roles = linear_csv(tmp_path, **kwargs)
        report, _ = run_argv("fit", "--data", data, "--roles", roles)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(report.as_dict()))
        return str(path)

    def test_mean_reference_resolution(self, tmp_path):
        fit_path = self._fit_doc(tmp_path)
        report, code = run_argv(
            "decompose-linear", "--params", fit_path, "--a", "1", "--aref", "0",
            "--m1star", "mean", "--m2star", "mean", "--cov", "age=0.2",
        )
        assert code == 0
        with open(fit_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert report.provenance["query"]["m1*"] == pytest.approx(doc["sample_means"]["m1"])
        assert len(report.result.components) == 11
        assert report.result.sum_gap <= 1e-9
        assert report.diagnostics["sigma2_m1"] >= 0.0

    def test_bare_params_document(self, tmp_path):
        params = LinearParams(
            theta=(1.0, 0.5, 0.2, 0.3, 0.1, 0.0, 0.05, 0.02),
            beta=(0.5, -0.2, 0.3, 0.1),
            gamma=(0.4, 0.9),
            sigma2_m1=1.0,
        )
        path = write(tmp_path / "p.json", json.dumps(params.to_dict()))
        report, code = run_argv(
            "decompose-linear", "--params", path, "--a", "1", "--aref", "0",
            "--m1star", "0.0", "--m2star", "0.0",
        )
        assert code == 0
        assert report.result.sum_gap <= 1e-9

    def test_mean_needs_fit_document(self, tmp_path, capsys):
        params = LinearParams(
            theta=(0.0,) * 8, beta=(0.0,) * 4, gamma=(0.0, 0.0)
        )
        path = write(tmp_path / "p.json", json.dumps(params.to_dict()))
        code = main(
            ["decompose-linear", "--params", path, "--a", "1", "--aref", "0",
             "--m1star", "mean", "--m2star", "0"]
        )
        assert code == 1
        assert "sample means" in capsys.readouterr().err

    def test_profile_name_mismatch(self, tmp_path, capsys):
        fit_path = self._fit_doc(tmp_path)
        code = main(
            ["decompose-linear", "--params", fit_path, "--a", "1", "--aref", "0",
             "--m1star", "0", "--m2star", "0", "--cov", "sex=1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "age" in err and "sex" in err

    def test_unstated_profile_defaults_to_zero(self, tmp_path):
        fit_path = self._fit_doc(tmp_path)
        report, code = run_argv(
            "decompose-linear", "--params", fit_path, "--a", "1", "--aref", "0",
            "--m1star", "0", "--m2star", "0",
        )
        assert code == 0
        assert report.provenance["covariate_profile"] == {"age": 0.0}


class TestBootstrapReportCommand:
    def test_plugin_round_trip(self, tmp_path, dm1):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        sim = tmp_path / "sim.csv"
        run_argv("simulate", "--model", model, "--n", "3000", "--seed", "2", "--out", str(sim))
        roles = write_roles(tmp_path)
        report, code = run_argv(
            "bootstrap-report", "--data", str(sim), "--roles", roles,
            "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
            "--boot", "200", "--seed", "5",
        )
        assert code == 0
        te = next(c for c in report.result.components if c.name == "TE")
        assert te.ci is not None and te.ci[0] <= te.ci[1]
        assert abs(te.value - 3.12) < 0.4
        assert report.provenance["seed"] == 5
        assert report.provenance["replicates"] == 200

    def test_failed_replicates_are_counted_by_cause(self, tmp_path, capsys):
        # M2 = 1 in only three rows of each (A, M1) cell, so some resamples
        # leave a cell empty
        a = np.repeat([0, 1], 150)
        m1 = np.tile([0, 1], 150)
        m2 = np.zeros(300, dtype=int)
        for cell in range(4):
            m2[np.nonzero(a * 2 + m1 == cell)[0][:3]] = 1
        y = np.random.default_rng(0).normal(size=300)
        rows = zip(a.tolist(), m1.tolist(), m2.tolist(), y.tolist())
        data = write(
            tmp_path / "rare.csv",
            "A,M1,M2,Y\n" + "".join(f"{i},{j},{k},{v!r}\n" for i, j, k, v in rows),
        )
        code = main(
            ["bootstrap-report", "--data", data, "--roles", write_roles(tmp_path),
             "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
             "--boot", "100", "--seed", "3", "--max-fail", "0.5", "--format", "json"]
        )
        assert code == 0
        replicates = json.loads(capsys.readouterr().out)["diagnostics"]["replicates"]
        assert replicates["failed"] > 0
        assert replicates["kept"] + replicates["failed"] == 100
        empty = replicates["failed_by_error"]["EmptyCell"]
        assert empty["count"] == replicates["failed"]
        assert empty["first"].startswith("empty cells: (A=")

    def test_linear_method_with_mean_references(self, tmp_path):
        data, roles = linear_csv(tmp_path, n=500)
        report, code = run_argv(
            "bootstrap-report", "--data", data, "--roles", roles, "--method", "linear",
            "--a", "1", "--aref", "0", "--m1star", "mean", "--m2star", "mean",
            "--cov", "age=0.1", "--boot", "60", "--seed", "3",
        )
        assert code == 0
        assert len(report.result.components) == 11
        assert all(c.ci is not None for c in report.result.components)
        assert isinstance(report.provenance["query"]["m1*"], float)
        assert report.diagnostics["n_used"] == 500

    def test_linear_records_the_profile_it_used(self, tmp_path):
        # without --cov the fit's covariate enters at 0; the provenance says so
        data, roles = linear_csv(tmp_path, n=300)
        base = ["bootstrap-report", "--data", data, "--roles", roles, "--method", "linear",
                "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
                "--boot", "20", "--seed", "1"]
        report, code = run_argv(*base)
        assert code == 0
        assert report.provenance["covariate_profile"] == {"age": 0.0}
        with_cov, _ = run_argv(*base, "--cov", "age=0.0")
        assert with_cov.provenance["covariate_profile"] == {"age": 0.0}
        assert with_cov.as_dict()["components"] == report.as_dict()["components"]

    def test_linear_reports_routes_and_conditioning(self, tmp_path, capsys):
        data, roles = linear_csv(tmp_path, n=300)
        assert main(
            ["bootstrap-report", "--data", data, "--roles", roles, "--method", "linear",
             "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
             "--boot", "30", "--seed", "2", "--format", "json"]
        ) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        routes = diagnostics["replicates"]["routes"]
        assert routes["batched"] == 30
        assert routes["fallback"] == {"rows": 0, "conditioning": 0}
        assert 0.0 < routes["min_gram_rcond"] <= 1.0
        assert list(diagnostics["pivot_ratio"]) == ["outcome", "m2", "m1"]
        # 300 rows, one covariate: 9, 5 and 3 regressors
        assert diagnostics["residual_dof"] == {"outcome": 291, "m2": 295, "m1": 297}

    def test_worker_count_invariance(self, tmp_path, dm1):
        # the command prices its replicates in chunks on one thread; the
        # per-resample estimator on a 4-thread pool gives the same report
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        sim = tmp_path / "sim.csv"
        run_argv("simulate", "--model", model, "--n", "800", "--seed", "6", "--out", str(sim))
        report, _ = run_argv(
            "bootstrap-report", "--data", str(sim), "--roles", write_roles(tmp_path),
            "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
            "--boot", "80", "--seed", "9",
        )
        q = Query(a=1, a_star=0, m1_star=0, m2_star=0)
        pooled = bootstrap(
            load_dataset(str(sim), ROLES2),
            lambda d: decompose(from_dataset(d, Scenario.chain(2)), q),
            BootstrapConfig(replicates=80, seed=9),
            workers=4,
        )
        d1, d4 = report.as_dict(), Report("bootstrap-report", {}, result=pooled).as_dict()
        assert d1["components"] == d4["components"]
        assert d1["te"] == d4["te"]


def model_file(tmp_path, model, edit):
    """`model` saved as JSON after `edit` changed its document in place."""
    doc = model_to_json(model)
    edit(doc)
    return write(tmp_path / "m.json", json.dumps(doc))


class TestNonFiniteInput:
    """A NaN or infinity in a model file or a data file exits 1 with an
    error that names it, never with a NaN estimate."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0"],
            ["eval", "Y(a*, M1(a*), M2(a*, M1(a*)))", "--a", "1", "--aref", "0"],
            ["simulate", "--n", "10"],
        ],
    )
    def test_nan_probability(self, tmp_path, dm1, capsys, argv):
        model = model_file(tmp_path, dm1, lambda doc: doc["pm1"]["0"].update({"0": float("nan")}))
        assert main([*argv, "--model", model]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "pm1['0'] has a negative or NaN probability nan at '0'" in out.err

    @pytest.mark.parametrize("subcommand", ["eval", "decompose"])
    def test_infinite_cell_mean(self, tmp_path, dm1, capsys, subcommand):
        def edit(doc):
            doc["ymean"]["1"]["0"]["1"] = float("inf")

        model = model_file(tmp_path, dm1, edit)
        argv = ["--model", model, "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0"]
        if subcommand == "eval":
            argv.insert(0, "Y(a, M1(a), M2(a, M1(a)))")
        assert main([subcommand, *argv]) == 1
        assert "ymean['1']['0']['1'] is inf; cell means must be finite" in capsys.readouterr().err

    def test_nan_outcome_in_plugin_data(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        sim = tmp_path / "sim.csv"
        run_argv("simulate", "--model", model, "--n", "400", "--seed", "2", "--out", str(sim))
        lines = sim.read_text().splitlines()
        lines[8] = lines[8].rsplit(",", 1)[0] + ",nan"
        sim.write_text("\n".join(lines) + "\n")
        code = main(
            ["bootstrap-report", "--data", str(sim), "--roles", write_roles(tmp_path),
             "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
             "--boot", "50", "--max-fail", "0.9", "--format", "json"]
        )
        assert code == 1
        assert "column 'outcome' holds non-finite values at rows 7" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_non_finite_report_value_is_an_error(self, monkeypatch, capsys, fmt):
        stray = Report("check", {"value": 1.0}, provenance={"value": float("nan")})
        monkeypatch.setattr(natfx.cli, "run", lambda args: (stray, 0))
        assert main(["check", "--scenario", "seq2", "Y(a, M1(a))", "--format", fmt]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("natfx: error: Out of range float values are not JSON compliant")


def setting(keys, value, drop_levels=False):
    """A model-document edit that sets ``doc[keys[0]]...[keys[-1]] = value``."""

    def edit(doc):
        if drop_levels:
            del doc["levels"]
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    return edit


class TestMalformedDocuments:
    """A JSON document of the wrong shape, or a model whose components sum
    beyond the float range, exits 1 with an error that names the key or the
    row, never with a traceback."""

    QUERY = ["--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0"]

    def assert_error(self, argv, capsys, message):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"natfx: error: {message}\n"

    @pytest.mark.parametrize("argv", [["decompose", *QUERY], ["simulate", "--n", "5"]])
    def test_model_file_that_is_a_list(self, tmp_path, capsys, argv):
        model = write(tmp_path / "m.json", "[1, 2]")
        self.assert_error([*argv, "--model", model], capsys,
                          "model document must be a JSON object, got list")

    @pytest.mark.parametrize("argv", [["decompose", *QUERY], ["eval", "Y(a, M1(a), M2(a, M1(a)))"]])
    def test_pm1_that_is_a_list(self, tmp_path, dm1, capsys, argv):
        model = model_file(tmp_path, dm1, lambda doc: doc.update(pm1=[0.5, 0.5]))
        self.assert_error([*argv, "--model", model], capsys, "pm1 must be a JSON object, got list")

    def test_scenario_that_is_a_number(self, tmp_path, dm1, capsys):
        model = model_file(tmp_path, dm1, lambda doc: doc.update(scenario=5))
        self.assert_error(["decompose", *self.QUERY, "--model", model], capsys,
                          "scenario must be a JSON string, got int")

    def test_null_cell_mean(self, tmp_path, dm1, capsys):
        model = model_file(tmp_path, dm1, lambda doc: doc["ymean"]["1"]["0"].update({"1": None}))
        self.assert_error(["decompose", *self.QUERY, "--model", model], capsys,
                          "ymean['1']['0']['1'] is None, not a number")

    def test_params_file_that_is_a_list(self, tmp_path, capsys):
        params = write(tmp_path / "p.json", "[1, 2]")
        self.assert_error(["decompose-linear", "--params", params, *self.QUERY], capsys,
                          "parameter document must be a JSON object, got list")

    @pytest.mark.parametrize("doc, message", [
        ({"theta": 5}, "parameter document is missing key 'beta'"),
        ({"theta": 5, "beta": [0] * 4, "gamma": [0] * 2}, "theta must be a list of numbers, got 5"),
        ({"theta": [0] * 8, "beta": [0, 0, 0, None], "gamma": [0] * 2},
         "beta must be a list of numbers, got [0, 0, 0, None]"),
        ({"theta": "01234567", "beta": "0123", "gamma": "01"},
         "theta must be a list of numbers, got '01234567'"),
    ])
    def test_params_coefficients_that_are_not_a_list(self, tmp_path, capsys, doc, message):
        params = write(tmp_path / "p.json", json.dumps(doc))
        self.assert_error(["decompose-linear", "--params", params, *self.QUERY], capsys, message)

    @pytest.mark.parametrize("edit, message", [
        (setting(["pm1"], {"0": 0.5, "1": 0.5}), "pm1['0'] must be a JSON object, got float"),
        (setting(["pm1"], {"0": 0.5, "1": 0.5}, drop_levels=True),
         "pm1['0'] must be a JSON object, got float"),
        (setting(["pm2"], {"0": 0.5, "1": 0.5}), "pm2['0'] must be a JSON object, got float"),
        (setting(["pm2"], {}), "pm2 must be a non-empty JSON object"),
        (setting(["ymean", "0"], 3.0), "ymean['0'] must be a JSON object, got float"),
        (setting(["levels", "exposure"], 5), "levels['exposure'] must be a JSON list, got int"),
        (setting(["pm1", "0", "0"], {"0": 1.0}), "pm1['0']['0'] is {'0': 1.0}, not a number"),
        (setting(["ymean", "0", "0", "0"], {"0": 1.0}),
         "ymean['0']['0']['0'] is {'0': 1.0}, not a number"),
        # a row outside the support is read, and rejected, all the same
        (setting(["ymean", "9"], {"0": {"0": None}}), "ymean['9']['0']['0'] is None, not a number"),
    ], ids=["flat-pm1", "flat-pm1-no-levels", "flat-pm2", "empty-pm2", "number-ymean-row",
            "number-levels", "deep-pm1", "deep-ymean", "null-outside-support"])
    def test_seq2_model_of_the_wrong_depth(self, tmp_path, dm1, capsys, edit, message):
        model = model_file(tmp_path, dm1, edit)
        self.assert_error(["decompose", *self.QUERY, "--model", model], capsys, message)

    @pytest.mark.parametrize("edit, message", [
        (setting(["pm2", "0"], {}), "pm2['0'] must be a non-empty JSON object"),
        (setting(["pm2", "1"], 0.5), "pm2['1'] must be a JSON object, got float"),
    ], ids=["empty-first-row", "number-row"])
    def test_flat_nonseq2_pm2_of_the_wrong_depth(self, tmp_path, capsys, edit, message):
        marginal = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.7, 1: 0.3}}
        nonseq = DiscreteScm.nonseq2(oracles.DM1_PM1, marginal, oracles.DM1_YMEAN)
        model = model_file(tmp_path, nonseq, edit)
        self.assert_error(["decompose", *self.QUERY, "--model", model], capsys, message)

    def test_components_that_overflow(self, tmp_path, dm1, capsys):
        def edit(doc):
            for a, sign in (("1", 1.0), ("0", -1.0)):
                for row in doc["ymean"][a].values():
                    row.update({m2: sign * 1.7e308 for m2 in row})

        model = model_file(tmp_path, dm1, edit)
        self.assert_error(["decompose", *self.QUERY, "--model", model], capsys,
                          "CDE overflows the float range")


class TestNegativeSeed:
    """A negative seed exits 1 naming where it came from."""

    def assert_seed_error(self, argv, capsys, message):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"natfx: error: {message}\n"

    def test_simulate_flag(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        self.assert_seed_error(["simulate", "--model", model, "--n", "5", "--seed", "-1"], capsys,
                               "--seed must be a non-negative integer, got -1")

    def test_bootstrap_report_flag(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        sim = tmp_path / "sim.csv"
        run_argv("simulate", "--model", model, "--n", "200", "--seed", "2", "--out", str(sim))
        argv = ["bootstrap-report", "--data", str(sim), "--roles", write_roles(tmp_path),
                "--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0",
                "--boot", "5", "--seed", "-4"]
        self.assert_seed_error(argv, capsys, "--seed must be a non-negative integer, got -4")

    def test_environment_variable(self, tmp_path, dm1, capsys, monkeypatch):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        monkeypatch.setenv("NATFX_SEED", "-2")
        self.assert_seed_error(["simulate", "--model", model, "--n", "5"], capsys,
                               "NATFX_SEED must be a non-negative integer, got -2")


class TestRounding:
    def test_json_floats_carry_twelve_significant_digits(self, tmp_path, dm1, capsys):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        assert main(
            ["decompose", "--model", model, "--a", "1", "--aref", "0",
             "--m1star", "0", "--m2star", "0", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)

        def check(node):
            if isinstance(node, float):
                assert node == float(f"{node:.12g}")
            elif isinstance(node, dict):
                for v in node.values():
                    check(v)
            elif isinstance(node, list):
                for v in node:
                    check(v)

        check(doc)


class TestArgumentSurface:
    def test_subcommand_required(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["check", "--scenario", "seq2", "Y(a, M1(a))", "--bogus"]) == 1
        # retired: both methods price replicates in chunks, so a thread count did nothing
        assert main(["bootstrap-report", "--data", "d.csv", "--roles", "r.json",
                     "--a", "1", "--aref", "0", "--workers", "3"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_parser_maps_fields(self):
        args = build_parser().parse_args(
            ["bootstrap-report", "--data", "d.csv", "--roles", "r.json",
             "--a", "1", "--aref", "0", "--boot", "77", "--max-fail", "0.2",
             "--method", "linear", "--log-m2"]
        )
        assert args.boot == 77
        assert args.max_fail == 0.2
        assert args.method == "linear"
        assert args.log_m2 is True
        # unset flags take the library's bootstrap defaults
        args = build_parser().parse_args(
            ["bootstrap-report", "--data", "d.csv", "--roles", "r.json", "--a", "1", "--aref", "0"]
        )
        cfg = BootstrapConfig()
        assert (args.boot, args.level, args.max_fail) == (cfg.replicates, cfg.level, cfg.max_fail)
        assert args.seed is None and args.format == "table"

    def test_missing_file_exits_one(self, capsys):
        code = main(
            ["decompose", "--model", "no-such-file.json", "--a", "1",
             "--aref", "0", "--m1star", "0", "--m2star", "0"]
        )
        assert code == 1


# Runs natfx commands with every import of scipy failing, and prints their
# exit codes as a JSON list.
_NO_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from natfx.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
print(json.dumps(codes))
"""


class TestWithoutScipy:
    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path, dm1):
        model = write(tmp_path / "m.json", "")
        save_model(dm1, model)
        sim = str(tmp_path / "sim.csv")
        lin, lin_roles = linear_csv(tmp_path, n=200)
        params = write(tmp_path / "params.json", json.dumps(LinearParams(
            theta=(2, 1, -0.5, 0.8, 0.6, -0.4, 0.3, 0.2), beta=(1, -0.5, 0.4, 0.2),
            gamma=(0.5, 1), sigma2_m1=1,
        ).to_dict()))
        query = ["--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0"]
        commands = [
            ["check", "--scenario", "seq2", "Y(a, M1(a*), M2(a, M1(a*)))"],
            ["eval", "--model", model, "Y(a, M1(a*), M2(a*, M1(a*)))", "--a", "1", "--aref", "0"],
            ["simulate", "--model", model, "--n", "300", "--seed", "1", "--out", sim],
            ["decompose", "--model", model, *query],
            ["fit", "--data", lin, "--roles", lin_roles],
            ["decompose-linear", "--params", params, *query],
            ["bootstrap-report", "--data", sim, "--roles", write_roles(tmp_path),
             "--boot", "20", *query],
            ["bootstrap-report", "--data", lin, "--roles", lin_roles, "--method", "linear",
             "--boot", "20", *query],
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY, json.dumps(commands)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(commands), done.stderr
