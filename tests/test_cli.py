"""Experiment configuration, CSV outputs, and command-line entry points."""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from helpers import nan_on_call, nan_on_evaluation
from iterreg import cli
from iterreg.cli import (ConfigError, ExperimentConfig, apply_stop_rule,
                         build_data, build_problem, expand_methods, main,
                         run_method, run_single, run_stopping_study,
                         run_work_precision)
from iterreg.testbed import make_convolution_problem

BASE = """
[problem]
kind = nonlinear-diagonal
m = 20
n = 28
decay_a = 0.35
seed = 3

[solver]
method = irgnm-prec
gamma_factor = 1.6
max_newton = 6

[noise]
level = 0.02
seed = 11

[stopping]
rule = discrepancy
"""


def test_defaults_fill_missing_sections():
    cfg = ExperimentConfig.from_text("")
    assert cfg.problem["kind"] == "nonlinear-diagonal"
    assert cfg.solver["gamma0"] is None
    assert cfg.solver["eps_standard"] == pytest.approx(1.0 / 3.0)
    assert cfg.noise["kind"] == "white"
    assert cfg.stopping["rule"] == "discrepancy"


def test_from_ini_matches_from_text(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE)
    assert ExperimentConfig.from_ini(path).as_dict() \
        == ExperimentConfig.from_text(BASE).as_dict()


def test_auto_sentinel_parses_to_none():
    cfg = ExperimentConfig.from_text("[solver]\ngamma0 = auto\n")
    assert cfg.solver["gamma0"] is None
    cfg = ExperimentConfig.from_text("[solver]\ngamma0 = 2.5\n")
    assert cfg.solver["gamma0"] == 2.5


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="regularization"):
        ExperimentConfig.from_text("[regularization]\nalpha = 1\n")


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig.from_text("[solver]\ngamma = 1\n")


def test_bad_choice_lists_alternatives():
    with pytest.raises(ConfigError, match="landweber"):
        ExperimentConfig.from_text("[solver]\nmethod = sor\n")


def test_bad_number_rejected():
    with pytest.raises(ConfigError, match="max_newton"):
        ExperimentConfig.from_text("[solver]\nmax_newton = many\n")


def test_lepskii_requires_error_budget():
    cfg = ExperimentConfig.from_text("[stopping]\nrule = lepskii\n")
    with pytest.raises(ConfigError, match="r_bound"):
        cfg.validate()
    cfg.stopping["r_bound"] = 5.0
    cfg.validate()


def test_expand_methods_copies_sections():
    cfg = ExperimentConfig.from_text(
        "[solver]\nmethods = irgnm-prec, newton-cg, landweber\n")
    configs = expand_methods(cfg)
    assert [c.solver["method"] for c in configs] \
        == ["irgnm-prec", "newton-cg", "landweber"]
    configs[0].problem["m"] = 999
    assert configs[1].problem["m"] != 999


def test_expand_methods_rejects_unknown():
    cfg = ExperimentConfig.from_text("[solver]\nmethods = irgnm-prec, sor\n")
    with pytest.raises(ConfigError, match="sor"):
        expand_methods(cfg)


def test_build_data_noise_levels():
    cfg = ExperimentConfig.from_text(BASE)
    problem = build_problem(cfg)
    y_obs, sigma, delta = build_data(cfg, problem)
    exact = problem.model.evaluate(problem.truth)
    assert delta == pytest.approx(sigma * np.sqrt(exact.size))
    assert np.linalg.norm(y_obs - exact) > 0

    quiet = ExperimentConfig.from_text(BASE.replace("level = 0.02",
                                                    "kind = none"))
    y_obs, sigma, delta = build_data(quiet, build_problem(quiet))
    assert sigma == 0.0 and delta == 0.0
    np.testing.assert_array_equal(y_obs, exact)


def test_convolution_build_holds_no_dense_operator(monkeypatch):
    # The composite runs on the base's FFT apply, so building the 2048-point
    # problem must not allocate the n x n circulant.
    bases = []

    def recording_base(**kwargs):
        bases.append(make_convolution_problem(**kwargs))
        return bases[-1]

    monkeypatch.setattr(cli, "make_convolution_problem", recording_base)
    cfg = ExperimentConfig.from_text(
        "[problem]\nkind = nonlinear-convolution\nn = 2048\n")
    problem = build_problem(cfg)
    assert problem.matrix is None
    assert len(bases) == 1 and bases[0].matrix is None


def test_run_single_outputs(tmp_path):
    cfg = ExperimentConfig.from_text(BASE)
    history, summary = run_single(cfg, tmp_path)
    with open(tmp_path / "run.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "m", "gamma", "residual_norm", "error",
                       "inner_iterations", "cumulative_cost", "phi", "event"]
    assert len(rows) == len(history.records) + 1
    assert rows[1][0] == "0"
    with open(tmp_path / "summary.json") as fh:
        loaded = json.load(fh)
    assert loaded["method"] == "irgnm-prec"
    assert loaded["total_cost"] == history.total_cost()
    assert loaded["stop_rule"]["rule"] == "discrepancy"


def test_run_single_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig.from_text(BASE)
    run_single(cfg, tmp_path / "a")
    run_single(ExperimentConfig.from_text(BASE), tmp_path / "b")
    assert (tmp_path / "a" / "run.csv").read_bytes() \
        == (tmp_path / "b" / "run.csv").read_bytes()


def test_noise_seed_changes_data(tmp_path):
    cfg = ExperimentConfig.from_text(BASE)
    run_single(cfg, tmp_path / "a")
    other = ExperimentConfig.from_text(BASE)
    other.noise["seed"] = 99
    run_single(other, tmp_path / "b")
    assert (tmp_path / "a" / "run.csv").read_bytes() \
        != (tmp_path / "b" / "run.csv").read_bytes()


def test_apply_stop_rule_variants():
    cfg = ExperimentConfig.from_text(BASE)
    problem = build_problem(cfg)
    y_obs, sigma, delta = build_data(cfg, problem)
    history = run_method(cfg, problem, y_obs)

    cfg.stopping["rule"] = "fixed-K"
    cfg.stopping["k_fixed"] = 2
    index, err, reached = apply_stop_rule(cfg, history, problem, delta)
    assert (index, reached) == (2, True)
    assert err == history.records[2].error

    cfg.stopping["k_fixed"] = 10_000     # clamps to the last record
    index, _, _ = apply_stop_rule(cfg, history, problem, delta)
    assert index == history.records[-1].k

    cfg.stopping["rule"] = "oracle-optimal"
    index, err, _ = apply_stop_rule(cfg, history, problem, delta)
    assert err == min(r.error for r in history.records)

    cfg.stopping["rule"] = "none"
    index, _, _ = apply_stop_rule(cfg, history, problem, delta)
    assert index == history.records[-1].k

    cfg.stopping["rule"] = "discrepancy"
    index, err, reached = apply_stop_rule(cfg, history, problem, 1e-12)
    assert (index, err, reached) == (None, None, False)


def test_work_precision_outputs(tmp_path):
    cfg = ExperimentConfig.from_text(BASE)
    cfg.solver["methods"] = "irgnm-prec, landweber"
    cfg.solver["landweber_steps"] = 40
    histories = run_work_precision(expand_methods(cfg), tmp_path)
    assert [h.method for h in histories] == ["irgnm-prec", "landweber"]
    with open(tmp_path / "work_precision.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "checkpoint", "model_units", "wall_time_s",
                       "error"]
    methods = {row[0] for row in rows[1:]}
    assert methods == {"irgnm-prec", "landweber"}
    units = [int(row[2]) for row in rows[1:] if row[0] == "landweber"]
    assert units == sorted(units)


def test_work_precision_rejects_mismatched_problems(tmp_path):
    a = ExperimentConfig.from_text(BASE)
    b = ExperimentConfig.from_text(BASE)
    b.problem["m"] = 10
    with pytest.raises(ConfigError, match="share"):
        run_work_precision([a, b], tmp_path)


def test_stopping_study_requires_budget_and_samples(tmp_path):
    cfg = ExperimentConfig.from_text(BASE)
    with pytest.raises(ConfigError, match="r_bound"):
        run_stopping_study(cfg, num_samples=3, out_dir=tmp_path)
    cfg.stopping["r_bound"] = 2.0
    with pytest.raises(ConfigError, match="samples"):
        run_stopping_study(cfg, num_samples=1, out_dir=tmp_path)


def test_stopping_study_outputs(tmp_path):
    cfg = ExperimentConfig.from_text(BASE)
    cfg.stopping["r_bound"] = 2.0
    rows, stats = run_stopping_study(cfg, num_samples=3, out_dir=tmp_path)
    assert len(rows) == 9    # 3 samples x 3 rules
    assert {r[1] for r in rows} == {"discrepancy", "lepskii",
                                    "oracle-optimal"}
    assert stats["oracle-optimal"]["samples_used"] == 3
    with open(tmp_path / "stopping_samples.csv", newline="") as fh:
        sample_rows = list(csv.reader(fh))
    assert sample_rows[0] == ["sample_id", "rule", "stop_index",
                              "error_at_stop"]
    with open(tmp_path / "stopping_summary.csv", newline="") as fh:
        summary_rows = list(csv.reader(fh))
    assert summary_rows[0] == ["rule", "samples_used", "mean_stop_index",
                               "std_stop_index", "mean_error", "std_error"]
    assert len(summary_rows) == 4


def test_main_solve_and_exit_codes(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "run.csv").exists()
    assert "method=irgnm-prec" in capsys.readouterr().out

    assert main(["solve", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(out)]) == 2

    bad = tmp_path / "bad.ini"
    bad.write_text("[solver]\nunknown_field = 1\n")
    assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2


@pytest.mark.parametrize("method, line, key", [
    ("irgnm-prec", "gamma_factor = 1.0", "gamma_factor"),
    ("irgnm-prec", "gamma_factor = inf", "gamma_factor"),
    ("irgnm-prec", "gamma0 = -1", "gamma0"),
    ("irgnm-plain", "eps_standard = 1.5", "eps_standard"),
    ("irgnm-prec", "max_inner = 0", "max_inner"),
    ("newton-cg", "max_newton = -1", "max_newton"),
    ("newton-cg", "newton_cg_rho = 1.5", "newton_cg_rho"),
    ("landweber", "landweber_mu = -1", "landweber_mu"),
    ("landweber", "landweber_mu = inf", "landweber_mu"),
    ("irgnm-prec", "ritz_separation = 0", "ritz_separation"),
    ("landweber", "landweber_steps = -1", "landweber_steps"),
])
def test_main_invalid_solver_value_exits_2(tmp_path, capsys, method, line,
                                           key):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[solver]\nmethod = {method}\n{line}\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver]") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, lines, key", [
    ("stopping", "tau = 0.5", "tau"),
    ("stopping", "rule = lepskii\nr_bound = 2\nrho = 3", "rho"),
    ("stopping", "rule = lepskii\nr_bound = -1", "r_bound"),
    ("stopping", "phi = sampled\nphi_samples = 0", "phi_samples"),
    ("noise", "sigma = -1", "sigma"),
    ("noise", "level = nan", "level"),
], ids=["tau", "rho", "r_bound", "phi_samples", "sigma", "level"])
def test_main_invalid_stopping_or_noise_value_exits_2(tmp_path, capsys,
                                                      section, lines, key):
    # Each value is checked before the problem is built, whichever step of
    # the run would first use it.
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[problem]\nm = 20\nn = 30\n[{section}]\n{lines}\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: [{section}] {key}:")
    assert not (tmp_path / "out").exists()


def test_validate_checks_the_rules_the_verb_resolves(tmp_path):
    # The study resolves every study rule whatever the configured one;
    # work-precision resolves none and builds no Phi estimator.
    cfg = ExperimentConfig.from_text(
        "[stopping]\nrule = lepskii\nr_bound = 2\ntau = 0.5\n"
        "phi = sampled\nphi_samples = 0\n")
    with pytest.raises(ConfigError, match=r"\[stopping\] phi_samples"):
        cfg.validate()
    cfg.stopping["phi_samples"] = 5
    cfg.validate()
    with pytest.raises(ConfigError, match=r"\[stopping\] tau"):
        run_stopping_study(cfg, num_samples=2, out_dir=tmp_path)
    cfg.stopping.update(phi_samples=0, r_bound=-1.0)
    expand_methods(cfg)
    cfg.validate(rules=())
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("lines", [
    "m = 300\nn = 200", "decay_a = -1", "c3 = -1",
    "kind = convolution\nn = 4", "scale = nan", "c3 = nan", "decay_a = inf",
], ids=["m_above_n", "decay_a", "c3", "convolution_n", "scale_nan", "c3_nan",
        "decay_a_inf"])
def test_main_invalid_problem_value_exits_2(tmp_path, capsys, lines):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[problem]\n{lines}\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: [problem]")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_overflowing_data_exits_3(tmp_path, capsys):
    # The problem is valid, but the norm of its exact data overflows; the
    # CLI says so in one line and numpy warns about nothing.
    ini = tmp_path / "big.ini"
    ini.write_text("[problem]\nscale = 1e300\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numerical breakdown: data norm overflows the float range\n")


def test_main_solve_model_failure_exits_3(tmp_path, monkeypatch, capsys):
    # A NaN from the model's Jacobian inside an inner solve ends the run in
    # a Breakdown record; the CLI writes its outputs, explains the failure
    # on stderr and in summary.json, and exits 3.
    def failing_problem(cfg):
        problem = build_problem(cfg)
        return dataclasses.replace(problem,
                                   model=nan_on_call(problem.model, 12))

    monkeypatch.setattr(cli, "build_problem", failing_problem)
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--out", str(out)]) == 3
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["terminal_reason"] == "Breakdown"
    assert "non-finite" in summary["breakdown"]
    with open(out / "run.csv") as fh:
        assert list(csv.reader(fh))[-1][-1] == "Final"
    err = capsys.readouterr().err
    assert err == f"numerical breakdown: irgnm-prec: {summary['breakdown']}\n"

    monkeypatch.undo()
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "ok")]) == 0
    with open(tmp_path / "ok" / "summary.json") as fh:
        assert json.load(fh)["breakdown"] is None


def test_main_solve_evaluation_failure_exits_3(tmp_path, monkeypatch,
                                               capsys):
    # F(x_3) is NaN (build_data spends the first evaluation): the run keeps
    # records 0..2, run.csv and summary.json are written, and the CLI
    # exits 3.
    def failing_problem(cfg):
        problem = build_problem(cfg)
        return dataclasses.replace(
            problem, model=nan_on_evaluation(problem.model, 5))

    monkeypatch.setattr(cli, "build_problem", failing_problem)
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--out", str(out)]) == 3
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["terminal_reason"] == "Breakdown"
    assert summary["records"] == 3
    assert "non-finite" in summary["breakdown"]
    with open(out / "run.csv") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
    assert rows[-1][-1] == "Final"
    err = capsys.readouterr().err
    assert err == f"numerical breakdown: irgnm-prec: {summary['breakdown']}\n"


def _counting_builds(monkeypatch):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return build_problem(cfg)

    monkeypatch.setattr(cli, "build_problem", counted)
    return calls


def test_work_precision_builds_once_and_matches_separate_builds(
        tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_text(BASE)
    cfg.solver["methods"] = "irgnm-prec, irgnm-plain, newton-cg, landweber"
    cfg.solver["landweber_steps"] = 40
    configs = expand_methods(cfg)
    expected = [["method", "checkpoint", "model_units", "error"]]
    for sub in configs:
        problem = build_problem(sub)
        y_obs, _, _ = build_data(sub, problem)
        history = run_method(sub, problem, y_obs)
        expected += [[history.method, str(r.k), str(r.cumulative_cost),
                      cli._fmt(r.error)] for r in history.records]

    calls = _counting_builds(monkeypatch)
    run_work_precision(configs, tmp_path)
    assert len(calls) == 1
    with open(tmp_path / "work_precision.csv", newline="") as fh:
        rows = [row[:3] + row[4:] for row in csv.reader(fh)]
    assert rows == expected


def test_stopping_study_builds_once_and_matches_separate_builds(
        tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_text(BASE)
    cfg.stopping["r_bound"] = 2.0
    expected = [["sample_id", "rule", "stop_index", "error_at_stop"]]
    for i in range(3):
        expected += [[str(sample_id), rule,
                      "" if index is None else str(index), cli._fmt(error)]
                     for sample_id, rule, index, error
                     in cli._study_sample(cfg, build_problem(cfg), i)]

    calls = _counting_builds(monkeypatch)
    run_stopping_study(cfg, num_samples=3, out_dir=tmp_path)
    assert len(calls) == 1
    with open(tmp_path / "stopping_samples.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected


def test_main_seed_override(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE)
    main(["solve", "--config", str(ini), "--out", str(tmp_path / "a")])
    main(["solve", "--config", str(ini), "--out", str(tmp_path / "b"),
          "--seed", "123"])
    assert (tmp_path / "a" / "run.csv").read_bytes() \
        != (tmp_path / "b" / "run.csv").read_bytes()


def test_main_check_verb(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE)
    out = tmp_path / "out"
    assert main(["check", "--config", str(ini), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for name in ("adjoint_mismatch", "jacobian_fd_order",
                 "oracle_self_consistency", "cg_contract", "determinism"):
        assert f"{name}: ok" in text
    with open(out / "check_report.json") as fh:
        report = json.load(fh)
    assert report["ok"] is True


def test_csv_schema_document_ships():
    import iterreg

    path = os.path.join(os.path.dirname(iterreg.__file__), "csv_schema.md")
    with open(path) as fh:
        text = fh.read()
    for header in ("run.csv", "work_precision.csv", "stopping_samples.csv",
                   "stopping_summary.csv", "cumulative_cost"):
        assert header in text
