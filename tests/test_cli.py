"""Experiment configuration, CSV outputs, and command-line entry points."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (GRAM_ESTIMATE_STEPS, GRAM_ESTIMATE_UNITS, nan_on_call,
                     nan_on_evaluation)
from iterreg import cli, solvers
from iterreg.cli import (ConfigError, ExperimentConfig, apply_stop_rule,
                         build_data, build_problem, expand_methods, main,
                         run_method, run_single, run_stopping_study,
                         run_work_precision)
from iterreg.testbed import (make_convolution_problem, make_diagonal_problem,
                             make_nonlinear_composite)

BASE = """
[problem]
kind = nonlinear-diagonal
m = 20
n = 28
decay_a = 0.35
seed = 3

[solver]
method = irgnm-prec
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
    assert cfg.solver["max_newton"] == 25
    assert cfg.stopping["r_bound"] is None
    assert cfg.noise["level"] == 0.02
    assert cfg.stopping["rule"] == "discrepancy"


def test_from_ini_matches_from_text(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE)
    assert ExperimentConfig.from_ini(path).as_dict() \
        == ExperimentConfig.from_text(BASE).as_dict()


def test_r_bound_parses_as_a_float_and_is_none_when_unset():
    # No word stands for "unset": r_bound = auto, none or an empty value is
    # refused as a float that cannot be parsed.
    assert ExperimentConfig.from_text("").stopping["r_bound"] is None
    cfg = ExperimentConfig.from_text("[stopping]\nr_bound = 2.5\n")
    assert cfg.stopping["r_bound"] == 2.5
    for word in ("auto", "none", ""):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(f"[stopping]\nr_bound = {word}\n")
        assert str(info.value) \
            == f"[stopping] r_bound: cannot parse {word!r} as float"


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


def test_hand_built_config_is_refused_before_its_run(tmp_path):
    # run_method does not validate: _bind_method itself refuses a method
    # no INI can name, with validate's words, and a bad rhs_kind, both
    # before any model unit is spent; run_single refuses the rhs_kind as a
    # ConfigError, which main reports with exit 2.
    cfg = ExperimentConfig(problem={"m": 8, "n": 10},
                           solver={"method": "bogus"})
    problem = build_problem(cfg)
    y_obs, _, _ = build_data(cfg, problem)
    units = problem.model.cost.total
    text = ("[solver] method: invalid value 'bogus' (choices: irgnm-prec, "
            "irgnm-plain, newton-cg, landweber)")
    for check in (cfg.validate, lambda: run_method(cfg, problem, y_obs)):
        with pytest.raises(ConfigError, match=re.escape(text)):
            check()
    cfg.solver.update(method="irgnm-prec", rhs_kind="gradient")
    text = "[solver] unknown rhs_kind 'gradient'"
    with pytest.raises(ConfigError, match=re.escape(text)):
        run_method(cfg, problem, y_obs)
    assert problem.model.cost.total == units
    with pytest.raises(ConfigError, match=re.escape(text)):
        run_single(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


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
                                                    "level = 0"))
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


@pytest.mark.parametrize("problem", [
    pytest.param("m = 60", id="nonlinear-diagonal"),
    pytest.param("kind = nonlinear-convolution\nn = 64",
                 id="nonlinear-convolution")])
def test_run_csv_explains_every_update_and_plain_event(tmp_path, problem):
    # csv_schema.md states irgnm-prec's Update rule on the inner_iterations
    # column: a row that is not a Recompute is an Update iff the Plain rows
    # since the last Recompute or Update row sum to at least that row's
    # inner_iterations, and to at least 1. A solve's run.csv re-derives
    # every Update and Plain event from that column alone, including the
    # Plain rows of 0 iterations, whose Galerkin start over the pair set
    # met the stop test and which pay no rent; the convolution has some.
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[problem]\n{problem}\n[solver]\nmax_newton = 30\n"
                   "[stopping]\nrule = none\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["event"] == "Recompute" and rows[-1]["event"] == "Final"
    plain = build = 0
    for row in rows[:-1]:
        if row["event"] != "Recompute":
            assert row["event"] \
                == ("Update" if plain >= max(build, 1) else "Plain")
        if row["event"] == "Plain":
            plain += int(row["inner_iterations"])
        else:
            plain, build = 0, int(row["inner_iterations"])
    events = [row["event"] for row in rows]
    assert events.count("Update") >= 2 and "Plain" in events
    if "convolution" in problem:
        assert any(row["event"] == "Plain" and row["inner_iterations"] == "0"
                   for row in rows)


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

    cfg.stopping["rule"] = "oracle-optimal"
    index, err, _ = apply_stop_rule(cfg, history, delta)
    assert err == min(r.error for r in history.records)

    cfg.stopping["rule"] = "none"
    index, _, _ = apply_stop_rule(cfg, history, delta)
    assert index == history.records[-1].k

    cfg.stopping["rule"] = "discrepancy"
    index, err, reached = apply_stop_rule(cfg, history, 1e-12)
    assert (index, err, reached) == (None, None, False)

    # Stopping at a fixed K is the step cap: a run capped at K = 2 repeats
    # the first three records of the longer run, and rule none stops at 2.
    cfg.solver["max_newton"] = 2
    capped = run_method(cfg, problem, y_obs)
    cfg.stopping["rule"] = "none"
    index, err, reached = apply_stop_rule(cfg, capped, delta)
    assert (index, err, reached) == (2, history.records[2].error, True)
    for short, full in zip(capped.records, history.records):
        np.testing.assert_array_equal(short.x_k, full.x_k)


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
    cfg.noise["samples"] = 3
    with pytest.raises(ConfigError, match="r_bound"):
        run_stopping_study(cfg, out_dir=tmp_path)
    cfg.stopping["r_bound"] = 2.0
    cfg.noise["samples"] = 1
    with pytest.raises(ConfigError, match="samples"):
        run_stopping_study(cfg, out_dir=tmp_path)


def test_stopping_study_outputs(tmp_path):
    cfg = ExperimentConfig.from_text(BASE)
    cfg.stopping["r_bound"] = 2.0
    cfg.noise["samples"] = 3
    rows, stats = run_stopping_study(cfg, out_dir=tmp_path)
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


_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_BAD_SOLVER_LINES = ("gamma0 = -1", "gamma_factor = 1.0", "max_newton = 0",
                     "max_inner = 0", "landweber_steps = -1")


def _solver_key_readers():
    """[solver] key -> the "Read by" cell of the README's config table."""
    with open(_README) as fh:
        return dict(re.findall(
            r"^\| `\[solver\] (\w+)` \|[^|]+\|[^|]+\|([^|]+)\|",
            fh.read(), re.M))


@pytest.mark.parametrize("method, line, key", [
    *((method, line, line.partition(" =")[0])
      for method in ("irgnm-prec", "irgnm-plain", "newton-cg", "landweber")
      for line in _BAD_SOLVER_LINES),
    ("irgnm-prec", "gamma_factor = inf", "gamma_factor"),
    ("newton-cg", "max_newton = -1", "max_newton"),
])
def test_main_invalid_solver_value_exits_2(tmp_path, capsys, method, line,
                                           key):
    # A method refuses a bad value, naming the key, exactly when the
    # README's "Read by" column lists it for that key; any other method
    # ignores the key and runs. Every method refuses a former key as an
    # unknown field.
    reads = ("solver", key) in _FORMER_KEYS \
        or f"`{method}`" in _solver_key_readers()[key]
    steps = "" if key == "landweber_steps" else "landweber_steps = 20\n"
    ini = tmp_path / "bad.ini"
    ini.write_text("[problem]\nm = 20\nn = 30\n"
                   f"[solver]\nmethod = {method}\n{steps}{line}\n")
    code = main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if reads:
        assert code == 2
        assert err.startswith(_refusal("solver", key)) and key in err
        assert not (tmp_path / "out").exists()
    else:
        assert (code, err) == (0, "")
        assert (tmp_path / "out" / "run.csv").exists()


@pytest.mark.parametrize("section, lines, key, flags", [
    ("stopping", "tau = 0.5", "tau", []),
    ("stopping", "rule = lepskii\nr_bound = 2\nrho = 3", "rho", []),
    ("stopping", "rule = lepskii\nr_bound = -1", "r_bound", []),
    *(("stopping", f"rule = lepskii\nr_bound = {word}", "r_bound", [])
      for word in ("auto", "none", "")),
    ("stopping", "phi = sampled\nphi_samples = 0", "phi_samples", []),
    ("noise", "level = nan", "level", []),
    ("noise", "seed = -1", "seed", []),
    ("noise", "seed = 5", "seed", ["--seed", "-1"]),
], ids=["tau", "rho", "r_bound", "r_bound_auto", "r_bound_none",
        "r_bound_empty", "phi_samples", "level", "seed", "seed_flag"])
def test_main_invalid_stopping_or_noise_value_exits_2(tmp_path, capsys,
                                                      section, lines, key,
                                                      flags):
    # Each value is checked before the problem is built, whichever step of
    # the run would first use it; the --seed override is checked as the
    # [noise] seed it replaces. A former key is an unknown field.
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[problem]\nm = 20\nn = 30\n[{section}]\n{lines}\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err.startswith(
        _refusal(section, key) if (section, key) in _FORMER_KEYS
        else f"config error: [{section}] {key}:")
    assert not (tmp_path / "out").exists()


def test_validate_checks_the_rules_the_verb_resolves(tmp_path):
    # The study resolves every study rule whatever the configured one;
    # work-precision resolves none and builds no Phi estimator.
    cfg = ExperimentConfig.from_text(
        "[stopping]\nrule = discrepancy\nr_bound = -1\n"
        "phi = sampled\nphi_samples = 0\n")
    with pytest.raises(ConfigError, match=r"\[stopping\] phi_samples"):
        cfg.validate()
    cfg.stopping["phi_samples"] = 5
    cfg.validate()
    cfg.noise["samples"] = 2
    with pytest.raises(ConfigError, match=r"\[stopping\] r_bound"):
        run_stopping_study(cfg, out_dir=tmp_path)
    cfg.stopping["phi_samples"] = 0
    expand_methods(cfg)
    cfg.validate(rules=())
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("lines", [
    "m = 300\nn = 200", "decay_a = -1", "c3 = -1",
    "kind = convolution\nn = 4", "scale = nan", "c3 = nan", "decay_a = inf",
    "seed = -1", "scale = 0", "scale = -1",
], ids=["m_above_n", "decay_a", "c3", "convolution_n", "scale_nan", "c3_nan",
        "decay_a_inf", "seed", "scale_zero", "scale_negative"])
def test_main_invalid_problem_value_exits_2(tmp_path, capsys, lines):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[problem]\n{lines}\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    key = lines.partition(" =")[0]
    assert capsys.readouterr().err.startswith(_refusal("problem", key))
    assert not (tmp_path / "out").exists()


# Keys the INI no longer accepts: the [solver] keys that became constants
# of iterreg.solvers, then five that only tests set, whose library
# defaults every other run used (sigma restated what level sets), then
# seven more that only tests set: gamma0 is always estimated, gamma_factor
# and max_inner are constants of iterreg.solvers, tau and rho of
# iterreg.stopping, updates are always on, and every method is
# equivariant under the problem's scale.
_FORMER_KEYS = (
    *(("solver", key) for key in (
        "eps_standard", "eps_accurate", "update_age_min", "update_inner_min",
        "recompute_inner_min", "ritz_separation", "ritz_residual_tol")),
    ("problem", "kernel_width"), ("problem", "c3"), ("solver", "landweber_mu"),
    ("solver", "newton_cg_rho"), ("noise", "sigma"), ("problem", "scale"),
    *(("solver", key) for key in (
        "gamma0", "gamma_factor", "max_inner", "enable_updates")),
    ("stopping", "tau"), ("stopping", "rho"))


def _refusal(section, key):
    """The start of the error for a bad value of [section] key: a former
    key is refused as an unknown field, whatever its value."""
    if (section, key) in _FORMER_KEYS:
        return f"config error: unknown field '{key}' in section [{section}]"
    return f"config error: [{section}]"


@pytest.mark.parametrize("lines, message", [
    ("[noise]\nkind = none", "unknown field 'kind' in section [noise]"),
    ("[noise]\nkind = white", "unknown field 'kind' in section [noise]"),
    ("[stopping]\nk_fixed = 3",
     "unknown field 'k_fixed' in section [stopping]"),
    ("[stopping]\nrule = fixed-K", "[stopping] rule: invalid value 'fixed-K'"),
    *((f"[{section}]\n{key} = 1",
       f"unknown field '{key}' in section [{section}]")
      for section, key in _FORMER_KEYS),
], ids=["noise_kind_none", "noise_kind_white", "k_fixed", "fixed_K",
        *(key for _, key in _FORMER_KEYS)])
def test_main_removed_option_exits_2(tmp_path, capsys, lines, message):
    # Exact data is level = 0; a fixed stop index is max_newton (or
    # landweber_steps) with rule = none; the CG tolerances, build guards and
    # Ritz selection thresholds are constants. The kernel width, c3, the
    # Landweber step size, the Newton-CG inner tolerance, gamma0 (the
    # estimate), the schedule factor, the inner cap, tau, rho and the
    # problem scale take their library defaults, updates are on, and level
    # alone sets the noise scale.
    ini = tmp_path / "old.ini"
    ini.write_text(f"{lines}\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


def test_main_landweber_on_vanishing_jacobian_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    # A problem of scale 1e-300 is valid, but A^T A underflows to zero, so
    # Landweber's step size has no estimate.
    monkeypatch.setattr(cli, "make_diagonal_problem",
                        lambda **kw: make_diagonal_problem(**kw, scale=1e-300))
    ini = tmp_path / "tiny.ini"
    ini.write_text("[problem]\nm = 8\nn = 12\n"
                   "[solver]\nmethod = landweber\nlandweber_steps = 10\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numerical breakdown: A^T A vanishes on the start vector: "
        "no estimate of ||A^T A||\n")


def test_summary_counts_inner_solves_stopped_by_the_cap(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(solvers, "MAX_INNER", 1)
    cfg = ExperimentConfig.from_text(BASE)
    history, summary = run_single(cfg, tmp_path / "solve")
    assert (summary["inner_unconverged"], history.terminal_reason) \
        == (1, "InnerCap")
    with open(tmp_path / "solve" / "summary.json") as fh:
        assert json.load(fh)["inner_unconverged"] \
            == summary["inner_unconverged"]

    cfg.solver["methods"] = "irgnm-prec, newton-cg, landweber"
    cfg.solver["landweber_steps"] = 5
    histories = run_work_precision(expand_methods(cfg), tmp_path / "wp")
    with open(tmp_path / "wp" / "summary.json") as fh:
        counts = json.load(fh)["inner_unconverged"]
    assert counts == {h.method: h.meta["inner_unconverged"]
                      for h in histories}
    assert counts["irgnm-prec"] == summary["inner_unconverged"]
    assert counts["landweber"] == 0


def test_summaries_report_the_estimate_and_its_units(tmp_path):
    # An estimated mu costs GRAM_ESTIMATE_UNITS units, and an estimated
    # gamma0 none once the first solve, which continues its Lanczos run,
    # takes at least GRAM_ESTIMATE_STEPS iterations. Each summary carries
    # the value the run used.
    cfg = ExperimentConfig.from_text(BASE)
    history, _ = run_single(cfg, tmp_path / "solve")
    with open(tmp_path / "solve" / "summary.json") as fh:
        summary = json.load(fh)
    assert history.records[0].inner_iterations >= GRAM_ESTIMATE_STEPS
    assert (summary["estimate_units"], summary["gamma0"], summary["mu"]) \
        == (0, history.meta["gamma0"], None)

    cfg.solver["methods"] = "irgnm-prec, newton-cg, landweber"
    cfg.solver["landweber_steps"] = 5
    histories = run_work_precision(expand_methods(cfg), tmp_path / "wp")
    with open(tmp_path / "wp" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["estimate_units"] == {
        "irgnm-prec": 0, "newton-cg": 0, "landweber": GRAM_ESTIMATE_UNITS}
    assert summary["gamma0"] == {"irgnm-prec": histories[0].meta["gamma0"],
                                 "newton-cg": None, "landweber": None}
    assert summary["mu"] == {"irgnm-prec": None, "newton-cg": None,
                             "landweber": histories[2].meta["mu"]}


def test_main_solve_newton_cg_ends_at_its_first_capped_solve(
        tmp_path, monkeypatch, capsys):
    # A capped inner solve ends a Newton-CG run: InnerCap is a finished
    # run, not a breakdown, so solve exits 0 and explains nothing on stderr.
    monkeypatch.setattr(solvers, "MAX_INNER", 1)
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE.replace("method = irgnm-prec", "method = newton-cg"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "terminal=InnerCap" in captured.out
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert (summary["terminal_reason"], summary["breakdown"]) \
        == ("InnerCap", None)
    assert summary["inner_unconverged"] == 1
    with open(out / "run.csv") as fh:
        assert list(csv.reader(fh))[-1][-1] == "Final"


def test_main_work_precision_reports_each_terminal_reason(
        tmp_path, monkeypatch, capsys):
    # A capped inner solve ends an irgnm run as it ends a Newton-CG run.
    monkeypatch.setattr(solvers, "MAX_INNER", 1)
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE.replace(
        "method = irgnm-prec",
        "methods = irgnm-prec, newton-cg, landweber\nlandweber_steps = 5"))
    out = tmp_path / "out"
    assert main(["work-precision", "--config", str(ini),
                 "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        reasons = json.load(fh)["terminal_reason"]
    assert reasons == {"irgnm-prec": "InnerCap", "newton-cg": "InnerCap",
                       "landweber": "StepCap"}
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] \
        == ["irgnm-prec", "newton-cg", "landweber"]
    for line in lines:
        method = line.split(":")[0]
        assert line.endswith(f" terminal={reasons[method]}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_overflowing_data_exits_3(tmp_path, monkeypatch, capsys):
    # A problem of scale 1e300 is valid, but the norm of its exact data
    # overflows; the CLI says so in one line and numpy warns about nothing.
    monkeypatch.setattr(cli, "make_diagonal_problem",
                        lambda **kw: make_diagonal_problem(**kw, scale=1e300))
    ini = tmp_path / "big.ini"
    ini.write_text("[problem]\nkind = nonlinear-diagonal\n")
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
    cfg.noise["samples"] = 3
    expected = [["sample_id", "rule", "stop_index", "error_at_stop"]]
    costs = []
    for i in range(3):
        rows, history = cli._study_sample(cfg, build_problem(cfg), i)
        expected += [[str(sample_id), rule,
                      "" if index is None else str(index), cli._fmt(error)]
                     for sample_id, rule, index, error in rows]
        costs.append(history.total_cost())

    calls = _counting_builds(monkeypatch)
    run_stopping_study(cfg, out_dir=tmp_path)
    assert len(calls) == 1
    with open(tmp_path / "stopping_samples.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected
    # The summary carries each sample's model units and their sum.
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["sample_total_cost"] == costs
    assert summary["total_cost"] == sum(costs) > 0


def test_main_seed_override(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE)
    main(["solve", "--config", str(ini), "--out", str(tmp_path / "a")])
    main(["solve", "--config", str(ini), "--out", str(tmp_path / "b"),
          "--seed", "123"])
    assert (tmp_path / "a" / "run.csv").read_bytes() \
        != (tmp_path / "b" / "run.csv").read_bytes()


@pytest.mark.parametrize("problem", [
    "kind = diagonal\nm = 20\nn = 28",
    "kind = nonlinear-diagonal\nm = 20\nn = 28",
    "kind = convolution\nn = 64",
    "kind = nonlinear-convolution\nn = 64",
], ids=["diagonal", "nonlinear-diagonal", "convolution",
        "nonlinear-convolution"])
def test_main_solve_runs_every_problem_kind(tmp_path, problem):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[problem]\n{problem}\n[solver]\nmax_newton = 12\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "run.csv").exists()
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["terminal_reason"] != "Breakdown"
    assert summary["config"]["problem"]["kind"] == problem.split()[2]


def test_main_check_verb(tmp_path, capsys):
    # The determinism rerun caps the run at 6 steps for every method, so
    # Landweber under rule none writes k = 0..6, not its 2,000 steps.
    for name, text in (("base", BASE),
                       ("convolution", "[problem]\nkind = convolution\n"
                                       "n = 64\n"),
                       ("landweber", "[solver]\nmethod = landweber\n"
                                     "[stopping]\nrule = none\n")):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(text)
        out = tmp_path / name
        assert main(["check", "--config", str(ini), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        for check in ("adjoint_mismatch", "jacobian_fd_order",
                      "oracle_self_consistency", "cg_contract",
                      "determinism"):
            assert f"{check}: ok" in printed, name
        with open(out / "check_report.json") as fh:
            report = json.load(fh)
        assert report["ok"] is True
        assert all(entry["ok"] is True for entry in report["checks"].values())
    with open(tmp_path / "landweber" / "_check_run" / "run.csv") as fh:
        assert [row[0] for row in csv.reader(fh)] \
            == ["k", *(str(k) for k in range(7))]


def _wrong_adjoint_bases(monkeypatch):
    """Bind a diagonal base whose adjoint is K^T w - B^T w, B a seeded
    Gaussian, in its operator (which the composite wraps) and its model."""
    def build(**kw):
        problem = make_diagonal_problem(**kw)
        k_apply, k_adjoint = problem.operator
        b = np.random.default_rng(0).standard_normal(problem.matrix.shape)
        operator = k_apply, lambda w: k_adjoint(w) - b.T @ w
        problem.model._linearize = lambda _x: operator
        return dataclasses.replace(problem, operator=operator)

    monkeypatch.setitem(cli._BASES, "diagonal",
                        (build, cli._BASES["diagonal"][1]))


def test_main_check_reports_a_check_that_raises(tmp_path, monkeypatch,
                                                capsys):
    # The wrong adjoint fails adjoint_mismatch, and the CG solve of
    # cg_contract breaks down on it: that check fails with the breakdown's
    # message, the report is still written, and the verb exits 3.
    _wrong_adjoint_bases(monkeypatch)
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE)
    out = tmp_path / "out"
    assert main(["check", "--config", str(ini), "--out", str(out)]) == 3
    with open(out / "check_report.json") as fh:
        report = json.load(fh)
    checks = report["checks"]
    assert report["ok"] is False
    assert checks["adjoint_mismatch"]["ok"] is False
    assert checks["cg_contract"]["ok"] is False
    assert re.fullmatch(r"pivot d_\d+ = -\S+ of T_l \+ shift I is not "
                        "positive", checks["cg_contract"]["value"])
    printed = capsys.readouterr().out
    assert "adjoint_mismatch: FAIL" in printed
    assert f"cg_contract: FAIL ({checks['cg_contract']['value']})" in printed


def test_main_work_precision_names_a_cg_breakdown(tmp_path, monkeypatch,
                                                  capsys):
    _wrong_adjoint_bases(monkeypatch)
    ini = tmp_path / "exp.ini"
    ini.write_text(BASE.replace("method = irgnm-prec",
                                "methods = irgnm-prec, irgnm-plain"))
    assert main(["work-precision", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 3
    assert re.search(r"^numerical breakdown: irgnm-plain: pivot d_\d+ = ",
                     capsys.readouterr().err, re.M)


def test_main_stopping_study_breakdown_exits_3(tmp_path, monkeypatch,
                                               capsys):
    # Under a strong cubic (c3 = 20) every sample diverges at k = 1 and ends
    # in Breakdown. The study still writes its outputs, names each failed
    # sample on stderr and in summary.json, and exits 3.
    monkeypatch.setattr(cli, "make_nonlinear_composite",
                        lambda base: make_nonlinear_composite(base, c3=20.0))
    ini = tmp_path / "exp.ini"
    ini.write_text("[noise]\nsamples = 3\n"
                   "[stopping]\nrule = lepskii\nr_bound = 5.0\nphi = white\n")
    out = tmp_path / "out"
    assert main(["stopping-study", "--config", str(ini),
                 "--out", str(out)]) == 3
    with open(out / "summary.json") as fh:
        breakdowns = json.load(fh)["breakdowns"]
    assert [b.split(": ")[:2] for b in breakdowns] == [
        [f"sample {i}", "irgnm-prec"] for i in range(3)]
    assert capsys.readouterr().err == "".join(
        f"numerical breakdown: {b}\n" for b in breakdowns)
    with open(out / "stopping_samples.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3 * 3
    assert (out / "stopping_summary.csv").exists()

    cfg = ExperimentConfig.from_ini(ini)
    with pytest.raises(cli.StudyBreakdownError) as info:
        run_stopping_study(cfg, out_dir=tmp_path / "again")
    assert info.value.messages == breakdowns
    assert info.value.stats["lepskii"]["samples_used"] == 3


@pytest.mark.parametrize("verb", ["solve", "stopping-study"])
@pytest.mark.parametrize("phi", ["deterministic", "white", "sampled"])
@pytest.mark.parametrize("method", cli._METHODS)
def test_lepskii_without_phi_exits_2(
        tmp_path, monkeypatch, capsys, method, phi, verb):
    # The balancing rule reads the run's Phi column: Landweber and
    # Newton-CG fill none, and irgnm-plain builds no pair set, so its white
    # or sampled Phi is 0 at every step. Such a run is refused before the
    # build and writes nothing; the study resolves lepskii whatever the
    # configured rule. Every other combination runs.
    calls = _counting_builds(monkeypatch)
    rule = "lepskii" if verb == "solve" else "discrepancy"
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[problem]\nm = 8\nn = 12\n[solver]\nmethod = {method}\n"
                   "max_newton = 4\nlandweber_steps = 10\n"
                   "[noise]\nsamples = 2\n"
                   f"[stopping]\nrule = {rule}\nr_bound = 5\nphi = {phi}\n")
    out = tmp_path / "out"
    code = main([verb, "--config", str(ini), "--out", str(out)])
    err = capsys.readouterr().err
    if method in ("newton-cg", "landweber"):
        assert err == (f"config error: [solver] method: {method} estimates "
                       "no Phi, which the balancing rule (lepskii) needs\n")
    elif method == "irgnm-plain" and phi != "deterministic":
        assert err == (f"config error: [stopping] phi: {phi} Phi is 0 at "
                       "every step of irgnm-plain, so the balancing rule "
                       "(lepskii) needs phi = deterministic there\n")
    else:
        assert (code, err) == (0, "")
        assert calls and out.exists()
        return
    assert code == 2
    assert not calls
    assert not out.exists()


@pytest.mark.parametrize("verb", ["solve", "check", "stopping-study"])
@pytest.mark.parametrize("noise", ["level = 0", "sigma = 0",
                                   "level = 0.5\nsigma = 0"],
                         ids=["level", "sigma", "sigma-over-level"])
def test_lepskii_on_exact_data_exits_2(tmp_path, monkeypatch, capsys, verb,
                                       noise):
    # Exact data make every Phi 0, so the balancing rule is refused before
    # the build. The study resolves lepskii whatever the configured rule.
    # level alone sets the noise scale: an old INI that asks for exact data
    # through sigma is refused as an unknown field, also before the build.
    calls = _counting_builds(monkeypatch)
    rule = "discrepancy" if verb == "stopping-study" else "lepskii"
    ini = tmp_path / "exp.ini"
    ini.write_text("[problem]\nm = 8\nn = 12\n[solver]\nmax_newton = 4\n"
                   f"[noise]\nsamples = 2\n{noise}\n"
                   f"[stopping]\nrule = {rule}\nr_bound = 5\n")
    code = main([verb, "--config", str(ini), "--out", str(tmp_path / "out")])
    message = ("unknown field 'sigma' in section [noise]" if "sigma" in noise
               else "[noise] level: exact data make Phi 0 at every step, so "
               "the balancing rule (lepskii) has nothing to balance")
    assert (code, capsys.readouterr().err) == (2, f"config error: {message}\n")
    assert not calls
    assert not (tmp_path / "out").exists()


def test_main_long_exact_data_run_reaches_its_cap(tmp_path):
    # Exact data under rule none: irgnm-prec runs to max_newton = 100 and
    # its error falls to the float floor without a Breakdown. Past k = 79
    # the shift rests on GAMMA_FLOOR; without the floor, M^-1 could not be
    # applied in floating point and the run ended in Breakdown at k = 87.
    ini = tmp_path / "exp.ini"
    ini.write_text("[problem]\nm = 30\nn = 40\n[solver]\nmax_newton = 100\n"
                   "[noise]\nlevel = 0\n[stopping]\nrule = none\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["terminal_reason"] != "Breakdown"
    assert summary["final_error"] <= 1e-12


_OVER_BUDGET_INI = """
[problem]
m = 20
n = 30
[solver]
max_newton = 8
[noise]
samples = 2
[stopping]
rule = lepskii
r_bound = 1e-6
phi = deterministic
"""


def test_main_solve_phi0_over_budget_is_not_reached(tmp_path, capsys):
    # Phi(0) already exceeds the error budget: the budget driver stops the
    # run at k = 0 and the balancing rule is not reached. The run itself
    # finished, so its outputs are written and solve exits 0.
    ini = tmp_path / "exp.ini"
    ini.write_text(_OVER_BUDGET_INI)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["stop_rule"] == {"rule": "lepskii", "stop_index": None,
                                    "error_at_stop": None, "reached": False}
    assert (summary["records"], summary["terminal_reason"]) == (1, "StopRule")
    with open(out / "run.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 2


def test_main_stopping_study_phi0_over_budget_is_not_reached(tmp_path,
                                                             capsys):
    # Each sample's balancing rule is not reached, so its lepskii row has
    # empty fields and the rule's summary uses no sample; the other rules
    # are resolved on the same one-record runs.
    ini = tmp_path / "exp.ini"
    ini.write_text(_OVER_BUDGET_INI)
    out = tmp_path / "out"
    assert main(["stopping-study", "--config", str(ini),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "stopping_samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row for row in rows if row[1] == "lepskii"] \
        == [["0", "lepskii", "", ""], ["1", "lepskii", "", ""]]
    assert [row[2] for row in rows if row[1] == "oracle-optimal"] == ["0", "0"]
    with open(out / "summary.json") as fh:
        assert json.load(fh)["rules"]["lepskii"]["samples_used"] == 0


def test_main_work_precision_refuses_a_method_listed_twice(
        tmp_path, monkeypatch, capsys):
    # Two runs under one name would interleave in work_precision.csv and
    # collide in the per-method maps of summary.json.
    calls = _counting_builds(monkeypatch)
    ini = tmp_path / "exp.ini"
    ini.write_text("[problem]\nm = 8\nn = 12\n[solver]\n"
                   "methods = landweber, irgnm-prec, landweber\n"
                   "landweber_steps = 10\n")
    assert main(["work-precision", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: [solver] methods: landweber is listed twice\n")
    assert not calls
    assert not (tmp_path / "out").exists()


def test_work_precision_refuses_a_repeated_method_before_the_build(
        tmp_path, monkeypatch):
    calls = _counting_builds(monkeypatch)
    cfg = ExperimentConfig.from_text(BASE)
    cfg.solver["method"] = "landweber"
    cfg.solver["landweber_steps"] = 10
    configs = [cfg, dataclasses.replace(cfg, solver=dict(cfg.solver))]
    configs[1].solver["landweber_steps"] = 20
    with pytest.raises(ConfigError) as info:
        run_work_precision(configs, tmp_path / "out")
    assert str(info.value) == "[solver] methods: landweber is listed twice"
    assert not calls
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["solve", "work-precision", "stopping-study",
                                  "check"])
@pytest.mark.parametrize("under, reason", [(False, "File exists"),
                                           (True, "Not a directory")],
                         ids=["regular-file", "under-a-file"])
def test_main_unusable_out_exits_2_before_any_solve(
        tmp_path, monkeypatch, capsys, verb, under, reason):
    # The directory is made after the build, which may refuse the
    # configuration without leaving one, and before any solve or check.
    def refuse(*_args, **_kwargs):
        raise AssertionError("ran past an unusable output directory")

    monkeypatch.setattr(cli, "run_method", refuse)
    monkeypatch.setattr(cli, "adjoint_mismatch", refuse)
    ini = tmp_path / "exp.ini"
    ini.write_text("[problem]\nm = 8\nn = 12\n[solver]\nmax_newton = 4\n"
                   "methods = irgnm-prec, landweber\nlandweber_steps = 10\n"
                   "[noise]\nsamples = 2\n[stopping]\nr_bound = 2.0\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    assert main([verb, "--config", str(ini), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: output directory {str(out)!r}: {reason}\n")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("verb", ["solve", "check"])
def test_exact_data_without_lepskii_runs(tmp_path, verb):
    ini = tmp_path / "exp.ini"
    ini.write_text("[problem]\nm = 8\nn = 12\n[solver]\nmax_newton = 4\n"
                   "[noise]\nlevel = 0\n[stopping]\nrule = oracle-optimal\n")
    assert main([verb, "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("problem, key", [
    ("kind = nonlinear-diagonal\nm = 400\nn = 800", "m"),
    ("kind = convolution\nn = 400", "n"),
], ids=["diagonal", "convolution"])
def test_main_check_above_dense_cap_exits_2_before_build(
        tmp_path, monkeypatch, capsys, problem, key):
    calls = _counting_builds(monkeypatch)
    ini = tmp_path / "big.ini"
    ini.write_text(f"[problem]\n{problem}\n")
    assert main(["check", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: [problem] {key}: domain dimension 400 exceeds the "
        "dense cap 300\n")
    assert not calls
    assert not (tmp_path / "out").exists()


_NUMERIC_KEYS = [(section, key) for section, keys in cli._SCHEMA.items()
                 for key, spec in keys.items()
                 if spec[0] in ("int", "float")]


def _ini_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in keys.items())
                   for name, keys in sections.items())


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(cli._METHODS),
       st.sampled_from(("discrepancy", "lepskii", "none")),
       st.sampled_from(_NUMERIC_KEYS),
       st.sampled_from(("0", "-1", "nan", "inf")))
def test_main_solve_boundary_value_exits_cleanly(method, rule, field, value):
    # Whatever a numeric key is set to, solve ends with exit 0, 2 or 3 and
    # raises nothing (numpy warnings are errors under pytest).
    sections = {"problem": {"m": "8", "n": "12"},
                "solver": {"method": method, "max_newton": "4",
                           "landweber_steps": "10"},
                "stopping": {"rule": rule, "r_bound": "5"}}
    section, key = field
    sections.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "exp.ini")
        with open(ini, "w") as fh:
            fh.write(_ini_text(sections))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--config", ini,
                         "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3)


# The verb and settings under which a run reads a numeric key; any other
# key is read by ``solve`` with irgnm-prec and the discrepancy rule.
_KEY_READERS = {
    ("solver", "landweber_steps"):
        ("solve", {"solver": {"method": "landweber"}}),
    ("noise", "samples"):
        ("stopping-study", {"stopping": {"rule": "lepskii"}}),
    ("stopping", "r_bound"): ("solve", {"stopping": {"rule": "lepskii"}}),
    ("stopping", "phi_samples"): ("solve", {"stopping": {"phi": "sampled"}}),
}


def _float_limit_cases():
    for section, key in [*_NUMERIC_KEYS, *_FORMER_KEYS]:
        verb, settings = _KEY_READERS.get((section, key), ("solve", {}))
        for value in ("1e308", "1e-300"):
            yield pytest.param(verb, settings, section, key, value,
                               id=f"{section}.{key}={value}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb, settings, section, key, value",
                         list(_float_limit_cases()))
def test_main_float_limit_value_exits_cleanly(tmp_path, capsys, verb,
                                              settings, section, key, value):
    # Every numeric key at the edges of the float range, on a tiny problem,
    # through a verb that reads it: a documented exit code, no traceback,
    # and no numpy warning (each would raise here). A former key is an
    # unknown field whatever its value.
    sections = {"problem": {"m": "8", "n": "12"},
                "solver": {"max_newton": "4", "landweber_steps": "10"},
                "noise": {"samples": "2"},
                "stopping": {"r_bound": "5"}}
    for name, keys in settings.items():
        sections[name].update(keys)
    sections[section][key] = value
    ini = tmp_path / "exp.ini"
    ini.write_text(_ini_text(sections))
    code = main([verb, "--config", str(ini), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "Warning" not in err
    if (section, key) in _FORMER_KEYS:
        assert (code, err) == (
            2, f"config error: unknown field '{key}' in section [{section}]\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key", ["level", "sigma"])
def test_main_noise_overflowing_the_float_range_exits_2(tmp_path, capsys,
                                                        key):
    # The level, and the sigma it sets, are finite, but the noisy data's
    # squared norm, which every residual norm takes, overflows. An old INI
    # that sets sigma itself is refused as an unknown field.
    ini = tmp_path / "loud.ini"
    ini.write_text(f"[problem]\nm = 8\nn = 12\n[noise]\n{key} = 1e308\n")
    assert main(["solve", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if key == "sigma":
        assert err == ("config error: unknown field 'sigma' in section "
                       "[noise]\n")
    else:
        assert err.startswith("config error: [noise] level: noise of scale "
                              "sigma = ")
        assert err.endswith(" overflows the float range\n")
    assert not (tmp_path / "out").exists()


def test_csv_schema_document_ships():
    import iterreg

    path = os.path.join(os.path.dirname(iterreg.__file__), "csv_schema.md")
    with open(path) as fh:
        text = fh.read()
    for header in ("run.csv", "work_precision.csv", "stopping_samples.csv",
                   "stopping_summary.csv", "cumulative_cost"):
        assert header in text


def test_rewritten_outputs_hold_exactly_the_new_bytes(tmp_path):
    # The writers build the text in memory and write it once: a shorter
    # rewrite leaves no tail of the longer one, and the bytes are those of
    # a first write.
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    cli._write_json(old, {"rows": list(range(200))})
    for path in (old, new):
        cli._write_json(path, {"b": 1.5, "a": [None, 2]})
    assert old.read_bytes() == new.read_bytes() \
        == b'{\n  "a": [\n    null,\n    2\n  ],\n  "b": 1.5\n}\n'
    cli._write_csv(old, ("k", "x"), [[k, repr(0.1 * k)] for k in range(200)])
    cli._write_csv(old, ("k", "x"), [[0, "1,5"], [1, ""]])
    assert old.read_bytes() == b'k,x\n0,"1,5"\n1,\n'


def test_readme_config_reference_matches_schema():
    # The README's table lists every INI key with the type and default that
    # cli._SCHEMA declares, so neither can drift from the code.
    with open(_README) as fh:
        rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([^|]+) \| ([^|]+) \|",
                          fh.read(), re.M)
    table = {}
    for section, key, kind, default in rows:
        kind, choices = kind.strip(), ()
        if kind.startswith("one of "):
            kind, choices = "choice", (tuple(re.findall(r"`([^`]+)`", kind)),)
        kind = {"text": "str"}.get(kind, kind)
        raw = "" if default.strip() == "(empty)" else default.strip(" `")
        value = None if raw == "(unset)" else \
            cli._parse_value(section, key, kind, raw, *choices)
        table[section, key] = (kind, value, *choices)
    assert len(rows) == len(table) == 17
    assert table == {(section, key): spec
                     for section, keys in cli._SCHEMA.items()
                     for key, spec in keys.items()}
