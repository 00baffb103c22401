"""Command-line front end: configure problems, solvers, and stopping rules
from an INI file, run single inversions or multi-sample experiments, and emit
deterministic CSV/JSON tables.

Verbs: ``solve`` (one inversion), ``work-precision`` (error-vs-cost rows for
several methods on shared data), ``stopping-study`` (stop-rule comparison
over noise replicas), ``check`` (invariant suite on a configured problem).
Exit codes: 0 success, 2 configuration error, 3 numerical breakdown.
``_bind_method`` is where each method's [solver] keys are read and checked,
``_bind_rule`` where each stop rule's driver, resolver and checks live.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .krylov import pcg_solve
from .operators import (ContractError, TikhonovSystem, adjoint_mismatch,
                        jacobian_fd_order)
from .solvers import (TERMINAL_BREAKDOWN, check_newton_settings,
                      check_step_cap, irgnm_run, landweber_run, newton_cg_run)
from .stopping import (DeterministicPhi, DiscrepancyDriver, PhiBudgetDriver,
                       SampledPhi, WhiteNoisePhi, discrepancy_stop,
                       lepskii_from_history)
from .testbed import (DenseOracle, OracleRefusal, check_oracle_dim,
                      generate_noise, make_convolution_problem,
                      make_diagonal_problem, make_nonlinear_composite,
                      noise_sigma_for_level)

RUN_CSV_HEADER = ("k", "m", "gamma", "residual_norm", "error",
                  "inner_iterations", "cumulative_cost", "phi", "event")
WP_CSV_HEADER = ("method", "checkpoint", "model_units", "wall_time_s", "error")
SAMPLES_CSV_HEADER = ("sample_id", "rule", "stop_index", "error_at_stop")
SUMMARY_CSV_HEADER = ("rule", "samples_used", "mean_stop_index",
                      "std_stop_index", "mean_error", "std_error")

STUDY_RULES = ("discrepancy", "lepskii", "oracle-optimal")

# Run meta the solve summary carries, and the work-precision summary per
# method: gamma0 or mu is null for a method that has none.
_SUMMARY_META = ("inner_unconverged", "estimate_units", "gamma0", "mu")

_METHODS = ("irgnm-prec", "irgnm-plain", "newton-cg", "landweber")
_RULES = ("discrepancy", "lepskii", "oracle-optimal", "none")

# Base kind -> (builder, the [problem] keys it reads, the first sizing the
# domain the dense oracle caps); "nonlinear-<kind>" wraps it in
# make_nonlinear_composite. A builder calls through this module's name, so
# a wrapper bound there (a test double, perfbench's tracer) sees the call.
_BASES = {
    "diagonal": (lambda **kw: make_diagonal_problem(**kw),
                 ("m", "n", "decay_a", "seed")),
    "convolution": (lambda **kw: make_convolution_problem(**kw),
                    ("n", "seed")),
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class StudyBreakdownError(RuntimeError):
    """Stopping-study samples ended in Breakdown; the outputs are written.

    ``messages`` holds one ``sample <i>: <method>: <message>`` per failed
    sample and ``stats`` the per-rule summary the study would have returned.
    """

    def __init__(self, messages, stats):
        super().__init__("; ".join(messages))
        self.messages = messages
        self.stats = stats


# Schema: section -> key -> (type, default). A default of None means unset:
# the one consumer that needs the key (lepskii, for r_bound) refuses it.
_SCHEMA = {
    "problem": {
        "kind": ("choice", "nonlinear-diagonal",
                 (*_BASES, *("nonlinear-" + base for base in _BASES))),
        "m": ("int", 100),
        "n": ("int", 200),
        "decay_a": ("float", 0.25),
        "seed": ("int", 1),
    },
    "solver": {
        "method": ("choice", "irgnm-prec", _METHODS),
        "methods": ("str", ""),
        "rhs_kind": ("choice", "irgnm", ("irgnm", "levenberg-marquardt")),
        "max_newton": ("int", 25),
        "landweber_steps": ("int", 2000),
    },
    "noise": {
        "level": ("float", 0.02),
        "seed": ("int", 7),
        "samples": ("int", 1),
    },
    "stopping": {
        "rule": ("choice", "discrepancy", _RULES),
        "r_bound": ("float", None),
        "phi": ("choice", "white", ("deterministic", "white", "sampled")),
        "phi_samples": ("int", 50),
    },
}


def _parse_value(section, key, kind, raw, choices=None):
    raw = raw.strip()
    if kind == "choice" and raw not in choices:
        raise ConfigError(f"[{section}] {key}: invalid value {raw!r} "
                          f"(choices: {', '.join(choices)})")
    try:
        return {"int": int, "float": float}.get(kind, str)(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind}") from None


@dataclass
class ExperimentConfig:
    """Typed view of the four INI sections; a config plus the package version
    uniquely determines every run output."""

    problem: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    stopping: dict = field(default_factory=dict)

    def __post_init__(self):
        for section, keys in _SCHEMA.items():
            store = getattr(self, section)
            for key, spec in keys.items():
                if key not in store:
                    store[key] = spec[1]

    @classmethod
    def from_parser(cls, cp: configparser.ConfigParser):
        data = {section: {} for section in _SCHEMA}
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in cp.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        f"unknown field {key!r} in section [{section}]")
                spec = _SCHEMA[section][key]
                choices = spec[2] if spec[0] == "choice" else None
                data[section][key] = _parse_value(section, key, spec[0], raw,
                                                  choices)
        return cls(**data)

    @classmethod
    def from_ini(cls, path):
        cp = configparser.ConfigParser()
        if not cp.read(path):
            raise ConfigError(f"config file not found: {path}")
        return cls.from_parser(cp)

    @classmethod
    def from_text(cls, text):
        cp = configparser.ConfigParser()
        cp.read_string(text)
        return cls.from_parser(cp)

    def as_dict(self):
        return {section: dict(getattr(self, section)) for section in _SCHEMA}

    def validate(self, methods=None, rules=None):
        """Check each value a verb running ``methods`` and resolving the stop
        ``rules`` uses; work-precision resolves none and builds no Phi."""
        methods = methods or [self.solver["method"]]
        rules = [self.stopping["rule"]] if rules is None else rules
        if not 0 <= self.noise["level"] < np.inf:
            raise ConfigError("[noise] level: must be nonnegative and finite")
        for section in ("problem", "noise"):
            if getattr(self, section)["seed"] < 0:
                raise ConfigError(f"[{section}] seed: must be nonnegative")
        for i, m in enumerate(methods):
            if m not in _METHODS:
                raise ConfigError(
                    f"[solver] method: invalid value {m!r} "
                    f"(choices: {', '.join(_METHODS)})")
            _refuse_repeat(m, methods[:i])
        # In _METHODS order: the key refused first ignores the list order.
        for m in sorted(methods, key=_METHODS.index):
            _bind_method(self, m)
        for rule in rules:
            _bind_rule(self, rule, methods)
        # The sampled Phi's own check; a (count, 0) draw is empty.
        if rules and self.stopping["phi"] == "sampled":
            try:
                generate_noise(0.0, 0, count=self.stopping["phi_samples"])
            except ContractError as exc:
                raise ConfigError(f"[stopping] phi_samples: {exc}") from None


def _refuse_repeat(method, earlier):
    """A method listed twice would write two runs under one name."""
    if method in earlier:
        raise ConfigError(f"[solver] methods: {method} is listed twice")


def _make_out_dir(out_dir):
    """Create a verb's output directory once its problem (and data) are
    built, before any solve: a path that cannot be one, such as a regular
    file or a path under one, is a ConfigError. A configuration the build
    refuses leaves no directory behind."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {os.fspath(out_dir)!r}: "
                          f"{exc.strerror}") from None


def build_problem(cfg: ExperimentConfig):
    """The configured testbed; values it rejects raise a ConfigError."""
    p = cfg.problem
    builder, keys = _BASES[p["kind"].removeprefix("nonlinear-")]
    try:
        base = builder(**{key: p[key] for key in keys})
        if p["kind"].startswith("nonlinear-"):
            return make_nonlinear_composite(base)
        return base
    except ContractError as exc:
        raise ConfigError(f"[problem] {exc}") from None


def build_data(cfg: ExperimentConfig, problem, noise_seed=None):
    """Exact data, one noise realization, and the calibrated noise scales.

    Returns (y_obs, sigma, delta): sigma is the component scale that
    ``[noise] level`` sets, and delta = sigma * sqrt(N) the expected noise
    norm used by the discrepancy test. Level 0 gives exact data. The solvers
    take norms as square roots of squared sums, so exact data whose squared
    norm overflows raise a ContractError (from noise_sigma_for_level), and a
    level that makes delta or the squared norm of y_obs overflow raises a
    ConfigError.
    """
    y_exact = problem.model.evaluate(problem.truth)
    n = y_exact.shape[0]
    sigma = noise_sigma_for_level(y_exact, cfg.noise["level"])
    seed = cfg.noise["seed"] if noise_seed is None else noise_seed
    with np.errstate(over="ignore"):
        y_obs = y_exact + generate_noise(sigma, n, count=1, seed=seed)[0]
        delta = sigma * np.sqrt(n)
        noisy_sq = y_obs.dot(y_obs)
    if not (np.isfinite(delta) and np.isfinite(noisy_sq)):
        raise ConfigError("[noise] level: noise of scale sigma = "
                          f"{float(sigma)!r} overflows the float range")
    return y_obs, float(sigma), float(delta)


def build_phi_estimator(cfg: ExperimentConfig, sigma, delta, range_dim,
                        noise_seed):
    which = cfg.stopping["phi"]
    if which == "deterministic":
        return DeterministicPhi(delta)
    if which == "white":
        return WhiteNoisePhi(sigma)
    samples = generate_noise(sigma, range_dim, count=cfg.stopping["phi_samples"],
                             seed=noise_seed + 90001)
    return SampledPhi(samples)


def _bind_method(cfg: ExperimentConfig, method, phi_estimator=None):
    """``method``'s library run, the [solver] keys it reads checked and bound
    (irgnm-*: rhs_kind and max_newton; Newton-CG: max_newton; Landweber:
    landweber_steps). Looked up per call, so a wrapper bound in this module
    (perfbench's tracer) is the one that runs."""
    solver = cfg.solver
    try:
        if method in ("irgnm-prec", "irgnm-plain"):
            settings = {"variant": method.removeprefix("irgnm-"),
                        "rhs_kind": solver["rhs_kind"],
                        "max_newton": solver["max_newton"]}
            check_newton_settings(**settings)
            return functools.partial(irgnm_run, **settings,
                                     phi_estimator=phi_estimator)
        if method == "newton-cg":
            check_newton_settings(solver["max_newton"])
            return functools.partial(newton_cg_run,
                                     max_newton=solver["max_newton"])
        if method == "landweber":
            check_step_cap(solver["landweber_steps"])
            return functools.partial(landweber_run,
                                     max_steps=solver["landweber_steps"])
    except ContractError as exc:
        prefix = "landweber_steps: " if method == "landweber" else ""
        raise ConfigError(f"[solver] {prefix}{exc}") from None
    raise ConfigError(f"[solver] method: invalid value {method!r} "
                      f"(choices: {', '.join(_METHODS)})")


def _bind_rule(cfg: ExperimentConfig, rule, methods=()):
    """``rule``'s (drive, resolve): ``drive(delta)`` is the stop driver a
    run on data of noise norm delta consults (drive is None for a run that
    goes to its cap); ``resolve(history, delta)`` reads the stop index off
    a finished run, None if the rule never fires. Raises the rule's
    ConfigErrors, its needs of ``methods`` among them. The resolvers look
    the library up per call, so a wrapper bound in this module (perfbench's
    tracer) is the one that runs."""
    if rule == "discrepancy":
        return (DiscrepancyDriver, lambda history, delta: discrepancy_stop(
            history.residual_norms(), delta))
    if rule == "oracle-optimal":
        return None, lambda history, delta: int(
            np.argmin([r.error for r in history.records]))
    if rule != "lepskii":
        return None, lambda history, delta: history.records[-1].k
    bound = cfg.stopping["r_bound"]
    if bound is None:
        raise ConfigError(
            "[stopping] r_bound: the balancing rule needs an error budget "
            "R, an upper bound on the initial error (problem knowledge)")
    if cfg.noise["level"] == 0:
        raise ConfigError(
            "[noise] level: exact data make Phi 0 at every step, "
            "so the balancing rule (lepskii) has nothing to balance")
    # Landweber and Newton-CG estimate no Phi, and irgnm-plain builds no
    # pair set, so its white or sampled Phi reads 0 at every step.
    for m in methods:
        if m in ("newton-cg", "landweber"):
            raise ConfigError(f"[solver] method: {m} estimates no Phi, "
                              "which the balancing rule (lepskii) needs")
        if m == "irgnm-plain" and cfg.stopping["phi"] != "deterministic":
            raise ConfigError(
                f"[stopping] phi: {cfg.stopping['phi']} Phi is 0 at every "
                "step of irgnm-plain, so the balancing rule (lepskii) needs "
                "phi = deterministic there")
    try:
        stop = PhiBudgetDriver(bound)
    except ContractError as exc:
        raise ConfigError(f"[stopping] r_bound: {exc}") from None
    return (lambda delta: stop,
            lambda history, delta: lepskii_from_history(history, bound))


def run_method(cfg: ExperimentConfig, problem, y_obs, stop=None,
               phi_estimator=None):
    """Run the configured method on ``problem`` from x0 = 0."""
    run = _bind_method(cfg, cfg.solver["method"], phi_estimator)
    return run(problem.model, y_obs, np.zeros(problem.model.domain_dim),
               stop=stop, truth=problem.truth)


def _fmt(value):
    return "" if value is None else repr(float(value))


def _write_csv(path, header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(text.getvalue())


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_run_csv(path, history):
    _write_csv(path, RUN_CSV_HEADER, (
        [r.k, r.m, _fmt(r.gamma_k), _fmt(r.residual_norm), _fmt(r.error),
         r.inner_iterations, r.cumulative_cost, _fmt(r.phi_k), r.event]
        for r in history.records))


def apply_stop_rule(cfg: ExperimentConfig, history, delta, rule=None):
    """Resolve ``rule`` (default: the configured one) on a finished run to
    (stop_index, error_at_stop, reached)."""
    _, resolve = _bind_rule(cfg, rule or cfg.stopping["rule"])
    index = resolve(history, delta)
    if index is None:
        return None, None, False
    return index, history.records[index].error, True


def run_single(cfg: ExperimentConfig, out_dir):
    """One configured inversion; writes run.csv and summary.json."""
    cfg.validate()
    t0 = time.perf_counter()
    problem = build_problem(cfg)
    y_obs, sigma, delta = build_data(cfg, problem)
    _make_out_dir(out_dir)
    phi_estimator = build_phi_estimator(cfg, sigma, delta,
                                        problem.model.range_dim,
                                        cfg.noise["seed"])
    drive, _ = _bind_rule(cfg, cfg.stopping["rule"])
    history = run_method(cfg, problem, y_obs, stop=drive and drive(delta),
                         phi_estimator=phi_estimator)
    index, error_at_stop, reached = apply_stop_rule(cfg, history, delta)

    write_run_csv(os.path.join(out_dir, "run.csv"), history)
    summary = {
        "version": __version__,
        "config": cfg.as_dict(),
        "problem": problem.describe(),
        "method": history.method,
        "noise": {"sigma": sigma, "delta": delta},
        "terminal_reason": history.terminal_reason,
        "breakdown": history.meta.get("breakdown"),
        "records": len(history.records),
        "total_cost": history.total_cost(),
        **{key: history.meta.get(key) for key in _SUMMARY_META},
        "final_error": history.records[-1].error,
        "stop_rule": {
            "rule": cfg.stopping["rule"],
            "stop_index": index,
            "error_at_stop": error_at_stop,
            "reached": reached,
        },
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return history, summary


def run_work_precision(configs, out_dir):
    """Error-vs-cost rows for several methods on identical problem and data.

    ``configs`` is a list of ExperimentConfig differing only in the solver
    section; shared problem and noise sections are enforced.
    """
    if not configs:
        raise ConfigError("work-precision needs at least one configuration")
    head = configs[0]
    for other in configs[1:]:
        if other.problem != head.problem or other.noise != head.noise:
            raise ConfigError(
                "work-precision configs must share [problem] and [noise]")
    methods = [cfg.solver["method"] for cfg in configs]
    for i, cfg in enumerate(configs):
        cfg.validate([methods[i]], rules=())
        _refuse_repeat(methods[i], methods[:i])
    # One problem serves every method: each run's units are counted from
    # the model meter's value at its start.
    problem = build_problem(head)
    y_obs, _, _ = build_data(head, problem)
    _make_out_dir(out_dir)
    histories = [run_method(cfg, problem, y_obs) for cfg in configs]

    _write_csv(os.path.join(out_dir, "work_precision.csv"), WP_CSV_HEADER, (
        [h.method, r.k, r.cumulative_cost, repr(r.wall_time_s), _fmt(r.error)]
        for h in histories for r in h.records))
    _write_json(os.path.join(out_dir, "summary.json"), {
        "version": __version__,
        "config": head.as_dict(),
        "methods": [h.method for h in histories],
        "total_cost": {h.method: h.total_cost() for h in histories},
        **{key: {h.method: h.meta.get(key) for h in histories}
           for key in _SUMMARY_META},
        "final_error": {h.method: h.records[-1].error for h in histories},
        "terminal_reason": {h.method: h.terminal_reason for h in histories},
    })
    return histories


def expand_methods(cfg: ExperimentConfig):
    """Per-method configs from the comma-separated [solver] methods field."""
    names = [m.strip() for m in cfg.solver["methods"].split(",")
             if m.strip()] or [cfg.solver["method"]]
    cfg.validate(names, rules=())
    out = []
    for name in names:
        sub = copy.deepcopy(cfg)
        sub.solver["method"] = name
        out.append(sub)
    return out


def _study_sample(cfg: ExperimentConfig, problem, sample_id):
    """One noise replica of the stopping study on the study's problem:
    its (sample_id, rule, stop_index, error) rows and its run history."""
    noise_seed = cfg.noise["seed"] + sample_id
    y_obs, sigma, delta = build_data(cfg, problem, noise_seed=noise_seed)
    phi_estimator = build_phi_estimator(cfg, sigma, delta,
                                        problem.model.range_dim, noise_seed)
    drive, _ = _bind_rule(cfg, "lepskii")
    history = run_method(cfg, problem, y_obs, stop=drive(delta),
                         phi_estimator=phi_estimator)
    return [(sample_id, rule) + apply_stop_rule(cfg, history, delta, rule)[:2]
            for rule in STUDY_RULES], history


def run_stopping_study(cfg: ExperimentConfig, out_dir="."):
    """Stop-rule comparison over the ``[noise] samples`` noise replicas.

    Each sample runs to K_max (the last index with Phi below the budget R),
    then the discrepancy, balancing, and oracle-optimal indices are read off
    the same history. Outputs per-sample rows and a mean/std summary per
    rule; samples that never meet a rule are reported with empty fields and
    excluded from the averages. If any sample ends in Breakdown, the outputs
    are still written and ``StudyBreakdownError`` is raised after them.
    """
    cfg.validate(rules=STUDY_RULES)
    num_samples = cfg.noise["samples"]
    if num_samples < 2:
        raise ConfigError("[noise] samples: stopping study needs at least 2")

    problem = build_problem(cfg)
    _make_out_dir(out_dir)
    samples = [_study_sample(cfg, problem, i) for i in range(num_samples)]
    rows = [row for sample_rows, _ in samples for row in sample_rows]
    costs = [h.total_cost() for _, h in samples]
    breakdowns = [f"sample {i}: {h.method}: {h.meta['breakdown']}"
                  for i, (_, h) in enumerate(samples)
                  if h.terminal_reason == TERMINAL_BREAKDOWN]

    _write_csv(os.path.join(out_dir, "stopping_samples.csv"),
               SAMPLES_CSV_HEADER, (
                   [sample_id, rule, "" if index is None else index,
                    _fmt(error)]
                   for sample_id, rule, index, error in rows))

    summary_rows = []
    stats = {}
    for rule in STUDY_RULES:
        indices = [r[2] for r in rows if r[1] == rule and r[2] is not None]
        errors = [r[3] for r in rows if r[1] == rule and r[3] is not None]
        used = len(indices)
        mean_i = float(np.mean(indices)) if used else None
        std_i = float(np.std(indices, ddof=1)) if used > 1 else 0.0
        mean_e = float(np.mean(errors)) if used else None
        std_e = float(np.std(errors, ddof=1)) if used > 1 else 0.0
        summary_rows.append([rule, used, _fmt(mean_i), _fmt(std_i),
                             _fmt(mean_e), _fmt(std_e)])
        stats[rule] = {"samples_used": used, "mean_stop_index": mean_i,
                       "std_stop_index": std_i, "mean_error": mean_e,
                       "std_error": std_e}
    _write_csv(os.path.join(out_dir, "stopping_summary.csv"),
               SUMMARY_CSV_HEADER, summary_rows)
    _write_json(os.path.join(out_dir, "summary.json"),
                {"version": __version__, "config": cfg.as_dict(),
                 "num_samples": num_samples, "rules": stats,
                 "sample_total_cost": costs, "total_cost": sum(costs),
                 "breakdowns": breakdowns})
    if breakdowns:
        raise StudyBreakdownError(breakdowns, stats)
    return rows, stats


def run_check(cfg: ExperimentConfig, out_dir="."):
    """Invariant suite on the configured problem; returns (report, all_ok).
    A check that raises a ContractError fails, its message as its value."""
    cfg.validate()
    # The oracle checks are dense: refuse a larger domain before the build.
    key = _BASES[cfg.problem["kind"].removeprefix("nonlinear-")][1][0]
    try:
        check_oracle_dim(cfg.problem[key])
    except OracleRefusal as exc:
        raise ConfigError(f"[problem] {key}: {exc}") from None
    problem = build_problem(cfg)
    _make_out_dir(out_dir)
    model = problem.model
    rng = np.random.default_rng(12345)
    report = {}

    def check(name, measure):
        """Record check ``name`` from ``measure() -> (value, ok)``."""
        try:
            value, ok = measure()
        except ContractError as exc:
            value, ok = str(exc), False
        report[name] = {"value": value, "ok": bool(ok)}

    point = 0.5 * problem.truth
    jac = model.linearize(point)

    def mismatch():
        value = adjoint_mismatch(jac, rng)
        return value, value <= 1e-10

    def fd_order():
        direction = rng.standard_normal(model.domain_dim)
        order, _ = jacobian_fd_order(model, point, direction)
        return None if order == np.inf else order, order >= 0.9

    check("adjoint_mismatch", mismatch)
    check("jacobian_fd_order", fd_order)

    oracle = DenseOracle.for_problem(problem, point)
    gamma = float(np.median(oracle.gram_spectrum()[0]))
    gamma = max(gamma, 1e-12)
    y_part = rng.standard_normal(model.range_dim)
    h_exact = oracle.tikhonov_solve(gamma, y_part)
    residual = oracle.gram @ h_exact + gamma * h_exact - oracle.a.T @ y_part
    rel = float(np.linalg.norm(residual)
                / max(np.linalg.norm(oracle.a.T @ y_part), 1e-300))
    check("oracle_self_consistency", lambda: (rel, rel <= 1e-10))

    def cg_error():
        sys_k = TikhonovSystem(jac, gamma, y_part, np.zeros(model.domain_dim))
        h_cg, _ = pcg_solve(sys_k, epsilon=1.0 / 3.0)
        cg_rel = float(np.linalg.norm(h_cg - h_exact)
                       / max(np.linalg.norm(h_exact), 1e-300))
        return cg_rel, cg_rel <= 0.5 + 1e-12

    def rerun_digests():
        digests = []
        for _ in range(2):
            sub = copy.deepcopy(cfg)
            for key in ("max_newton", "landweber_steps"):
                sub.solver[key] = min(sub.solver[key], 6)
            tmp = os.path.join(out_dir, "_check_run")
            run_single(sub, tmp)
            with open(os.path.join(tmp, "run.csv"), "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        return digests[0][:16], digests[0] == digests[1]

    check("cg_contract", cg_error)
    check("determinism", rerun_digests)

    all_ok = all(entry["ok"] for entry in report.values())
    _write_json(os.path.join(out_dir, "check_report.json"),
                {"version": __version__, "problem": problem.describe(),
                 "checks": report, "ok": all_ok})
    return report, all_ok


def _report_breakdowns(histories):
    """Explain each run that ended in Breakdown on stderr; True if any did."""
    failed = [h for h in histories if h.terminal_reason == TERMINAL_BREAKDOWN]
    for h in failed:
        print(f"numerical breakdown: {h.method}: {h.meta['breakdown']}",
              file=sys.stderr)
    return bool(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="iterreg",
        description="Matrix-free iterative regularization benchmarks")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("solve", "work-precision", "stopping-study", "check"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="INI experiment file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the [noise] seed")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_ini(args.config)
        if args.seed is not None:
            cfg.noise["seed"] = args.seed

        if args.verb == "solve":
            history, summary = run_single(cfg, args.out)
            print(f"method={history.method} records={len(history.records)} "
                  f"terminal={history.terminal_reason} "
                  f"stop_index={summary['stop_rule']['stop_index']}")
            if _report_breakdowns([history]):
                return 3
        elif args.verb == "work-precision":
            histories = run_work_precision(expand_methods(cfg), args.out)
            for h in histories:
                print(f"{h.method}: cost={h.total_cost()} "
                      f"final_error={h.records[-1].error} "
                      f"terminal={h.terminal_reason}")
            if _report_breakdowns(histories):
                return 3
        elif args.verb == "stopping-study":
            breakdowns = []
            try:
                _, stats = run_stopping_study(cfg, out_dir=args.out)
            except StudyBreakdownError as exc:
                stats, breakdowns = exc.stats, exc.messages
            for rule in STUDY_RULES:
                s = stats[rule]
                print(f"{rule}: used={s['samples_used']} "
                      f"mean_index={s['mean_stop_index']} "
                      f"mean_error={s['mean_error']}")
            for message in breakdowns:
                print(f"numerical breakdown: {message}", file=sys.stderr)
            if breakdowns:
                return 3
        else:
            report, all_ok = run_check(cfg, args.out)
            for name, entry in report.items():
                flag = "ok" if entry["ok"] else "FAIL"
                print(f"{name}: {flag} ({entry['value']})")
            if not all_ok:
                return 3
    except (ConfigError, configparser.Error, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
