"""The benchmark's workloads: one op each, built on the CLI's verb functions.

An op is one call of a public verb of ``iterreg.cli``. Its ``[problem]`` and
``[noise]`` seeds derive from the workload seed and the op index, so no two
ops of a run share a problem or a noise draw and nothing cached across calls
can pass for a speed-up. ``call`` is the timed part; ``read`` checks the
op's outputs and takes its readings outside the timed region.
"""

import csv
import io
import os
from dataclasses import dataclass, field

from iterreg import cli
from iterreg.solvers import TERMINAL_BREAKDOWN

# Ops per run stay below this, so op seeds of different runs never collide.
MAX_OPS = 1000
# Gap between the noise seeds of consecutive ops; the stopping study draws
# its samples from noise seeds seed .. seed + samples - 1.
_SEED_STRIDE = 100


def op_seed(workload_seed, index):
    """Problem and noise seed of op ``index`` in a run with ``workload_seed``."""
    return (workload_seed * MAX_OPS + index) * _SEED_STRIDE


@dataclass
class OpReading:
    """What one op produced, read after its timed part.

    ``canonical`` holds the op's output bytes that must not depend on
    tracing or on a rerun; ``failures`` names each output check that did
    not hold.
    """

    model_units: int
    quality: float
    canonical: bytes
    failures: list = field(default_factory=list)


class Workload:
    name = ""
    why = ""
    ini = ""
    # Traced functions (tracer target names) that must be called at least
    # once per traced run of this workload.
    must_hit = ()
    # Whether a rerun of the first op's seed must reproduce its output bytes.
    rerun_identical = False

    def template(self):
        """The workload's parsed INI config; fields it omits take defaults."""
        return cli.ExperimentConfig.from_text(self.ini)

    def config(self, template, workload_seed, index):
        seed = op_seed(workload_seed, index)
        cfg = cli.ExperimentConfig(problem=dict(template.problem),
                                   solver=dict(template.solver),
                                   noise=dict(template.noise),
                                   stopping=dict(template.stopping))
        cfg.problem["seed"] = seed
        cfg.noise["seed"] = seed
        return cfg

    def setup(self, cfg):
        """The first problem build and data draw, as a user's run starts."""
        problem = cli.build_problem(cfg)
        return cli.build_data(cfg, problem)

    def call(self, cfg, out_dir):
        raise NotImplementedError

    def read(self, raw, out_dir):
        raise NotImplementedError


_COMMON_HIT = (
    "cli.build_problem", "cli.build_data", "testbed.generate_noise",
    "testbed.make_nonlinear_composite", "operators.as_vector",
    "operators.ForwardModel.evaluate", "operators.JacobianHandle.apply",
    "operators.JacobianHandle.apply_adjoint", "krylov.pcg_solve",
)


class ConvSolve(Workload):
    name = "conv-solve"
    why = ("one solve on the dense 2048-point nonlinear convolution: dense "
           "model applies dominate and double eigenvalues reach merge_pairs")
    ini = """
[problem]
kind = nonlinear-convolution
n = 2048
[solver]
method = irgnm-prec
max_newton = 30
[noise]
level = 0.001
[stopping]
rule = discrepancy
"""
    must_hit = _COMMON_HIT + (
        "cli.run_single", "testbed.make_convolution_problem",
        "solvers.irgnm_run", "krylov.ritz_from_trace", "krylov.select_ritz",
        "preconditioner.merge_pairs",
        "preconditioner.SpectralPreconditioner.apply_inverse",
        "preconditioner.SpectralPreconditioner.apply_inv_sqrt",
    )
    rerun_identical = True

    def call(self, cfg, out_dir):
        return cli.run_single(cfg, out_dir)

    def read(self, raw, out_dir):
        history, summary = raw
        failures = []
        if history.terminal_reason == TERMINAL_BREAKDOWN:
            failures.append("run ended in Breakdown")
        if not summary["stop_rule"]["reached"]:
            failures.append("discrepancy rule not reached")
        with open(os.path.join(out_dir, "run.csv"), "rb") as fh:
            canonical = fh.read()
        error = summary["stop_rule"]["error_at_stop"]
        return OpReading(history.total_cost(),
                         float("nan") if error is None else error,
                         canonical, failures)


def _without_column(csv_bytes, column):
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    drop = rows[0].index(column)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [r[:drop] + r[drop + 1:] for r in rows])
    return out.getvalue().encode()


class DiagWorkPrecision(Workload):
    name = "diag-work-precision"
    why = ("all four methods on the 400x800 nonlinear diagonal problem: the "
           "only Landweber and Newton-CG load, heavy on reorthogonalization")
    ini = """
[problem]
kind = nonlinear-diagonal
m = 400
n = 800
decay_a = 0.05
[solver]
methods = irgnm-prec, irgnm-plain, newton-cg, landweber
rhs_kind = levenberg-marquardt
max_newton = 40
landweber_steps = 650
[noise]
level = 0.001
[stopping]
rule = none
"""
    must_hit = _COMMON_HIT + (
        "cli.run_work_precision", "testbed.make_diagonal_problem",
        "operators.TikhonovSystem.apply",
        "operators.TikhonovSystem.apply_adjoint",
        "krylov.HouseholderBasis.add", "krylov.reorthogonalize_indexed",
        "preconditioner.SpectralPreconditioner.apply_inverse",
        "preconditioner.SpectralPreconditioner.apply_inv_sqrt",
        "solvers.irgnm_run", "solvers.landweber_run", "solvers.newton_cg_run",
    )

    def call(self, cfg, out_dir):
        return cli.run_work_precision(cli.expand_methods(cfg), out_dir)

    def read(self, raw, out_dir):
        cost = {h.method: h.total_cost() for h in raw}
        failures = [f"{h.method} ended in Breakdown" for h in raw
                    if h.terminal_reason == TERMINAL_BREAKDOWN]
        if not cost["irgnm-prec"] < cost["irgnm-plain"]:
            failures.append(
                f"irgnm-prec spent {cost['irgnm-prec']} model units, "
                f"irgnm-plain {cost['irgnm-plain']}")
        best = [min(r.error for r in h.records) for h in raw]
        with open(os.path.join(out_dir, "work_precision.csv"), "rb") as fh:
            canonical = _without_column(fh.read(), "wall_time_s")
        return OpReading(sum(cost.values()), sum(best) / len(best),
                         canonical, failures)


class SmallStoppingStudy(Workload):
    name = "small-stopping-study"
    why = ("16-sample stopping study on the default 100-unknown problem: "
           "tiny model work, so per-call overhead and the sampled Phi dominate")
    samples = 16
    ini = f"""
[noise]
samples = {samples}
[stopping]
rule = lepskii
r_bound = 5.0
phi = sampled
phi_samples = 50
"""
    must_hit = _COMMON_HIT + (
        "cli.run_stopping_study", "testbed.make_diagonal_problem",
        "preconditioner.SpectralPreconditioner.attach_left_vectors",
        "stopping.SampledPhi.evaluate", "stopping.discrepancy_stop",
        "stopping.lepskii_from_history",
    )

    def call(self, cfg, out_dir):
        # The study's summary carries no model units, so a pass-through
        # wrapper of run_method records each sample's history cost.
        costs = []
        run_method = cli.run_method

        def metered(*args, **kwargs):
            history = run_method(*args, **kwargs)
            costs.append(history.total_cost())
            return history

        cli.run_method = metered
        try:
            _, stats = cli.run_stopping_study(cfg, out_dir=out_dir)
        finally:
            cli.run_method = run_method
        return stats, sum(costs)

    def read(self, raw, out_dir):
        stats, units = raw
        failures = [f"{rule} used {stats[rule]['samples_used']} samples"
                    for rule in cli.STUDY_RULES
                    if stats[rule]["samples_used"] != self.samples]
        disc, lep, best = (stats[r] for r in cli.STUDY_RULES)
        if not (disc["mean_stop_index"] < lep["mean_stop_index"]
                <= best["mean_stop_index"]):
            failures.append("mean stop index out of order")
        if not best["mean_error"] <= lep["mean_error"] < disc["mean_error"]:
            failures.append("mean error out of order")
        with open(os.path.join(out_dir, "stopping_samples.csv"), "rb") as fh:
            canonical = fh.read()
        return OpReading(units, lep["mean_error"], canonical, failures)


WORKLOADS = {w.name: w for w in (ConvSolve(), DiagWorkPrecision(),
                                 SmallStoppingStudy())}
