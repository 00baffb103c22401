"""Metric definitions, per-layer readings from a trace, and BENCHMARK.json.

``python3 perfbench/metrics.py > BENCHMARK.json`` regenerates the benchmark
description from the definitions below.
"""

import json

RUN_SECONDS = 50

# Workloads listed in BENCHMARK.json. small-stopping-study runs and traces
# like the others but is left out: its op is bound by Python call overhead,
# and on a shared 2-core host the run-to-run spread of its op time (about
# 30% between quartiles) exceeds any bound the benchmark may set.
GATED = ("conv-solve", "diag-work-precision")

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("model_units", "units/op", "lower", 0.05),
    ("error_at_stop", "l2", "lower", 0.2),
    ("ok_frac", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


_PHI = ("stopping.DeterministicPhi.evaluate", "stopping.WhiteNoisePhi.evaluate",
        "stopping.SampledPhi.evaluate")
_PRECOND_APPLY = ("preconditioner.SpectralPreconditioner.apply_inverse",
                  "preconditioner.SpectralPreconditioner.apply_inv_sqrt")

# name, unit, reading(tracer) summed over the traced ops; readings with a
# "/op" unit are divided by the number of traced ops. Every "_s" reading is
# a sum of self times, so the layers add up to the traced op time.
PER_LAYER = (
    ("testbed.build_s", "s/op", lambda t: t.self_s(
        "cli.build_problem", "testbed.make_diagonal_problem",
        "testbed.make_convolution_problem", "testbed.make_nonlinear_composite")),
    ("testbed.build_calls", "count/op", lambda t: t.ncalls("cli.build_problem")),
    ("testbed.noise_s", "s/op", lambda t: t.self_s(
        "cli.build_data", "testbed.generate_noise")),
    ("testbed.dense_bytes", "B", lambda t: t.counts["testbed.dense_bytes"]),
    ("testbed.model_s", "s/op", lambda t: t.self_s(
        "operators.ForwardModel.evaluate", "operators.JacobianHandle.apply",
        "operators.JacobianHandle.apply_adjoint")),
    ("operators.evaluations", "count/op",
     lambda t: t.ncalls("operators.ForwardModel.evaluate")),
    ("operators.jacobian_applies", "count/op",
     lambda t: t.ncalls("operators.JacobianHandle.apply")),
    ("operators.adjoint_applies", "count/op",
     lambda t: t.ncalls("operators.JacobianHandle.apply_adjoint")),
    ("operators.validate_calls", "count/op",
     lambda t: t.ncalls("operators.as_vector")),
    ("operators.validate_s", "s/op", lambda t: t.self_s("operators.as_vector")),
    ("operators.stack_s", "s/op", lambda t: t.self_s(
        "operators.TikhonovSystem.apply", "operators.TikhonovSystem.apply_adjoint")),
    ("krylov.solves", "count/op", lambda t: t.counts["krylov.solves"]),
    ("krylov.iterations", "count/op", lambda t: t.counts["krylov.iterations"]),
    ("krylov.unconverged", "count/op", lambda t: t.counts["krylov.unconverged"]),
    ("krylov.breakdowns", "count/op", lambda t: t.counts["krylov.breakdowns"]),
    ("krylov.cg_self_s", "s/op", lambda t: t.self_s("krylov.pcg_solve")),
    ("krylov.reorth_calls", "count/op",
     lambda t: t.ncalls("krylov.HouseholderBasis.add")),
    ("krylov.reorth_s", "s/op", lambda t: t.self_s(
        "krylov.HouseholderBasis.add", "krylov.reorthogonalize_indexed")),
    ("krylov.ritz_s", "s/op", lambda t: t.self_s(
        "krylov.ritz_from_trace", "krylov.select_ritz")),
    ("krylov.ritz_candidates", "count/op",
     lambda t: t.counts["krylov.ritz_candidates"]),
    ("krylov.ritz_selected", "count/op",
     lambda t: t.counts["krylov.ritz_selected"]),
    ("krylov.ritz_kept_ratio", "ratio",
     lambda t: t.counts["krylov.ritz_selected"]
     / max(t.counts["krylov.ritz_candidates"], 1)),
    ("preconditioner.apply_calls", "count/op", lambda t: t.ncalls(*_PRECOND_APPLY)),
    ("preconditioner.apply_s", "s/op", lambda t: t.self_s(*_PRECOND_APPLY)),
    ("preconditioner.merge_s", "s/op",
     lambda t: t.self_s("preconditioner.merge_pairs")),
    ("preconditioner.merge_offered", "count/op",
     lambda t: t.counts["preconditioner.merge_offered"]),
    ("preconditioner.merge_kept", "count/op",
     lambda t: t.counts["preconditioner.merge_kept"]),
    ("preconditioner.rank_max", "count",
     lambda t: t.counts["preconditioner.rank_max"]),
    ("preconditioner.left_vectors_s", "s/op", lambda t: t.self_s(
        "preconditioner.SpectralPreconditioner.attach_left_vectors")),
    ("solvers.outer_steps", "count/op", lambda t: t.counts["solvers.outer_steps"]),
    ("solvers.recompute", "count/op", lambda t: t.counts["solvers.recompute"]),
    ("solvers.update", "count/op", lambda t: t.counts["solvers.update"]),
    ("solvers.plain", "count/op", lambda t: t.counts["solvers.plain"]),
    ("solvers.self_s", "s/op", lambda t: t.self_s(
        "solvers.irgnm_run", "solvers.landweber_run", "solvers.newton_cg_run")),
    ("solvers.breakdowns", "count/op", lambda t: t.counts["solvers.breakdowns"]),
    ("stopping.phi_calls", "count/op", lambda t: t.ncalls(*_PHI)),
    ("stopping.phi_s", "s/op", lambda t: t.self_s(*_PHI)),
    ("stopping.select_s", "s/op", lambda t: t.self_s(
        "stopping.discrepancy_stop", "stopping.lepskii_from_history")),
    ("cli.self_s", "s/op", lambda t: t.self_s(
        "cli.run_single", "cli.run_work_precision", "cli.run_stopping_study",
        "cli.expand_methods")),
    ("cli.bytes_written", "B/op", lambda t: t.counts["cli.bytes_written"]),
)

# Read from the paired traced and untraced ops rather than from the trace.
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def per_layer(tracer, ops):
    """Every PER_LAYER reading of ``tracer`` over ``ops`` traced ops."""
    out = {}
    for name, unit, reading in PER_LAYER:
        value = reading(tracer)
        if unit.endswith("/op"):
            value /= ops
        out[name] = {"value": value, "unit": unit}
    return out


def benchmark_json():
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].why}
                      for name in GATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in _per_layer_specs()],
    }


def _per_layer_specs():
    higher = {"krylov.ritz_kept_ratio"}
    specs = [(n, u, "higher" if n in higher else "lower")
             for n, u, _ in PER_LAYER]
    specs.append(TRACE_OVERHEAD + ("lower",))
    return specs


if __name__ == "__main__":
    import bootstrap

    bootstrap.use_checkout_source()
    print(json.dumps(benchmark_json(), indent=2))
