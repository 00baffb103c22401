"""iterreg benchmark runner.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop in this one process:
one op at a time, each starting when the previous one has finished, until
``--seconds`` have passed. BLAS is pinned to one thread.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops on the same seeds, checks that tracing leaves the
outputs unchanged, and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and a readable table.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap

# Set-up probes per run, half before the op loop and half after it, so
# their median spans the run rather than one moment of it.
SETUP_PROBES = 8
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "setup_probe.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, ops):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": bootstrap.BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def probe_setup(workload, seed):
    """Seconds of one set-up in a fresh process (see setup_probe.py)."""
    done = subprocess.run([sys.executable, PROBE, workload, str(seed)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


def attempt(workload, cfg, out_dir, call):
    """Run one op through ``call``; returns (seconds, reading, failures).

    Any exception fails the op: it is reported on stderr and the loop goes
    on, since the benchmark must report how many ops failed.
    """
    try:
        start = time.perf_counter()
        raw = call(cfg, out_dir)
        seconds = time.perf_counter() - start
        reading = workload.read(raw, out_dir)
    except Exception:
        traceback.print_exc()
        return None, None, ["exception"]
    return seconds, reading, list(reading.failures)


def _median(values):
    return statistics.median(values) if values else 0.0


def _fits(start, seconds, count, op_seconds):
    """Whether op number ``count`` may start: the first always does, a later
    one only if an op of median length still ends within ``seconds``."""
    if count == 0:
        return True
    return time.perf_counter() - start + _median(op_seconds) <= seconds


def _report(failures, index, label=""):
    for failure in failures:
        print(f"op {index}{label} failed: {failure}", file=sys.stderr)


def run_untraced(workload, args, out_dir):
    from workloads import MAX_OPS

    setups = [probe_setup(workload.name, args.seed)
              for _ in range(SETUP_PROBES // 2)]
    template = workload.template()
    workload.setup(workload.config(template, args.seed, 0))

    times, units, quality = [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while attempted < MAX_OPS and _fits(start, args.seconds, attempted, times):
        cfg = workload.config(template, args.seed, attempted)
        seconds, reading, failures = attempt(workload, cfg, out_dir,
                                             workload.call)
        _report(failures, attempted)
        if reading is not None:
            times.append(seconds)
            units.append(reading.model_units)
            if not failures:
                quality.append(reading.quality)
            if attempted == 0:
                first = reading
        attempted += 1
        failed += bool(failures)

    if workload.rerun_identical and first is not None:
        rerun_dir = out_dir + "-rerun"
        os.makedirs(rerun_dir, exist_ok=True)
        _, again, _ = attempt(workload, workload.config(template, args.seed, 0),
                              rerun_dir, workload.call)
        if again is None or again.canonical != first.canonical:
            _report(["rerun output differs"], 0)
            if not first.failures:
                failed += 1

    setups += [probe_setup(workload.name, args.seed)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    metrics = {
        "setup_s": (_median(setups), "s"),
        "op_s_p50": (_median(times), "s"),
        "model_units": (_median(units), "units/op"),
        "error_at_stop": (_median(quality), "l2"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    table = dict(metrics, failed_frac=(failed / attempted, "ratio"))
    return failed == 0, attempted, failed, len(times), metrics, table


def run_traced(workload, args, out_dir):
    import metrics as metric_defs
    from tracer import Tracer
    from workloads import MAX_OPS

    template = workload.template()
    workload.setup(workload.config(template, args.seed, 0))
    tracer = Tracer()

    def traced_call(cfg, op_dir):
        return tracer.run("op", workload.call, cfg, op_dir)

    plain_times, traced_times, pair_times = [], [], []
    attempted = failed = pairs = 0
    start = time.perf_counter()
    while pairs < MAX_OPS and _fits(start, args.seconds, pairs, pair_times):
        pair_start = time.perf_counter()
        cfg = workload.config(template, args.seed, pairs)
        runs = {}
        # Alternate which side runs first so drift favours neither.
        order = ("plain", "traced") if pairs % 2 == 0 else ("traced", "plain")
        for side in order:
            call = traced_call if side == "traced" else workload.call
            side_dir = f"{out_dir}-{side}"
            os.makedirs(side_dir, exist_ok=True)
            runs[side] = attempt(workload, cfg, side_dir, call)
            if side == "traced" and runs[side][1] is not None:
                tracer.counts["cli.bytes_written"] += _output_bytes(side_dir)
        for side, (seconds, reading, failures) in runs.items():
            _report(failures, pairs, f" ({side})")
            if reading is not None:
                (traced_times if side == "traced" else plain_times).append(
                    seconds)
        plain, traced = runs["plain"][1], runs["traced"][1]
        if plain is not None and traced is not None and (
                plain.model_units != traced.model_units
                or plain.canonical != traced.canonical):
            runs["traced"][2].append("tracing changed the op's outputs")
            _report(runs["traced"][2][-1:], pairs, " (traced)")
        attempted += 2
        failed += sum(bool(r[2]) for r in runs.values())
        pairs += 1
        pair_times.append(time.perf_counter() - pair_start)

    unhit = tracer.unhit(workload.must_hit)
    for name in unhit:
        print(f"traced run never called {name}", file=sys.stderr)
    tracer.dump(os.path.join(bootstrap.WORK,
                             f"spans-{workload.name}-{args.seed}.jsonl"))

    readings = metric_defs.per_layer(tracer, max(len(traced_times), 1))
    metrics = {name: (r["value"], r["unit"]) for name, r in readings.items()}
    overhead = _median(traced_times) - _median(plain_times)
    metrics[metric_defs.TRACE_OVERHEAD[0]] = (overhead,
                                              metric_defs.TRACE_OVERHEAD[1])
    table = dict(metrics)
    table["untraced op_s_p50"] = (_median(plain_times), "s")
    table["traced op_s_p50"] = (_median(traced_times), "s")
    return (failed == 0 and not unhit, attempted, failed, len(traced_times),
            metrics, table)


def main(argv=None):
    args = parse_args(argv)
    bootstrap.pin_blas()
    bootstrap.use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(bootstrap.WORK, f"{workload.name}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)

    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, ops, metrics, table = runner(workload, args,
                                                            out_dir)

    print("env " + json.dumps(environment(args, ops), sort_keys=True))
    for name, (value, unit) in table.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
