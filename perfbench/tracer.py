"""Span tracer for the benchmark's traced mode.

The tracer wraps public functions and methods of the iterreg modules from
inside the benchmark's process; the package itself is not changed. Every
wrapped call opens a frame on one stack (ops run one at a time on one
thread). When it returns, its duration is charged to its parent frame, so a
call's self time is its duration minus the part its wrapped children cover,
and the self times of all wrapped calls partition the traced op.

Calls that run tens of thousands of times per op (``LEAVES``) are not kept
as spans: each adds its count and time to its nearest enclosing span. All
other calls become ``Span`` records, kept in memory and written out with
``dump`` when the run ends.
"""

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from iterreg.krylov import CgBreakdownError
from iterreg.solvers import (EVENT_FINAL, EVENT_PLAIN, EVENT_RECOMPUTE,
                             EVENT_UPDATE, TERMINAL_BREAKDOWN)

# (module, qualified name) of every traced function or method. Functions
# are patched in every iterreg module that holds them by name, methods on
# their class.
TARGETS = (
    ("cli", "run_single"), ("cli", "run_work_precision"),
    ("cli", "run_stopping_study"), ("cli", "expand_methods"),
    ("cli", "build_problem"), ("cli", "build_data"),
    ("testbed", "make_diagonal_problem"), ("testbed", "make_convolution_problem"),
    ("testbed", "make_nonlinear_composite"), ("testbed", "generate_noise"),
    ("operators", "as_vector"),
    ("operators", "ForwardModel.evaluate"),
    ("operators", "JacobianHandle.apply"),
    ("operators", "JacobianHandle.apply_adjoint"),
    ("operators", "TikhonovSystem.apply"),
    ("operators", "TikhonovSystem.apply_adjoint"),
    ("krylov", "pcg_solve"), ("krylov", "HouseholderBasis.add"),
    ("krylov", "reorthogonalize_indexed"), ("krylov", "ritz_from_trace"),
    ("krylov", "select_ritz"),
    ("preconditioner", "SpectralPreconditioner.apply_inverse"),
    ("preconditioner", "SpectralPreconditioner.apply_inv_sqrt"),
    ("preconditioner", "SpectralPreconditioner.attach_left_vectors"),
    ("preconditioner", "merge_pairs"),
    ("solvers", "irgnm_run"), ("solvers", "landweber_run"),
    ("solvers", "newton_cg_run"),
    ("stopping", "DeterministicPhi.evaluate"),
    ("stopping", "WhiteNoisePhi.evaluate"),
    ("stopping", "SampledPhi.evaluate"),
    ("stopping", "discrepancy_stop"), ("stopping", "lepskii_from_history"),
)

LEAVES = frozenset((
    "operators.as_vector", "operators.ForwardModel.evaluate",
    "operators.JacobianHandle.apply", "operators.JacobianHandle.apply_adjoint",
    "operators.TikhonovSystem.apply", "operators.TikhonovSystem.apply_adjoint",
    "krylov.HouseholderBasis.add",
    "preconditioner.SpectralPreconditioner.apply_inverse",
    "preconditioner.SpectralPreconditioner.apply_inv_sqrt",
))


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0
    # leaf name -> [calls, seconds] for the leaf calls made directly
    # under this span or under leaves nested in it
    leaves: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("start", "children_s", "span")

    def __init__(self, start, span):
        self.start = start
        self.children_s = 0.0
        self.span = span


def _observe_pcg(counts, args, kwargs, result, exc):
    counts["krylov.solves"] += 1
    if exc is not None:
        if isinstance(exc, CgBreakdownError):
            counts["krylov.breakdowns"] += 1
        return
    trace = result[1]
    counts["krylov.iterations"] += trace.iterations
    counts["krylov.unconverged"] += not trace.converged


def _observe_ritz(counts, args, kwargs, result, exc):
    if exc is None:
        counts["krylov.ritz_candidates"] += len(result)


def _observe_select(counts, args, kwargs, result, exc):
    if exc is None:
        counts["krylov.ritz_selected"] += len(result)


def _observe_merge(counts, args, kwargs, result, exc):
    if exc is None:
        existing = args[0] if args else kwargs["existing"]
        new_pairs = args[1] if len(args) > 1 else kwargs["new_pairs"]
        counts["preconditioner.merge_offered"] += \
            existing.pair_count + len(new_pairs)
        counts["preconditioner.merge_kept"] += result.pair_count


def _observe_rank(counts, args, kwargs, result, exc):
    rank = args[0].pair_count
    if rank > counts["preconditioner.rank_max"]:
        counts["preconditioner.rank_max"] = rank


def _observe_run(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    events = [r.event for r in result.records]
    counts["solvers.outer_steps"] += sum(e != EVENT_FINAL for e in events)
    counts["solvers.recompute"] += events.count(EVENT_RECOMPUTE)
    counts["solvers.update"] += events.count(EVENT_UPDATE)
    counts["solvers.plain"] += events.count(EVENT_PLAIN)
    counts["solvers.breakdowns"] += \
        result.terminal_reason == TERMINAL_BREAKDOWN


def _observe_base_problem(counts, args, kwargs, result, exc):
    if exc is None and result.matrix is not None:
        nbytes = result.matrix.nbytes
        if nbytes > counts["testbed.dense_bytes"]:
            counts["testbed.dense_bytes"] = nbytes


_OBSERVERS = {
    "krylov.pcg_solve": _observe_pcg,
    "krylov.ritz_from_trace": _observe_ritz,
    "krylov.select_ritz": _observe_select,
    "preconditioner.merge_pairs": _observe_merge,
    "preconditioner.SpectralPreconditioner.apply_inverse": _observe_rank,
    "preconditioner.SpectralPreconditioner.apply_inv_sqrt": _observe_rank,
    "solvers.irgnm_run": _observe_run,
    "solvers.landweber_run": _observe_run,
    "solvers.newton_cg_run": _observe_run,
    "testbed.make_diagonal_problem": _observe_base_problem,
    "testbed.make_convolution_problem": _observe_base_problem,
}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Spans, per-function call totals and counts of traced ops.

    ``calls`` maps a target name to ``[calls, total_s, self_s]`` summed over
    every traced call; ``counts`` holds what the observers read off
    arguments and results. ``run`` patches the targets for one call and
    restores the originals after it.
    """

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.counts = _Counts()
        self.bindings = []
        self._stack = []
        self._patches = None

    def wrap(self, name, fn):
        """Return ``fn`` traced under ``name``."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        totals = self.calls.setdefault(name, [0, 0.0, 0.0])
        leaf = name in LEAVES
        observe = _OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            owner = parent.span if parent is not None else None
            start = clock()
            if leaf:
                frame = _Frame(start, owner)
            else:
                span = Span(len(spans), name,
                            owner.id if owner is not None else None, start)
                spans.append(span)
                frame = _Frame(start, span)
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame.children_s
                if parent is not None:
                    parent.children_s += duration
                if leaf:
                    if owner is not None:
                        agg = owner.leaves.setdefault(name, [0, 0.0])
                        agg[0] += 1
                        agg[1] += duration
                else:
                    frame.span.end = end
                    frame.span.children_s = frame.children_s
                if observe is not None:
                    observe(counts, args, kwargs, result, exc)

        return traced

    def _resolve(self):
        """Patch list ``(owner, attribute, original, traced)`` for TARGETS."""
        modules = {n[len("iterreg."):] or "iterreg": m
                   for n, m in sys.modules.items()
                   if n == "iterreg" or n.startswith("iterreg.")}
        patches, bindings = [], []
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            home = modules[module]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original, self.wrap(name, original)))
                bindings.append(name)
                continue
            original = getattr(home, qualname)
            traced = self.wrap(name, original)
            for mod_name, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original, traced))
                        bindings.append(f"{mod_name}.{attr}")
        self.bindings = bindings
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._resolve()
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` with the targets patched, as a root span."""
        self.install()
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.uninstall()

    def self_s(self, *names):
        return sum(self.calls.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ncalls(self, *names):
        return sum(self.calls.get(n, (0, 0.0, 0.0))[0] for n in names)

    def unhit(self, names):
        """Names among ``names`` that no traced call reached."""
        return [n for n in names if self.ncalls(n) == 0]

    def dump(self, path):
        """Write one JSON line per span."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")
