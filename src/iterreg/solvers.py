"""Outer iterations: semi-frozen spectrally preconditioned regularized Newton
(IRGNM / Levenberg-Marquardt), plus Landweber and truncated Newton-CG
baselines.

One Newton step solves the Tikhonov-regularized normal equations
G^T G h = G^T g with G = [A_m; sqrt(gamma_k) I] by CG, where the Jacobian
A_m stays frozen across several steps. A spectral preconditioner is built
from Lanczos Ritz pairs and updated in between; ``_plan_step`` decides which
step does what in the ``variant`` an irgnm run names: prec, plain
(no preconditioner) or the frozen ablation (no update). irgnm-prec
updates once the Plain steps since the last build have spent as many
inner iterations as that build did, and relinearizes at a step its
square-number schedule makes due only if the frozen Jacobian is stale,
by the contraction monitor of simplified Newton methods (Deuflhard,
Newton Methods for Nonlinear Problems, Springer 2004): ||y - F(x_k)||
exceeds STALE_RATIO = 1.25 times the misfit ||r_{k-1} - A_m h_{k-1}||
the frozen linear model predicted for the step just taken, which
``_predicted_misfit`` reads from the Galerkin solve at no model unit.
The shift falls as gamma_k = gamma0 * max(GAMMA_FACTOR^(-k), GAMMA_FLOOR)
with GAMMA_FACTOR = 1.5 and GAMMA_FLOOR = 1e-14, below which the shifted
preconditioner cannot be applied in floating point. Builds run their
Lanczos loop accurately (EPS_ACCURATE = 1e-9) through the symmetric
two-sided form so the harvested pairs are trustworthy, but take their
step, as ordinary steps do, at the standard tolerance EPS_STANDARD = 1/3
of inexact Newton methods (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982), so a build's step is no more accurate than any other.
Newton-CG's solves stop at INNER_RHO = 0.8 times the residual, every
inner solve stops after MAX_INNER = 200 iterations, and the harvest keeps
the Ritz pairs that ``krylov.select_ritz`` keeps. Each constant is read
when a step uses it.

Every irgnm run takes gamma0 from GRAM_ESTIMATE_STEPS = 5 steps of
``krylov.Lanczos`` on A_0^T A_0, started from the first inner solve's
right-hand side A_0^T (y - F(x0)), and its k = 0 solve is that run's own
``solve`` at shift gamma0 instead of a Krylov space of its own. The same
Lanczos loop runs every other Tikhonov solve through ``pcg_solve``: the
builds, and the Plain steps, in the M-inner product of the current pair
set M when there is one. Each harvest stores with its pairs their images
A_m^T A_m u, which ``_harvest`` forms at no model unit from the products
its build already made, and ``merge_pairs`` carries them; so a Plain
step with pairs first tries the Galerkin solution over their span, and
one that meets the stop test takes 0 iterations and pays no rent toward
the next Update. Landweber's mu and the
fallback of ``_estimate_from_gradient`` take the estimate from a random
start (``estimate_gram_norm``).

The three runs are called as ``run(model, y_obs, x0, *, <settings>,
stop=None, truth=None)`` and refuse bad settings before any model unit.

As in ``krylov``, the loops here write in place only to arrays they
allocated: the observed data, x0, the residual vector a step receives and
every model output stay untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .krylov import (RITZ_ROUNDING, Lanczos, pcg_solve, ritz_from_trace,
                     select_ritz)
from .operators import (IRGNM, LEVENBERG_MARQUARDT, ContractError,
                        TikhonovSystem, as_vector)
from .preconditioner import SpectralPreconditioner, TwoSidedSystem, merge_pairs

EVENT_RECOMPUTE = "Recompute"
EVENT_UPDATE = "Update"
EVENT_PLAIN = "Plain"
EVENT_BASELINE = "Baseline"
EVENT_FINAL = "Final"

TERMINAL_STOP = "StopRule"
TERMINAL_MAX = "MaxNewton"
TERMINAL_STEP_CAP = "StepCap"
TERMINAL_BREAKDOWN = "Breakdown"
TERMINAL_INNER_CAP = "InnerCap"

# Residual blow-up past this multiple of the starting residual ends the run
# with a Breakdown record instead of letting iterates overflow.
DIVERGENCE_FACTOR = 10.0

GAMMA_FACTOR = 1.5
GAMMA_FLOOR = 1e-14
EPS_STANDARD = 1.0 / 3.0
EPS_ACCURATE = 1e-9
MAX_INNER = 200
STALE_RATIO = 1.25
INNER_RHO = 0.8
GRAM_ESTIMATE_SEED = 0
GRAM_ESTIMATE_STEPS = 5


def check_newton_settings(max_newton, *, variant="prec", rhs_kind=IRGNM):
    """ContractError on the first irgnm or Newton-CG setting out of range."""
    if rhs_kind not in (IRGNM, LEVENBERG_MARQUARDT):
        raise ContractError(f"unknown rhs_kind {rhs_kind!r}")
    if variant not in ("prec", "plain", "frozen"):
        raise ContractError(f"unknown variant {variant!r}")
    if max_newton < 1:
        raise ContractError("max_newton must be positive")


@dataclass
class RunRecord:
    """Per-Newton-step ledger row.

    ``x_k`` is the iterate the step departs from (not a copy);
    ``inner_iterations`` the CG work spent leaving it (0 on the terminal
    row); ``event`` one of Recompute/Update/Plain/Baseline, or Final for the
    terminal row; ``m`` the last step at which irgnm relinearized (see
    csv_schema.md), and k for Newton-CG and Landweber.
    """

    k: int
    m: int
    gamma_k: float | None
    x_k: np.ndarray
    residual_norm: float
    inner_iterations: int
    cumulative_cost: int
    phi_k: float | None
    event: str
    error: float | None = None
    wall_time_s: float = 0.0


@dataclass
class RunHistory:
    """Complete record of one outer run.

    ``terminal_reason`` is one of the ``TERMINAL_*`` constants.
    ``meta["inner_unconverged"]`` counts the steps whose inner solve stopped
    at its iteration cap short of its tolerance: at most 1, as an irgnm or
    Newton-CG run ends at its first (InnerCap) and Landweber has none.
    """

    records: list
    terminal_reason: str
    method: str
    meta: dict = field(default_factory=dict)

    def residual_norms(self):
        return [r.residual_norm for r in self.records]

    def total_inner(self):
        return sum(r.inner_iterations for r in self.records)

    def total_cost(self):
        return self.records[-1].cumulative_cost if self.records else 0


def estimate_gram_norm(jac):
    """Lanczos estimate of ||A^T A|| (its largest eigenvalue).

    Runs GRAM_ESTIMATE_STEPS steps of ``krylov.Lanczos``, the loop of every
    reorthogonalized solve, on A^T A from a random start vector of seed
    GRAM_ESTIMATE_SEED and returns the largest eigenvalue of the
    tridiagonal T_j they build. Each step reads q.(A^T A q) as ||A q||^2
    from one Jacobian apply and makes one adjoint apply for the next q,
    which the last step skips. Over the same Krylov space this is never
    below the power-iteration estimate (Kuczynski & Wozniakowski, SIAM J.
    Matrix Anal. Appl. 13, 1992). A Krylov space exhausted sooner, as on a
    domain of fewer dimensions, ends the run early with the exact value.
    Raises a ContractError when ||A^T A|| exceeds the float range, or when
    A^T A vanishes on the start vector, as for a zero Jacobian.
    """
    rng = np.random.default_rng(GRAM_ESTIMATE_SEED)
    lanczos = Lanczos(jac, rng.standard_normal(jac.domain_dim))
    lanczos.grow_to(GRAM_ESTIMATE_STEPS)
    return lanczos.theta_max()


def _estimate_from_gradient(jac, residual, keep_products=False):
    """(gamma0, lanczos) of an irgnm run at x0.

    The ``krylov.Lanczos`` run starts from the first inner solve's
    right-hand side b = A^T (y - F(x0)), the prior term being zero at x0,
    and gamma0 is the largest eigenvalue of its T_j after
    GRAM_ESTIMATE_STEPS steps, as ``estimate_gram_norm`` takes it from a
    random start. The k = 0 solve is then ``lanczos.solve`` at shift gamma0,
    the call ``pcg_solve`` makes on a system of its own, continuing the
    same run.
    When b = 0, or its Krylov space is exhausted before
    min(GRAM_ESTIMATE_STEPS, dim) steps, so that T_j may miss the top of
    the spectrum, gamma0 is the random-start estimate instead; the first
    solve is still the continued run, which then ends on the exhausted
    space (at h = 0 when b = 0). ``keep_products`` keeps the run's
    products A^T A q_j, from which a k = 0 build harvests its images.
    """
    lanczos = Lanczos(jac, jac.apply_adjoint(residual),
                      keep_products=keep_products)
    if lanczos.grow_to(GRAM_ESTIMATE_STEPS):
        return estimate_gram_norm(jac), lanczos
    return lanczos.theta_max(), lanczos


def _plan_step(k, m, plain_inner, build_inner, variant, stale=False):
    """(event, relinearize) of Newton step k, whose last relinearization
    was at m; plain_inner counts the inner iterations of the Plain steps
    since the last build (Recompute or Update, k = 0 included),
    build_inner those of that build, and stale says whether the frozen
    Jacobian stopped predicting the residual (see ``_predicted_misfit``).

    Variant "plain" relinearizes at every step and never builds. "prec"
    recomputes (fresh Jacobian, new pair set) at k = 0 and when the
    square-number schedule sqrt(k+1) >= sqrt(m+1) + 1 is due and the
    Jacobian is stale. Otherwise it updates (frozen Jacobian, pairs merged
    into the current set) once the Plain steps have paid for the last
    build, plain_inner >= max(build_inner, 1): the break-even rule of
    ski rental (Karlin, Manasse, Rudolph & Sleator, Algorithmica 3, 1988),
    with the rent a Plain step pays and the price a build paid both
    counted in inner iterations, and at least one iteration of rent so
    that a build of none does not update at every step. Other steps are
    Plain on the frozen Jacobian. The "frozen" ablation rebuilds exactly
    on the schedule (k = 0, 3, 8, 15, 24, ...), whether stale or not, and
    never updates.
    """
    if variant == "plain":
        return EVENT_PLAIN, True
    updates = variant == "prec"
    d = k - m - 1  # sqrt(k+1) >= sqrt(m+1) + 1 in exact integer arithmetic
    due = d >= 0 and d * d >= 4 * (m + 1)
    if k == 0 or (due and (not updates or stale)):
        return EVENT_RECOMPUTE, True
    if updates and plain_inner >= max(build_inner, 1):
        return EVENT_UPDATE, False
    return EVENT_PLAIN, False


def _predicted_misfit(sys, h, trace, residual_norm):
    """||r - A h||, the data misfit the frozen linear model of ``sys``
    predicts for the step h its solve returned, at no model unit.

    Every inner solve of an irgnm run is a Galerkin solve of the Lanczos
    loop, Q^T (b - G^T G h) = 0 with h in the span of Q also in the
    M-inner product, so h^T (b - G^T G h) = 0 for
    b = G^T g = A^T r + gamma q, q the prior offset, and
    ||r - A h||^2 = ||r||^2 - h^T b + gamma h^T (2 q - h), with h^T b from
    the trace. ``residual_norm`` is ||r||.
    """
    q = sys.rhs_prior
    squared = residual_norm * residual_norm - trace.rhs_product \
        + sys.gamma * float(h.dot(2.0 * q - h))
    return math.sqrt(max(squared, 0.0))


def _truncated_cgne(jac, b_vec, rho, max_iterations):
    """CG on A^T A h = A^T b, stopped when ||b - A h|| <= rho * ||b||.

    The truncation index, not a Tikhonov term, provides the regularization.
    Returns (h, iterations, capped); capped is True when ``max_iterations``
    was reached above the target. A^T d is formed only when another
    iteration follows, so a solve that ends on its target or its cap after
    i >= 1 iterations costs 2i model units.
    """
    target = rho * math.sqrt(b_vec.dot(b_vec))
    h = np.zeros(jac.domain_dim)
    d = b_vec.copy()
    r = jac.apply_adjoint(d)
    rho_c = float(r.dot(r))
    p = r.copy()
    iterations = 0
    while math.sqrt(d.dot(d)) > target:
        if iterations >= max_iterations:
            return h, iterations, True
        if iterations:
            r = jac.apply_adjoint(d)
            rho_new = float(r.dot(r))
            p *= rho_new / rho_c
            p += r
            rho_c = rho_new
        if not rho_c > 0.0:
            break
        q = jac.apply(p)
        qq = float(np.vdot(q, q))  # vdot: no overflow warning
        if qq == 0.0 or not math.isfinite(qq):
            break
        a = rho_c / qq
        h += a * p
        d -= a * q
        iterations += 1
    return h, iterations, False


def _harvest(trace, base_precond, images=None):
    """Back-map selected Ritz pairs (theta, v) of the two-sided operator over
    ``base_precond`` M of shift gamma to eigenpairs (gamma (theta - 1),
    M^{-1/2} v normalized) of A_m^T A_m. Each bound first gains the
    rounding of M^{-1/2}, RITZ_ROUNDING eps (1 + lambda_max/gamma) for M's
    largest lambda. Values near 1 belong to the cluster of captured
    directions, carry no spectral information and go: ``select_ritz``
    keeps only theta >= krylov.RITZ_SEPARATION.

    ``images`` is (Y, shift): the rows y_j = (A_m^T A_m + shift I)
    M^{-1/2} q_j for the rows q_j of the trace's basis, which the build's
    applies already formed. Given them, a pair (value, u) from the Ritz
    vector v = Q^T w gains a third entry, its image A_m^T A_m u =
    Y^T w / ||M^{-1/2} v|| - shift u, at no model unit and with no
    M^{1/2}."""
    if trace.iterations < 1:
        return []
    pairs = ritz_from_trace(trace)
    rounding = RITZ_ROUNDING * np.finfo(float).eps \
        * (1.0 + base_precond.lambdas.max(initial=0.0) / base_precond.gamma)
    for p in pairs:
        p.residual_bound += rounding
    out = []
    for p in select_ritz(pairs):
        u_raw = base_precond.apply_inv_sqrt(p.vector)
        norm = math.sqrt(u_raw.dot(u_raw))
        if norm == 0.0:
            continue
        pair = (base_precond.gamma * (p.theta - 1.0), u_raw / norm)
        if images is not None:
            pair += (p.coefficients @ images[0] / norm
                     - images[1] * pair[1],)
        out.append(pair)
    return out


def check_step_cap(steps):
    """Reject a negative cap on the number of Landweber steps."""
    if steps < 0:
        raise ContractError(f"step cap must be nonnegative, got {steps}")


class _OuterLoop:
    """The outer iteration every method shares.

    Construction checks the inputs and starts the model-unit meter and the
    clock, so setup work a method does afterwards (Landweber's mu estimate)
    counts toward its run: ``run`` stores those units in
    ``meta["estimate_units"]`` (0 for Newton-CG); irgnm's probe overwrites
    it with the units of its gamma0 estimate. Per step it evaluates F(x_k),
    opens the record of step k (m = k, event Final), lets
    ``probe(rec, residual)`` fill in m, gamma_k and phi_k (at k = 0 it
    estimates gamma0 from the residual y - F(x_0)), and consults the stop
    driver ``stop(k, residual_norm, phi_k)``, which ends the run at k with
    terminal StopRule when it returns True, and then the divergence guard,
    on every recorded row. Unless the run ends at k,
    ``step(rec, x_k, residual)`` returns x_{k+1} - x_k and sets the
    record's event, inner_iterations and, after a relinearization, m. A
    tripped divergence guard, or a ContractError (a CgBreakdownError among
    them) raised by the step or by evaluating the x_{k+1} it produced, ends
    the run at k with terminal Breakdown and the reason in
    ``meta["breakdown"]``; a failed step's row becomes a Final row of 0
    inner iterations. Residual norms are taken with np.vdot, so one whose
    square overflows is inf, which trips the guard, without a warning. A
    failure of F(x_0), or of its residual norm, raises, since no residual
    exists to record. When the run ends, its last record's
    cumulative_cost is re-read, so it includes the units a failed step or
    an estimate at k = 0 spent after x_k was evaluated.

    A run that records step ``max_steps`` ends there with terminal
    ``cap_reason``: MaxNewton, or StepCap for Landweber, which takes no
    Newton step. A step ends the run after itself by setting
    ``end_reason``: x_{k+1} is evaluated and recorded as the Final row at
    k + 1, and the run ends there with that terminal reason. On either row
    the stop driver, and then the divergence guard, outrank that reason.
    """

    def __init__(self, model, y_obs, x0, truth):
        self.model = model
        self.x0 = as_vector(x0, model.domain_dim, "x0")
        self.y_obs = as_vector(y_obs, model.range_dim, "y_obs")
        self.truth = None if truth is None \
            else as_vector(truth, model.domain_dim, "truth")
        self.cost_start = model.cost.total
        self.t_start = time.perf_counter()
        self.end_reason = None

    def run(self, step, max_steps, stop, method, meta, probe=None,
            cap_reason=TERMINAL_MAX):
        model, truth = self.model, self.truth
        x = self.x0.copy()
        records = []
        terminal = cap_reason
        meta["estimate_units"] = model.cost.total - self.cost_start
        residual_vec = self.y_obs - model.evaluate(x)
        for k in range(max_steps + 1):
            rn = math.sqrt(np.vdot(residual_vec, residual_vec))
            if k == 0 and not math.isfinite(rn):
                raise ContractError("||y - F(x0)||^2 exceeds the float range")
            diff = None if truth is None else x - truth
            # cumulative_cost and wall_time_s read the meters when x_k was
            # evaluated, so (cost, error) rows pair up in work-precision
            # tables.
            rec = RunRecord(
                k=k, m=k, gamma_k=None, x_k=x, residual_norm=rn,
                inner_iterations=0,
                cumulative_cost=model.cost.total - self.cost_start,
                phi_k=None, event=EVENT_FINAL,
                error=None if diff is None
                else math.sqrt(np.vdot(diff, diff)),
                wall_time_s=time.perf_counter() - self.t_start)
            records.append(rec)
            if probe is not None:
                probe(rec, residual_vec)
            if stop is not None and stop(k, rn, rec.phi_k):
                terminal = TERMINAL_STOP
                break
            if rn > DIVERGENCE_FACTOR * records[0].residual_norm:
                terminal = TERMINAL_BREAKDOWN
                meta["breakdown"] = (
                    f"residual norm {rn!r} exceeds {DIVERGENCE_FACTOR!r} "
                    "times the starting residual")
                break
            if self.end_reason is not None:
                terminal = self.end_reason
                break
            if k == max_steps:
                break
            try:
                x = x + step(rec, x, residual_vec)
                residual_vec = self.y_obs - model.evaluate(x)
            except ContractError as exc:
                rec.event, rec.inner_iterations = EVENT_FINAL, 0
                terminal = TERMINAL_BREAKDOWN
                meta["breakdown"] = str(exc)
                break
        records[-1].cumulative_cost = model.cost.total - self.cost_start
        meta["inner_unconverged"] = int(self.end_reason == TERMINAL_INNER_CAP)
        return RunHistory(records=records, terminal_reason=terminal,
                          method=method, meta=meta)


def irgnm_run(model, y_obs, x0, *, variant="prec", rhs_kind=IRGNM,
              max_newton=25, stop=None, phi_estimator=None, truth=None):
    """Semi-frozen spectrally preconditioned regularized Newton iteration.

    Per step k: evaluate F(x_k), consult the stop driver
    ``stop(k, residual_norm, phi_k)``, and take the step ``_plan_step``
    plans for ``variant``: "prec", "plain" (no preconditioner) or the
    "frozen" ablation (no update). A Recompute or Update builds: an
    accurate two-sided solve over the pair set it starts from (empty after
    a relinearization), then the Ritz harvest merged into that set; its
    step is the solve's first iterate that meets the standard tolerance,
    and its inner count, which the Update rule reads, the whole accurate
    run; the harvest keeps the images A^T A u of its pairs, read from the
    run's own products. A Plain step runs CG at standard tolerance,
    preconditioned by the current pair set if there is one and started
    from the Galerkin solution over it (0 iterations if that meets the
    test), and adds its count to the rent the next Update waits for. Each
    step keeps the misfit its frozen linear model predicts
    (``_predicted_misfit``); the next residual norm above STALE_RATIO times
    it lets irgnm-prec recompute at a due step. gamma0, held in
    ``meta["gamma0"]``, is the Lanczos estimate of
    ||A_0^T A_0|| after F(x_0) from the first solve's right-hand side
    (``_estimate_from_gradient``), and the k = 0 solve, Recompute or Plain,
    is that Lanczos run's own ``solve`` at shift gamma0; its state is
    dropped after the step. ``meta["estimate_units"]``
    counts the estimate's units that solve did not reuse: none once it
    takes GRAM_ESTIMATE_STEPS iterations. A solve capped at MAX_INNER ends
    the run with InnerCap, as in ``newton_cg_run``.

    Returns a RunHistory named irgnm-<variant>, whose last record (event
    Final) carries the terminal iterate; ``phi_estimator`` (an object with
    ``evaluate(gamma_k, precond)`` and ``needs_left_vectors``) fills the
    phi column using the pair set current at each step.
    """
    check_newton_settings(max_newton, variant=variant, rhs_kind=rhs_kind)
    outer = _OuterLoop(model, y_obs, x0, truth)
    x0 = outer.x0
    jac = first = precond = gamma0 = None
    m = plain_inner = build_inner = 0
    predicted = math.inf  # no step has been predicted before k = 0
    meta = {}

    def probe(rec, residual_vec):
        nonlocal gamma0, precond, first
        if rec.k == 0:
            start = model.cost.total
            gamma0, first = _estimate_from_gradient(
                model.linearize(x0), residual_vec, variant != "plain")
            meta["gamma0"] = gamma0
            meta["estimate_units"] = model.cost.total - start
            precond = SpectralPreconditioner.empty(gamma0, model.domain_dim)
        rec.gamma_k = gamma0 * max(GAMMA_FACTOR ** (-rec.k), GAMMA_FLOOR)
        rec.m = m
        if phi_estimator is not None:
            rec.phi_k = float(phi_estimator.evaluate(rec.gamma_k, precond))

    def step(rec, x, residual_vec):
        nonlocal jac, precond, m, plain_inner, build_inner, first, predicted
        k, gamma_k = rec.k, rec.gamma_k
        stale = rec.residual_norm > STALE_RATIO * predicted
        rec.event, relinearize = _plan_step(k, m, plain_inner, build_inner,
                                            variant, stale)
        if relinearize:
            jac = model.linearize(x)
            m = rec.m = k
        prior = x0 - x if rhs_kind == IRGNM else np.zeros_like(x)
        sys = TikhonovSystem(jac, gamma_k, residual_vec, prior)
        build = rec.event != EVENT_PLAIN
        base = SpectralPreconditioner.empty(gamma_k, model.domain_dim) \
            if relinearize else precond.with_gamma(gamma_k)
        if k == 0:
            # continue the Lanczos run of the gamma0 estimate, on A^T A at
            # shift gamma_k; its trace is that of the two-sided system over
            # the empty pair set, which a build harvests and a Plain step
            # reads only for its count, its convergence and h^T b
            epsilon = EPS_ACCURATE if build else EPS_STANDARD
            h, trace = first.solve(gamma_k, epsilon * gamma_k, MAX_INNER,
                                   EPS_STANDARD * gamma_k if build else None)
            # the estimate's units this solve reused
            meta["estimate_units"] -= min(meta["estimate_units"],
                                          1 + 2 * trace.iterations)
            if build:  # A^T A M^{-1/2} q_j, M = gamma_k I, in the rows
                # of a run that is dropped below
                products = first.products.rows[:trace.iterations]
                products /= math.sqrt(gamma_k)
                harvest = _harvest(trace, base, (products, 0.0))
            first = None
        elif build:
            tsys = TwoSidedSystem(sys, base)
            h_t, trace = pcg_solve(tsys, None, EPS_ACCURATE, MAX_INNER,
                                   step_epsilon=EPS_STANDARD)
            h = tsys.pull_back(h_t)
            harvest = _harvest(trace, base,
                               (tsys.products.rows, gamma_k))
        else:
            h, trace = pcg_solve(sys, base if base.pair_count else None,
                                 EPS_STANDARD, MAX_INNER)
        if build:
            precond = merge_pairs(base, harvest)
            if phi_estimator is not None and phi_estimator.needs_left_vectors:
                precond = precond.attach_left_vectors(jac)
            plain_inner, build_inner = 0, trace.iterations
        else:
            plain_inner += trace.iterations
        predicted = _predicted_misfit(sys, h, trace, rec.residual_norm)
        rec.inner_iterations = trace.iterations
        if not trace.converged:
            outer.end_reason = TERMINAL_INNER_CAP
        return h

    return outer.run(step, max_newton, stop, f"irgnm-{variant}", meta, probe)


def landweber_run(model, y_obs, x0, *, max_steps=2000, stop=None,
                  truth=None):
    """Gradient descent x_{k+1} = x_k + mu A_k^T (y - F(x_k)).

    mu = 0.95 / ``estimate_gram_norm(A_0)`` (``meta["mu"]``); a ContractError
    refuses a Jacobian at x0 that admits no estimate or overflows mu.
    Each step costs one evaluation plus one adjoint apply. Aborts with a
    Breakdown terminal if the residual grows tenfold above its start, and
    ends with terminal StepCap at ``max_steps``.
    """
    check_step_cap(max_steps)
    outer = _OuterLoop(model, y_obs, x0, truth)
    gram_norm = estimate_gram_norm(model.linearize(outer.x0))
    mu = 0.95 / gram_norm
    if mu == math.inf:
        raise ContractError(f"mu = 0.95 / {gram_norm!r} overflows")

    def step(rec, x, residual_vec):
        rec.event = EVENT_BASELINE
        return mu * model.linearize(x).apply_adjoint(residual_vec)

    return outer.run(step, max_steps, stop, "landweber", {"mu": mu},
                     cap_reason=TERMINAL_STEP_CAP)


def newton_cg_run(model, y_obs, x0, *, max_newton=25, stop=None, truth=None):
    """Newton iteration with truncated-CG inner solves and no Tikhonov term.

    The inner loop on A_k^T A_k h = A_k^T (y - F(x_k)) stops once the inner
    data misfit drops below INNER_RHO times the outer residual; truncation is
    the sole regularization. A solve that reaches MAX_INNER iterations
    above that target defines no Newton-CG step: its step is still taken,
    and the run ends at the Final row of the iterate it produced, with
    terminal InnerCap, unless the stop driver ends it there first.
    """
    check_newton_settings(max_newton)
    outer = _OuterLoop(model, y_obs, x0, truth)

    def step(rec, x, residual_vec):
        h, rec.inner_iterations, capped = _truncated_cgne(
            model.linearize(x), residual_vec, INNER_RHO, MAX_INNER)
        if capped:
            outer.end_reason = TERMINAL_INNER_CAP
        rec.event = EVENT_BASELINE
        return h

    return outer.run(step, max_newton, stop, "newton-cg", {})
