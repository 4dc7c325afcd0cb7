"""Metric heat flow: one adaptive driver, and the harmonic/Poisson solves on it.

The update is multiplicative, ``H <- H exp(2 dt Q)`` with Q the tension field,
so Hermitian positivity survives any step size. Because Q is the exact
gradient of the edge energy, an accepted step decreases the energy to first
order by ``2 ||Q||^2 dt``; the adaptive controller rejects steps that raise
the energy beyond roundoff slack, or whose metric overflows, and halves the
step size instead. Each run reports its trials, rejections, accepted energy
rises and the wall time of its phases. A domain with a boundary is a
Dirichlet problem: its boundary sites hold the reference metric K, and the
unknowns and the residual are the interior sites.

``solve_harmonic`` and ``solve_poisson`` take an implicit (backward) Euler
step of the same flow instead: each trial solves ``(M + dt Hess) S = M Q``
on the interior sites (every site of a closed domain), with ``Hess`` the
exact Hessian of the edge energy along ``H -> H exp(X)``
(``bundle.energy_hessian``), by preconditioned conjugate gradients
(``_implicit_direction``), and steps ``H <- H exp(2 dt S)``.
``M + dt Hess`` is positive definite, so S descends the energy at any dt,
and as dt grows the step becomes Newton's step for the energy. On the
implicit step ``_drive`` also grows dt by the ratio by which an accepted
step lowered the residual (``RATIO_GROWTH_MAX``, ``IMPLICIT_DT_CAP``), a
pseudo-transient continuation: from ``default_dt(domain, implicit=True)`` a
converging run takes 4 or 5 steps whatever the number of sites (the explicit
step needs dt of order h^2). The ratio growth is capped, and the
``DT_GROWTH`` schedule runs alongside it. On a reducible monodromy the harmonic
metrics form a family, along which ``S = Q`` at any dt, so the step
``2 dt S`` drifts with dt: uncapped, a rank-3 12-site circle asked for 1.01
times ``_implicit_floor`` ended ``diverged`` after 1,653 steps instead of
converging in 344. With the ratio rule in place of the schedule, the implicit
runaway of the 16-site Jordan circle at tolerance 1e-8 ended ``max_steps``
at 20,000 steps; with both it converges in 645. One case keeps the explicit
step, chosen once per run (``_strategy``): a closed domain asked for a
residual at or below the implicit step's roundoff floor
(``_implicit_floor``). There the Hessian has a kernel, and a flow with no
harmonic metric to reach (a unipotent monodromy) runs away along it. The
explicit step moves such a state along a site-constant direction that
excites no other mode and, with the runaway growth rule below, reaches the
``diverged`` verdict with its residual resolved in hundreds of steps; along
the kernel the implicit step buys nothing (S = Q there).

The implicit solve is an inexact Newton step (Eisenstat & Walker 1996): CG
stops at ``max(CG_RTOL, eta)`` times the right-hand side, with the forcing
term eta of ``_forcing_term``, ``ETA_MAX`` until a run's first accepted step
and then ``min(ETA_MAX, ETA_GAMMA (r / r_prev)^2)`` for the residual r of
the current metric and r_prev the one before the last accepted step
(``FlowState.residual_prev``). A trial is judged only by its energy and its
new residual, so solving it to 1e-13 buys nothing the next trial does not
redo: the ``circle-harmonic`` inputs (seeds 1 to 8) take the same 5 steps
with 28 to 34 CG iterations instead of 102 to 125, and the rectangles of
``scripts/bench_implicit.py`` the same 4 steps with 8 instead of 16. A run
whose tolerance is at most ``EXACT_SOLVE_MARGIN`` times ``_implicit_floor``
keeps eta = 0: near the floor the solves' roundoff decides how the run
crawls to its tolerance.

On the explicit step, and there only, ``_drive`` adds a growth rule to the
adaptive schedule (``RUNAWAY_GROWTH``, ``RUNAWAY_GATE``). Along a runaway
nothing but the dt schedule bounds the step count, and ``x DT_GROWTH`` per
``dt_growth_every`` accepted steps took thousands of steps to ``diverged``.
So after an accepted step that lowered the residual and raised
sup ||log h||, dt doubles, provided sup ||log h|| lies above a tenth of the
divergence threshold and below the threshold, and the run's latch is still
open; the default schedule runs otherwise. The gate keeps converging runs,
whose sup ||log h|| stays small, on the default schedule bit for bit;
doubling above the CFL limit would let high-frequency modes grow on the
energy slack. The latch closes for the rest of the run at its first
rejection or first accepted step whose residual did not fall, which is where
a converging run that passed the gate shows it: without the latch such a
run ends ``max_steps`` with thousands of rejections. Past the threshold the
patience window of ``DIVERGENCE_PATIENCE`` accepted steps keeps the default
schedule, so the verdict lands a few units past the threshold. Growing dt
(x1.2) on every clean step of that window too carried the ``circle-runaway``
inputs to sup ||log h|| 63.8, where a 50-digit evaluation of the final
energy (3.3e-40) is off by 7.5e-11 relative, against 5e-16 at 80 digits:
the verdict's energy outruns the precision of an independent check.

Each trial takes one eigendecomposition of its metric: its split checks it
and computes its scaled square root ``(d, Ht^{1/2}, Ht^{-1/2})`` in one act
(``linalg.check_metric``, kept as ``SplitMetric.root``); the split's
``tension`` reads it, and the next trial's ``metric_exp_update`` takes it
from the accepted state. The fixed reference K is checked and factored once
per solve: a run whose start metric holds K's bits (every fresh run, and the
first exhaustion level) takes K's root from its start split, and any other
run checks and factors K before its start metric. ``_drive`` keeps g^{-1}
of K's frame for the relative eigenvalues lambda of K^{-1}H
(``linalg.rel_eigvals``); sigma is read off the lambda that the log h
monitors already need, as sum((lambda - 1)^2 / lambda)
(``linalg.donaldson_sigma``). A converged
Poisson run takes no further one: det normalization carries the final split
to the normalized metric by its conformal law, in place
(``bundle.conformal_split``).

Verdicts, each with a one-line ``verdict_reason``:

- ``converged``: the residual (full tension for harmonic runs, its trace-free
  part for Poisson runs) drops below tolerance.
- ``diverged``: sup ||log h|| stays beyond the divergence threshold with the
  residual still above tolerance for a sustained run of steps, the numerical
  signature of monodromy that admits no harmonic metric. The edge quantities
  are carried as small quantities in the diagonally scaled frame of the
  metric, so the residual of such a runaway keeps its relative precision far
  past the point where the edge comparison P equals I to roundoff (for the
  unipotent circle monodromy, beyond sup ||log h|| = 50).
- ``precision_floor``: the residual reads below tolerance, but it is at or
  below its own roundoff floor while the last accepted step still grew
  sup ||log h||. Such a state cannot be told apart from a harmonic metric in
  double precision, so it is not reported as one.
- ``max_steps`` otherwise (including a collapsed step size).
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg as la
from .analysis import donaldson_distance, runaway_certificate
from .bundle import (
    FlatConnection,
    SplitMetric,
    conformal_split,
    covariant_d,
    energy_hessian,
    split_metric,
)
from .mesh import LatticeDomain, flat_preconditioner, sublevel_domain

Array = np.ndarray

# Allowed relative rise of the energy on an accepted step. The energy is a sum
# of nonnegative edge terms, each carried to full relative precision, so its
# rounding error scales with the energy itself; an absolute allowance would
# accept energy-raising steps once the energy is far below one.
ENERGY_RTOL = 1e-12

# Roundoff multiple of the fluxes summed into the tension below which a
# residual no longer certifies convergence.
FLOOR_ULPS = 8.0

# The runaway growth rule (``_drive``'s explicit step): dt is multiplied by
# RUNAWAY_GROWTH, the inverse of a rejection's halving, after each accepted
# step that lowered the residual and raised sup ||log h|| while sup ||log h||
# lies above RUNAWAY_GATE times the divergence threshold and below the
# threshold, until the first rejection or non-falling residual of the run.
# Measured on the Jordan circle (one BLAS thread, 2-core x86_64 host): the
# circle-runaway inputs reach ``diverged`` in 478 accepted steps instead of
# 2,127 (0.37 s against 1.84 s), at sup ||log h|| 54.55 instead of 52.57,
# with no rejection; acceptance criterion 3 in 1,577 steps instead of 8,461.
# Doubling from the start (no gate) took 210 steps there, but is not safe on
# converging runs: a rank-3 12-site circle at tolerance 1e-14 (monodromy
# g diag(4, 1, 1/4) g^{-1}, reference seed 1) stood at residual 1.3e-5 after
# 20,000 steps instead of 4.8e-10. The converging 16-site circle of
# diag(2, 1/2) at tolerance 5e-13 (sup ||log h|| 0.28) runs bit-identically
# at threshold 50; at threshold 1, where the gate lies below its
# sup ||log h||, it converges in 7,083 steps instead of 7,393 with the latch
# and ends max_steps without it.
RUNAWAY_GROWTH = 2.0
RUNAWAY_GATE = 0.1

# The default adaptive schedule: dt is multiplied by DT_GROWTH after every
# ``SolveOptions.dt_growth_every`` accepted steps.
DT_GROWTH = 1.2

# The implicit step's residual-ratio growth (pseudo-transient continuation):
# after each accepted implicit step dt is multiplied by the ratio of the
# residual before the step to the one after it, clipped to
# [1, RATIO_GROWTH_MAX], but not past IMPLICIT_DT_CAP times
# ``default_dt(domain, implicit=True)``; the DT_GROWTH schedule runs too.
# With the exact Hessian in the implicit step the diag(2, 1/2) circle
# (tolerance 1e-7) converges in 4 steps at 16 to 256 sites instead of 27,
# and the circle-harmonic inputs in 5 instead of 30 (BENCH_closed.json).
# An implicit trial rejected above the cap restarts at it, where halving
# from dt = 1e100 took a rank-3 circle 276 rejections.
RATIO_GROWTH_MAX = 10.0
IMPLICIT_DT_CAP = 1e3

# Accepted steps that sup ||log h|| must stay beyond the divergence threshold,
# with the residual above tolerance, before the verdict is ``diverged``.
DIVERGENCE_PATIENCE = 100

# The implicit step's conjugate gradients stop at a residual of
# max(CG_RTOL, eta) times the right-hand side, or after CG_MAX_ITERATIONS.
# eta is the inexact Newton forcing term of ``_forcing_term`` (ETA_MAX,
# ETA_GAMMA), and 0 in a run whose tolerance is at most EXACT_SOLVE_MARGIN
# times ``_implicit_floor``: near the floor the solves' roundoff decides the
# crawl. Without that gate the 1.01x-floor runs of the rank-3 12-site circles
# of ``_implicit_floor`` (reference seeds 0 to 3) took 287, 1,426, 4,254 and
# 3,824 steps instead of 344, 480, 435 and 2,072; from 10.01x up they take 8
# steps either way.
CG_RTOL = 1e-13
CG_MAX_ITERATIONS = 200
ETA_MAX = 0.1
ETA_GAMMA = 0.9
EXACT_SOLVE_MARGIN = 10.0

HISTORY_COLUMNS = (
    "step",
    "time",
    "dt",
    "energy",
    "residual_sup",
    "residual_l2",
    "tracefree_residual_sup",
    "logdet_min",
    "logdet_max",
    "sigma_to_reference",
)


@dataclass
class SolveOptions:
    tolerance: float = 1e-8
    max_steps: int = 200_000
    dt_growth_every: int = 20
    divergence_threshold: float = 50.0

    def validate(self) -> None:
        # Written so that a NaN, for which every comparison is false, fails too.
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance {self.tolerance!r} must be positive and finite")
        if not self.tolerance < self.divergence_threshold < np.inf:
            raise ValueError(f"divergence_threshold {self.divergence_threshold!r} must be "
                             "finite and above the tolerance")
        if self.max_steps < 0:
            raise ValueError(f"max_steps {self.max_steps!r} must be 0 or more")
        if self.dt_growth_every < 1:
            raise ValueError(f"dt_growth_every {self.dt_growth_every!r} must be 1 or more")


@dataclass
class FlowState:
    time: float
    metric: Array
    dt: float
    step: int = 0
    accepted_since_growth: int = 0
    divergence_streak: int = 0
    history: list[tuple] = field(default_factory=list)
    # The runaway growth rule's latch: open until the first rejection or the
    # first accepted step whose residual did not fall.
    latch_open: bool = True
    # sup ||log h|| before the last accepted step, which ``settle`` compares
    # against; None until ``_drive`` measures the start metric.
    logh_prev: float | None = None
    # The residual the run is judged by before the last accepted step, which
    # the latch, the ratio growth and the forcing term read; None until then.
    residual_prev: float | None = None


@dataclass
class RunReport:
    verdict: str                    # converged | diverged | precision_floor | max_steps
    steps: int
    time: float
    metric: Array
    residual_sup: float
    tracefree_residual_sup: float
    energy: float
    sigma_sup: float
    logh_sup: float
    history: Array                  # rows aligned with accepted steps, HISTORY_COLUMNS
    split: SplitMetric | None       # bundle.split_metric at ``metric``; None once let go
    poisson_function: Array | None = None
    notes: list[str] = field(default_factory=list)
    verdict_reason: str = ""
    trial_steps: int = 0            # steps tried in this call, accepted or rejected
    rejected_steps: int = 0
    energy_rises: int = 0           # accepted steps whose energy rose within the slack
    phase_seconds: dict[str, float] = field(default_factory=dict)  # wall time per phase
    step_kind: str = "explicit"     # "implicit" | "explicit": the step the run took
    cg_iterations: int = 0          # CG iterations of the implicit solves, over all trials
    cg_iterations_max: int = 0      # the most CG iterations in one trial


def default_dt(domain: LatticeDomain, implicit: bool = False) -> float:
    """The starting step size: 0.2 min(spacing)^2 for the heat flow, min(length)^2 implicit.

    The implicit step is stable at any dt; at dt = L^2 for the domain's
    smallest extent L, one step damps the slowest Dirichlet mode (decay rate
    about pi^2 / L^2) by a factor of about 1 + pi^2.
    """
    if implicit:
        return min(domain.lengths) ** 2
    return 0.2 * min(domain.spacings) ** 2


def _residuals(sm: SplitMetric) -> dict:
    """The residuals of a split's tension, and the floor below which they certify nothing.

    Returns the ``split``, whose ``tension`` is the heat flow's step
    direction and whose ``energy`` step control compares, with the residuals
    ``residual_sup``, ``residual_l2`` and ``tracefree_sup`` over the interior
    sites and the roundoff ``residual_floor`` of the fluxes summed into the
    tension.
    """
    dom = sm.flat.domain
    site_norm = la.hsa_norm(sm.tension)
    tf_norm = la.tracefree_norm(sm.tension)
    active = dom.interior_mask()
    res_sup = float(site_norm[active].max())
    res_l2 = float(np.sqrt(np.sum(dom.volume[active] * site_norm[active] ** 2)))
    tf_sup = float(tf_norm[active].max())
    flux = np.zeros(dom.n_sites)
    for a in range(dom.dim):
        tails, heads = sm.flat.edge_sites(a)
        size = (dom.edge_weight[a] / dom.spacings[a] * la.hsa_norm(sm.psi[a]))[tails]
        flux[heads] += size
        flux[tails] += size
    floor = FLOOR_ULPS * np.finfo(float).eps * float((flux / dom.volume)[active].max())
    return {
        "split": sm,
        "residual_sup": res_sup,
        "residual_l2": res_l2,
        "tracefree_sup": tf_sup,
        "residual_floor": floor,
    }


def _implicit_direction(sm: SplitMetric, dt: float, eta: float) -> tuple[Array, int]:
    """The implicit Euler direction, ``(M + dt Hess) S = M Q``, and its CG iterations.

    ``Hess`` is ``bundle.energy_hessian`` at the split ``sm`` at H, M the
    site volumes and Q the split's tension. The unknowns are the interior
    sites (every site of a closed domain); S vanishes on the boundary, where
    ``_drive`` holds H at K. The step ``H exp(2 dt S)`` is backward Euler for
    the heat flow with the tension at the new metric linearized exactly,
    ``Q - dt M^{-1} Hess S``: S tends to Q as dt -> 0, and ``2 dt S`` to
    Newton's step for the energy as dt grows. In the H-orthonormal frame the
    system A x = b is real symmetric positive definite under
    ``Re tr(a b)``; conjugate gradients solve it matrix-free from zero,
    preconditioned by the flat ``M + dt sum_a c_a L_a``
    (``mesh.flat_preconditioner``), until ``||b - A x|| <= max(CG_RTOL, eta)
    ||b||``: ``eta`` is ``_drive``'s inexact Newton forcing term, 0 for a
    solve to CG_RTOL. Every iterate has ``<b, x_k> = x_k^T A x_k > 0``, that
    is ``<Q, S>_M > 0``, so even an inexact or capped S descends the energy,
    and ``_drive``'s energy test judges it.
    """
    dom = sm.flat.domain
    g, g_inv = la.orthonormal_frame(sm.root)
    hess = energy_hessian(sm, (g, g_inv))
    precondition = flat_preconditioner(dom, dt)
    mass = dom.volume[:, None, None]
    b = mass * la.mm(la.mm(g, sm.tension), g_inv)
    b[dom.boundary] = 0.0
    x = np.zeros_like(b)
    res = b
    stop = max(CG_RTOL, eta) * np.linalg.norm(b)
    iterations = 0
    while np.linalg.norm(res) > stop and iterations < CG_MAX_ITERATIONS:
        z = precondition(res)
        rz_new = np.vdot(res, z).real
        p = z if iterations == 0 else z + (rz_new / rz) * p
        rz = rz_new
        ap = mass * p + dt * hess(p)
        alpha = rz / np.vdot(p, ap).real
        x = x + alpha * p
        res = res - alpha * ap
        iterations += 1
    return la.mm(la.mm(g_inv, x), g), iterations


def _same_bits(metric, reference) -> bool:
    """Whether ``metric`` holds the float64 bits of ``reference`` as a complex field
    (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(metric), np.asarray(reference, dtype=complex)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                               np.ascontiguousarray(b).view(np.uint64)))


def _drive(
    conn: FlatConnection,
    reference: Array,
    opts: SolveOptions,
    tracefree: bool,
    implicit: bool,
    init: FlowState | None = None,
    callback: Callable[[FlowState], None] | None = None,
) -> RunReport:
    """The adaptive multiplicative flow that every solver runs.

    Each trial steps from the accepted metric along the tension of its
    split (``_residuals``), or with ``implicit`` along the linearly implicit
    direction for the current dt (``_implicit_direction``). ``_drive`` adds
    the monitors against the reference (sup ||log h||, the logdet range,
    sigma, from the relative eigenvalues of K^{-1}H) and owns step control,
    the verdicts, the boundary sites, which hold K from the start on, det
    normalization and the history. ``tracefree`` flows are judged by the
    trace-free residual, and a converged one is normalized to
    det(K^{-1}H) = 1 as H e^f, f = -log det(K^{-1}H) / r and 0 on boundary
    sites: ``bundle.conformal_split`` carries the final split to H e^f in
    place, and the monitors take the final relative eigenvalues times e^f,
    so no metric is split twice and one split is held. A run starts from the
    dt of its state; a dt <= 0 means the ``default_dt`` of its step, and a
    dt that is not finite is refused.
    ``init`` is advanced in place, and ``callback(state)`` sees it after each
    accepted step, so a caller that checkpoints it
    (``checkpoint.Checkpoint.of``) holds the run's state at every step and at
    the end. K is factored once: from the start split when the start metric
    holds K's float64 bits, else by ``linalg.check_metric(K)`` before the
    start metric is split, so a resumed or warm-started run checks K first.
    The explicit step adds the runaway growth rule to the adaptive
    schedule (module docstring); the report's notes count the steps it
    doubled dt on. The implicit step adds the residual-ratio growth after
    the schedule: ``dt <- max(dt, min(dt clip(r_prev / r, 1,
    RATIO_GROWTH_MAX), IMPLICIT_DT_CAP default_dt))`` for the residuals
    before and after the accepted step, and solves each trial to the forcing
    term of ``_forcing_term`` (module docstring). Both rules run before the
    callback, and the state holds r_prev (``FlowState.residual_prev``), so a
    checkpoint holds the grown dt and the forcing term's residuals and a
    resume is bit-exact. A trial whose update overflows, or whose metric the
    split refuses as not finite or not positive definite, is rejected, as a
    trial that raises the energy is: dt halves, on the implicit step to at
    most ``IMPLICIT_DT_CAP default_dt``. The report's
    ``phase_seconds`` holds the wall time of the ``diagnostics`` (splits,
    residuals, monitors and the normalization), the implicit ``solve`` and
    the ``update``. Its ``split`` is the split of its final ``metric``, whose
    own array the split holds, with the tension read.
    """
    domain = conn.domain
    opts.validate()
    if init is None:
        state = FlowState(time=0.0, metric=np.asarray(reference, dtype=complex).copy(), dt=0.0)
    else:
        state = init
    # K's root is a function of its bits: a run that starts at K reads it off the start split.
    at_k = _same_bits(state.metric, reference)
    ref_g_inv = None if at_k else la.orthonormal_frame(la.check_metric(reference))[1]
    phases = dict.fromkeys(("diagnostics", "solve", "update"), 0.0)

    def monitored(diag: dict, eigs: Array, start: float) -> dict:
        """``diag`` with the monitors against K from the relative eigenvalues ``eigs``."""
        logs = np.log(eigs)
        logdet = logs.sum(axis=1)
        diag.update(eigs=eigs, logdet_min=float(logdet.min()), logdet_max=float(logdet.max()),
                    logh_sup=float(np.sqrt((logs ** 2).sum(axis=1)).max()),
                    sigma_sup=float(la.donaldson_sigma(eigs).max()))
        phases["diagnostics"] += _time.perf_counter() - start
        return diag

    def diagnose(metric: Array) -> dict:
        """The residuals of a metric's split, and its monitors."""
        nonlocal ref_g_inv
        start = _time.perf_counter()
        sm = split_metric(conn, metric)
        if ref_g_inv is None:    # the start split, at K
            ref_g_inv = la.orthonormal_frame(sm.root)[1]
        return monitored(_residuals(sm), la.rel_eigvals(metric, ref_g_inv), start)

    if not np.isfinite(state.dt):
        raise ValueError(f"dt {state.dt!r} of the flow state must be finite")
    if domain.boundary.any():    # the Dirichlet data, which every trial and f = 0 keep
        state.metric = np.where(domain.boundary[:, None, None], reference, state.metric)
    diag = diagnose(state.metric)
    if state.dt <= 0:
        state.dt = default_dt(domain, implicit)
    if state.logh_prev is None:
        state.logh_prev = diag["logh_sup"]
    if not state.history:
        state.history.append(_row(state, state.dt, diag))
        if callback is not None:
            callback(state)

    key = "tracefree_sup" if tracefree else "residual_sup"
    verdict, reason = "max_steps", ""
    notes: list[str] = []
    trials = rejected = rises = doubled = cg_total = cg_max = 0
    gate_low = RUNAWAY_GATE * opts.divergence_threshold
    dt_cap = IMPLICIT_DT_CAP * default_dt(domain, implicit=True)
    exact_solves = opts.tolerance <= EXACT_SOLVE_MARGIN * _implicit_floor(domain)
    while state.step < opts.max_steps:
        settled = settle(diag[key], opts.tolerance, diag["residual_floor"],
                         diag["logh_sup"], state.logh_prev)
        if settled:
            verdict, reason = settled
            break
        direction = diag["split"].tension
        if implicit:
            start = _time.perf_counter()
            eta = 0.0 if exact_solves else _forcing_term(diag[key], state.residual_prev)
            direction, iterations = _implicit_direction(diag["split"], state.dt, eta)
            phases["solve"] += _time.perf_counter() - start
            cg_total += iterations
            cg_max = max(cg_max, iterations)
        start = _time.perf_counter()
        trials += 1
        try:
            # A trial that overflows, or whose metric the split refuses as not
            # finite or not positive definite, is rejected like one that
            # raises the energy.
            with np.errstate(over="raise", invalid="raise"):
                trial = la.metric_exp_update(direction, 2.0 * state.dt, diag["split"].root)
                trial[domain.boundary] = reference[domain.boundary]
                phases["update"] += _time.perf_counter() - start
                diag_trial = diagnose(trial)
        except (FloatingPointError, ValueError):
            diag_trial = None
        energy = diag["split"].energy
        if diag_trial is None or diag_trial["split"].energy > energy + ENERGY_RTOL * energy:
            rejected += 1
            state.dt = min(0.5 * state.dt, dt_cap) if implicit else 0.5 * state.dt
            state.accepted_since_growth = 0
            state.latch_open = False
            if state.dt < 1e-300:
                notes.append("step size collapsed; aborting")
                reason = "step size collapsed below 1e-300"
                break
            continue
        rises += diag_trial["split"].energy > energy
        dt_used = state.dt
        state.metric = trial
        state.time += dt_used
        state.step += 1
        state.logh_prev, state.residual_prev = diag["logh_sup"], diag[key]
        diag = diag_trial
        state.history.append(_row(state, dt_used, diag))
        if diag["logh_sup"] > opts.divergence_threshold and diag[key] > opts.tolerance:
            state.divergence_streak += 1
        else:
            state.divergence_streak = 0
        state.accepted_since_growth += 1
        state.latch_open = state.latch_open and diag[key] < state.residual_prev
        if (not implicit and state.latch_open and diag["logh_sup"] > state.logh_prev
                and gate_low < diag["logh_sup"] < opts.divergence_threshold):
            state.dt *= RUNAWAY_GROWTH
            state.accepted_since_growth = 0
            doubled += 1
        elif state.accepted_since_growth >= opts.dt_growth_every:
            state.dt *= DT_GROWTH
            state.accepted_since_growth = 0
        if implicit:
            ratio = state.residual_prev / diag[key] if diag[key] > 0 else RATIO_GROWTH_MAX
            state.dt = max(state.dt, min(state.dt * min(max(ratio, 1.0), RATIO_GROWTH_MAX),
                                         dt_cap))
        if callback is not None:
            callback(state)
        if state.divergence_streak >= DIVERGENCE_PATIENCE:
            verdict = "diverged"
            reason = (f"sup|log h| {diag['logh_sup']:.3f} beyond threshold "
                      f"{opts.divergence_threshold:g} with the residual above tolerance for "
                      f"{DIVERGENCE_PATIENCE} accepted steps")
            break
    if verdict == "max_steps":
        settled = settle(diag[key], opts.tolerance, diag["residual_floor"],
                         diag["logh_sup"], state.logh_prev)
        if settled:
            verdict, reason = settled
        else:
            if not reason:
                reason = f"step limit {opts.max_steps} reached with residual {diag[key]:.3e}"
            if rises:
                reason += f"; {rises} of {trials - rejected} accepted steps raised the energy"

    if doubled:
        notes.append(f"dt doubled on {doubled} accepted steps by the runaway growth rule")

    if tracefree and verdict == "converged":
        # Det normalization H e^f, f = -log det(K^{-1}H) / r, from the relative
        # eigenvalues the monitors took; f = 0 on the boundary keeps H = K there.
        start = _time.perf_counter()
        f = -np.log(diag["eigs"]).sum(axis=1) / conn.rank
        f[domain.boundary] = 0.0
        diag = monitored(_residuals(conformal_split(diag["split"], f)),
                         diag["eigs"] * np.exp(f)[:, None], start)
        state.metric = diag["split"].metric

    report = RunReport(
        verdict=verdict,
        steps=state.step,
        time=state.time,
        metric=diag["split"].metric,
        residual_sup=diag["residual_sup"],
        tracefree_residual_sup=diag["tracefree_sup"],
        energy=diag["split"].energy,
        sigma_sup=diag["sigma_sup"],
        logh_sup=diag["logh_sup"],
        history=np.array(state.history, dtype=float),
        notes=notes,
        verdict_reason=reason,
        trial_steps=trials,
        rejected_steps=rejected,
        energy_rises=rises,
        phase_seconds=phases,
        step_kind="implicit" if implicit else "explicit",
        cg_iterations=cg_total,
        cg_iterations_max=cg_max,
        split=diag["split"],
    )
    return report


def _forcing_term(residual: float, residual_prev: float | None) -> float:
    """The inexact Newton forcing term ``eta`` of the next implicit solve.

    Eisenstat and Walker's choice 2, ``min(ETA_MAX, ETA_GAMMA (r / r_prev)^2)``
    for the residual r of the current metric and r_prev the one before the
    last accepted step; ETA_MAX before a run's first accepted step. A solve
    to eta leaves the step as exact as the outer progress can use: the
    faster the residual falls, the tighter the next solve.
    """
    if not residual_prev:
        return ETA_MAX
    return min(ETA_MAX, ETA_GAMMA * (residual / residual_prev) ** 2)


def settle(
    residual: float, tolerance: float, floor: float, logh: float, logh_prev: float
) -> tuple[str, str] | None:
    """(verdict, reason) once the residual reads below tolerance, else None.

    A residual at or below its roundoff ``floor`` certifies nothing when the
    last accepted step grew sup ||log h|| from ``logh_prev`` to ``logh``: the
    metric is still running away and only the residual's digits have run out.
    """
    if residual >= tolerance:
        return None
    if residual <= floor and logh > logh_prev:
        return "precision_floor", (
            f"residual {residual:.3e} < tolerance {tolerance:.1e} is at or below its "
            f"roundoff floor {floor:.3e} while sup|log h| grew to {logh:.3f}"
        )
    return "converged", f"residual {residual:.3e} < tolerance {tolerance:.1e}"


def _row(state: FlowState, dt: float, diag: dict) -> tuple:
    return (
        state.step,
        state.time,
        dt,
        diag["split"].energy,
        diag["residual_sup"],
        diag["residual_l2"],
        diag["tracefree_sup"],
        diag["logdet_min"],
        diag["logdet_max"],
        diag["sigma_sup"],
    )


def _implicit_floor(domain: LatticeDomain) -> float:
    """The roundoff floor of the implicit step's residual: FLOOR_ULPS eps 2 sum_a 1/h_a^2.

    Every implicit solve leaves roundoff in S that differs from site to site,
    and the next tension sees it through the Laplacian, whose largest entry
    is ``2 sum_a 1/h_a^2``. The margin is measured, not derived: converging
    rank-3 runs on the 12-site unit circle (monodromy g diag(4, 1, 1/4) g^{-1},
    g = I + 0.5 N for a seed-0 normal N; reference seeds 0 to 3) asked for 1.5
    times the floor end ``converged`` in 9 to 26 steps, and at 1.01 times in
    344 to 2,072. On the 16-site Jordan circle (floor 9.1e-13) the implicit
    runaway's residual falls to 4.7e-18 in 3,000 steps, but sup ||log h|| only
    to 28, and it ends ``diverged`` after 6,584 steps, where the explicit
    step on the ``circle-runaway`` inputs is ``diverged`` at 54.6 in 478.
    """
    return FLOOR_ULPS * np.finfo(float).eps * 2.0 * sum(1.0 / h ** 2 for h in domain.spacings)


def _strategy(conn: FlatConnection, opts: SolveOptions) -> tuple[bool, list[str]]:
    """Whether one solve takes ``_drive``'s implicit step, and notes.

    Runs on a domain with a boundary (Dirichlet problems) take the linearly
    implicit step, and so do closed-domain runs whose tolerance lies above
    ``_implicit_floor``. A closed-domain run asked for a residual at or below
    that floor keeps the heat flow's explicit step, with its runaway growth
    rule, for the whole run, and says so in a note. The module docstring
    gives the reasons for both. The choice is made once, up front.
    """
    dom = conn.domain
    floor = _implicit_floor(dom)
    if dom.boundary.any() or opts.tolerance > floor:
        return True, []
    return False, [
        f"explicit heat-flow step: tolerance {opts.tolerance:.3e} is at or below the "
        f"implicit step's roundoff floor {floor:.3e}"]


def solve_harmonic(
    conn: FlatConnection,
    reference: Array,
    opts: SolveOptions | None = None,
    init: FlowState | None = None,
    callback=None,
) -> RunReport:
    """Flow from H(0) = K until the tension drops below tolerance.

    On a domain with a boundary the boundary sites hold K (the Dirichlet
    problem), and the run takes the linearly implicit step
    (``_implicit_direction``). So does a run on a closed domain, unless its
    tolerance is at or below the implicit step's roundoff floor
    (``_strategy``); then it takes the heat flow's explicit step, and a note
    in the report gives the tolerance and the floor. A ``diverged`` verdict
    on a domain with loops and rank <= 3 names, in its reason, the invariant
    sub-bundle along which the metric degenerates
    (``analysis.runaway_certificate``).
    """
    opts = opts or SolveOptions()
    implicit, notes = _strategy(conn, opts)
    report = _drive(conn, reference, opts, tracefree=False, implicit=implicit, init=init,
                    callback=callback)
    report.notes[:0] = notes
    if report.verdict == "diverged" and conn.loops and conn.rank <= 3:
        report.verdict_reason += runaway_certificate(conn, reference, report.metric)
    return report


def solve_poisson(
    conn: FlatConnection,
    reference: Array,
    opts: SolveOptions | None = None,
    init: FlowState | None = None,
    callback=None,
) -> RunReport:
    """Flow until the trace-free tension vanishes, then normalize det(K^{-1}H) = 1.

    The step is chosen as in ``solve_harmonic``. The residual trace part
    becomes the scalar Poisson function, reported per site in
    ``poisson_function``.
    """
    opts = opts or SolveOptions()
    implicit, notes = _strategy(conn, opts)
    report = _drive(conn, reference, opts, tracefree=True, implicit=implicit, init=init,
                    callback=callback)
    report.notes[:0] = notes
    report.poisson_function = (np.einsum("nii->n", report.split.tension) / conn.rank).real
    return report


@dataclass
class ExhaustionMonitor:
    level: float
    n_sites: int
    sup_log_h: float
    dh_l2: float
    cauchy_sup: float     # sup Donaldson distance to the previous level on its sites; NaN first


def exhaustion_solve(
    conn: FlatConnection,
    reference: Array,
    levels: list[float],
    opts: SolveOptions | None = None,
) -> tuple[list[RunReport], list[ExhaustionMonitor]]:
    """Dirichlet Poisson solves on the nested sublevel bands, with monitors.

    For each level the sublevel sub-domain inherits the transports and the
    reference metric, the boundary data is K on the sublevel boundary, and the
    solve enforces det h = 1. The levels run as a continuation: each solve
    starts from the previous level's solution on the sites they share and from
    K elsewhere, boundary included. The Dirichlet problem has one solution, so
    this changes where the flow starts, not where it ends. Only a converged
    level is carried on: after any other verdict the next level starts from K,
    as a solve on its own would. The warm start saves the most once the levels
    pass the support of the defect K carries, where the inner solution is
    already the outer one. Inside that support, or for a defect that only
    decays, the outer solution differs from the inner one everywhere, and the
    warm start saves few steps, if any.

    Reported per level: sup ||log h_s||, the L2 norm of the flat covariant
    derivative of h_s over the sublevel, and ``cauchy_sup``, the sup over the
    previous level's sites of the Donaldson distance between the two levels'
    metrics (NaN for the first level).
    """
    opts = opts or SolveOptions()
    reports: list[RunReport] = []
    monitors: list[ExhaustionMonitor] = []
    ref = np.asarray(reference, dtype=complex)
    last = ref            # parent-sized start field: the last converged level, else K
    previous = prev_idx = None
    for level in sorted(levels):
        sub, idx_map = sublevel_domain(conn.domain, level)
        # The band keeps the parent's transports and their inverses; its ends
        # along a bounded axis have no forward edge and hold the identity.
        sub_t, sub_t_inv = conn.transport[:, idx_map], conn.transport_inv[:, idx_map]
        ends = sub.neighbors[:, 0] < 0
        sub_t[ends] = sub_t_inv[ends] = np.eye(conn.rank, dtype=complex)
        loops = tuple(lp for lp in conn.loops if sub.periodic[lp.axis])
        sub_conn = FlatConnection(sub, conn.rank, sub_t, sub_t_inv, loops)
        sub_ref = ref[idx_map]
        start = last[idx_map]
        start[sub.boundary] = sub_ref[sub.boundary]
        report = solve_poisson(sub_conn, sub_ref, opts,
                               init=FlowState(time=0.0, metric=start, dt=0.0))
        reports.append(report)

        current = ref.copy()
        current[idx_map] = report.metric
        # The bands are nested, so the previous level's sites are among this one's.
        cauchy = (float("nan") if previous is None
                  else donaldson_distance(current[prev_idx], previous[prev_idx])[1])
        last = current if report.verdict == "converged" else ref
        previous, prev_idx = current, idx_map

        frame = la.orthonormal_frame(la.check_metric(sub_ref))
        dh = covariant_d(sub_conn, la.from_frame(la.metric_in_frame(report.metric, frame[1]),
                                                 frame))
        dh_l2 = 0.0
        for a in range(sub.dim):
            dens = la.endo_norm2(dh[a], frame)
            dh_l2 += float(np.sum(sub.edge_weight[a] * dens))
        monitors.append(
            ExhaustionMonitor(
                level=level,
                n_sites=sub.n_sites,
                sup_log_h=report.logh_sup,
                dh_l2=float(np.sqrt(dh_l2)),
                cauchy_sup=cauchy,
            )
        )
    return reports, monitors
