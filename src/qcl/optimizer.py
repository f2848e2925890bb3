"""Seed generation and local descent to the main-objective solution set.

Far from a solution, `minimize` is gradient descent with Armijo
backtracking: the landscapes are benign, the exact gradient is cheap, and
first-order steps decide which seeds reach a solution (Gauss-Newton steps
from the start would lose some).  Below I = `_GAUSS_NEWTON_BELOW` it first
tries a damped Gauss-Newton (Levenberg-Marquardt) step on the residual
r = (Re z, Im z), which finishes in a few iterations what gradient descent
crawls through in hundreds down the ill-conditioned valley; `polish` is
that finish run to a deeper target.  Trial steps are evaluated in batches
(`models.ChainBatch`), and the accepted point's forward sweep feeds the next
gradient.  Seeds that park at a local minimum are stopped on a second-order
certificate, built from the exact Hessian only where a first-order
alignment reading is low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlField
from .landscape import _eigh
from .models import ChainBatch, NonFiniteCost, PrefixGrowth, hessian_of

__all__ = ["SeedSpec", "OptimizationReport", "sample_seeds", "minimize", "polish"]

_ARMIJO_SLOPE = 1e-4
_CONTRACTION = 0.5
_GRAD_FLOOR = 1e-10
# Backtracking steps t, t/2, t/4, t/8 share one factor build.  Over the
# 100-seed scatter_lz3 pass, 775 gradient steps are accepted: 34.8% at the
# first trial, 45.9% at the second, 15.9% at the third and 2.7% at the
# fourth; 0.6% (5) need a second batch.
_LINE_SEARCH_BATCH = 4
# Both costs are |z|^2, so grad I = 2 Re(conj(z) grad z): at a local minimum
# with z != 0 the gradient vanishes while grad z does not, and a low alignment
# a = |grad I| / (2 ||grad z|| |z|) is the cheap sign of a parked descent.  It
# cannot tell one from a descent passing a saddle, so below _STALL_TRIGGER the
# descent builds the exact Hessian and stops only on a second-order
# certificate: H positive definite, with its smallest eigenvalue above
# _STALL_CURVATURE_FLOOR times its largest, and the Newton decrement
# 1/2 g^T H^-1 g below _STALL_DECREMENT * I (Boyd & Vandenberghe, Convex
# Optimization, 9.5.1).  Near the solution set the Gauss-Newton part
# dominates and the ratio reads about 1; the smallest ratio of a converging
# descent at a positive-definite Hessian was 0.207 (lz M = 3, T = 2.5), 0.74
# (lz M = 6), 0.88 (qho M = 6) and 0.89 (lz M = 12, T = 1.8): a margin of
# 20x.  A check that fails doubles the wait before the next (1, 2, 4, ...
# iterations), so a descent builds at most ceil(log2 max_iter) + 1 Hessians.
_STALL_TRIGGER = 3e-2
_STALL_DECREMENT = 1e-2
# A positive smallest eigenvalue at rounding relative to the largest is a
# saddle the eigensolver cannot sign, not a minimum.  At every certified stall
# of the README's populations lambda_min / lambda_max read at least 7.8e-3
# (lz M = 3), 6.1e-3 (lz M = 6) and 2.3e-4 (lz M = 12, T = 1.8): a margin of
# over 200x above the floor.
_STALL_CURVATURE_FLOOR = 1e-6
# Below this cost each iteration first tries the Levenberg-Marquardt step
# delta = -J^T (J J^T + I 1)^-1 r, J = [Re grad z; Im grad z], at the steps
# _GAUSS_NEWTON_STEPS (damping mu = |z|^2: Yamashita & Fukushima, Computing
# Suppl. 15 (2001) 239).  Over the 4000-seed optimize_lz_m3 scatter the
# converged set is that of plain descent from 1e-2 to 5e-2, while 1e-1 loses
# two seeds; 3e-2 takes 42,395 iterations against 57,835 at 1e-2, and keeps
# the converged set of every population in the README's table.  The
# scatter_lz3 pass accepts 304 of these steps: 82.6% at t = 1, 17.1% at
# t = 1/2 and 0.3% at t = 1/4.  A trial at t = 1/8 changed no report over
# 4650 seeds in five lz and qho populations, nor any of the 2668 polishes of
# their converged results to 1e-16.
_GAUSS_NEWTON_BELOW = 3e-2
_GAUSS_NEWTON_STEPS = (1.0, 0.5, 0.25)
# `polish`'s iteration cap; from a `minimize` result at 1e-6 the finish
# reaches 1e-16 in one to three iterations
_POLISH_MAX_ITER = 60

# Why a descent stopped: below tol, gradient under _GRAD_FLOOR, stalled,
# no acceptable step in the line search, out of iterations, non-finite cost.
STOP_CODES = ("TOL", "GRAD_FLOOR", "STALLED", "LINE_SEARCH", "MAX_ITER", "NONFINITE")


@dataclass(frozen=True)
class SeedSpec:
    """How many random starting fields to draw, from which amplitude range."""

    count: int
    bounds: tuple
    rng_seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        lo, hi = self.bounds
        # lo == hi is tolerated: it degenerates to a constant field
        if lo > hi:
            raise ValueError("bounds must satisfy low <= high")


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    field: ControlField
    final_infidelity: float
    iterations: int
    converged: bool
    stop: str | None = None

    def __post_init__(self):
        if self.converged and not np.isfinite(self.final_infidelity):
            raise ValueError("a converged report needs a finite infidelity")
        if self.stop is not None:
            if self.stop not in STOP_CODES:
                raise ValueError(f"unknown stop code {self.stop!r}")
            if (self.stop == "TOL") != self.converged:
                raise ValueError("stop code TOL goes with converged reports only")


def sample_seeds(spec: SeedSpec, problem) -> list:
    """I.i.d. uniform amplitude vectors; fully determined by spec.rng_seed."""
    rng = np.random.default_rng(spec.rng_seed)
    lo, hi = spec.bounds
    draws = rng.uniform(lo, hi, size=(spec.count, problem.n_pulses))
    return [ControlField(values=row, total_time=problem.duration) for row in draws]


def _gauss_newton_step(z, dz, cost) -> np.ndarray:
    """delta = -J^T (J J^T + cost 1)^-1 r for J = [Re dz; Im dz] and r = (Re z, Im z),
    with the 2x2 system solved in closed form."""
    re, im = dz.real, dz.imag
    a = float(re @ re) + cost
    b = float(re @ im)
    c = float(im @ im) + cost
    det = a * c - b * b
    y_re = (c * z.real - b * z.imag) / det
    y_im = (a * z.imag - b * z.real) / det
    return -(y_re * re + y_im * im)


def _certified_stall(problem, values, grad, cost) -> bool:
    """Whether the exact Hessian at `values` is positive definite, its smallest
    eigenvalue above `_STALL_CURVATURE_FLOOR` times its largest, with a Newton
    decrement 1/2 g^T H^-1 g below `_STALL_DECREMENT` * cost.  A Hessian the
    chain kernel refuses, or an eigensolver failure, certifies nothing."""
    try:
        vals, vecs = _eigh(hessian_of(problem, values))
    except (PrefixGrowth, NonFiniteCost, RuntimeError):
        return False
    if not vals[0] > _STALL_CURVATURE_FLOOR * vals[-1]:
        return False
    proj = vecs.T @ grad
    return 0.5 * float(proj @ (proj / vals)) < _STALL_DECREMENT * cost


def _trial_batches(grad, slope, dz, z, cost, step):
    """(steps, direction, rate, is_gradient) for each batch of trial points
    an iteration tries, in order: the Gauss-Newton steps below
    `_GAUSS_NEWTON_BELOW`, then the warm-started backtracking of the gradient
    step, t = min(2 step, 1e6) halved down to 1e-18 in batches of
    `_LINE_SEARCH_BATCH`.  `rate` is -grad I . direction, which
    for the gradient step is `slope` = |grad I|^2."""
    if cost < _GAUSS_NEWTON_BELOW:
        delta = _gauss_newton_step(z, dz, cost)
        yield _GAUSS_NEWTON_STEPS, delta, -float(grad @ delta), False
    t = min(step * 2.0, 1e6)
    while t > 1e-18:
        steps = []
        while t > 1e-18 and len(steps) < _LINE_SEARCH_BATCH:
            steps.append(t)
            t *= _CONTRACTION
        yield steps, -grad, slope, True


def minimize(problem, seed: ControlField, tol: float = 1e-6,
             max_iter: int = 5000) -> OptimizationReport:
    """Armijo descent on the main objective, finished by Gauss-Newton steps.

    Stops, with the report's `stop` code, when the infidelity drops below
    `tol` (TOL), the gradient norm falls under 1e-10 (GRAD_FLOOR), no trial
    step is acceptable (LINE_SEARCH), or `max_iter` is reached (MAX_ITER).
    It stops as STALLED at a certified local minimum: where the alignment
    |grad I| / (2 ||grad z|| |z|) reads below 3e-2 (the gradient of I = |z|^2
    vanishes at a local minimum with z != 0 while grad z does not), the exact
    Hessian is positive definite with lambda_min > 1e-6 lambda_max, and the
    Newton decrement 1/2 g^T H^-1 g is below 1e-2 I.  A failed check doubles
    the wait before the next one.  Below I = 3e-2 each iteration first
    tries the Levenberg-Marquardt step -J^T (J J^T + I 1)^-1 (Re z, Im z),
    J = [Re grad z; Im grad z], at t = 1, 1/2, 1/4 under the same Armijo
    rule, and falls back to the gradient line search, whose warm-started step
    it leaves alone, if none is acceptable.  A non-finite cost ends this
    report as unconverged (NONFINITE) instead of raising, so a batch of seeds
    survives individual failures.  A negative or non-finite `tol`, or a
    negative `max_iter`, raises.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    values = seed.values.copy()
    chain, row = ChainBatch(problem, values[None]), 0
    cost = chain.costs[0]
    if not np.isfinite(cost):
        return OptimizationReport(field=seed, final_infidelity=float(cost),
                                  iterations=0, converged=False, stop="NONFINITE")
    step = 1.0
    next_check, wait = 0, 1
    iterations = 0
    stop = "MAX_ITER"
    for iterations in range(1, max_iter + 1):
        if cost < tol:
            iterations -= 1
            break
        grad, dz = chain.gradient_and_dz(row)
        slope = float(grad @ grad)
        if math.sqrt(slope) < _GRAD_FLOOR:
            iterations -= 1
            stop = "GRAD_FLOOR"
            break
        if (iterations >= next_check and math.sqrt(slope)
                < _STALL_TRIGGER * 2.0 * math.sqrt(float(np.vdot(dz, dz).real) * cost)):
            if _certified_stall(problem, values, grad, cost):
                iterations -= 1
                stop = "STALLED"
                break
            next_check, wait = iterations + wait, 2 * wait
        # the trials of a batch are tested in step order, so a row after the
        # accepted one is never looked at
        accepted = False
        for steps, direction, rate, is_gradient in _trial_batches(
                grad, slope, dz, chain.z[row], cost, step):
            trials = ChainBatch(problem, values + np.array(steps)[:, None] * direction)
            for k, (trial_t, trial_cost) in enumerate(zip(steps, trials.costs)):
                if not math.isfinite(trial_cost):
                    return OptimizationReport(
                        field=ControlField(values, seed.total_time),
                        final_infidelity=float(cost), iterations=iterations,
                        converged=False, stop="NONFINITE")
                if trial_cost <= cost - _ARMIJO_SLOPE * trial_t * rate:
                    values, cost = trials.points[k], trial_cost
                    if is_gradient:
                        step = trial_t
                    chain, row = trials, k
                    accepted = True
                    break
            if accepted:
                break
        if not accepted:
            stop = "LINE_SEARCH"
            break
    converged = bool(cost < tol)
    return OptimizationReport(field=ControlField(values, seed.total_time),
                              final_infidelity=float(cost), iterations=iterations,
                              converged=converged, stop="TOL" if converged else stop)


def polish(problem, field: ControlField, target: float = 1e-16) -> OptimizationReport:
    """`minimize` of a near-solution down to `target`.

    Started below I = 3e-2, every iteration tries `minimize`'s damped
    Gauss-Newton step first, which converges quadratically to the solution
    set, so a `minimize` result at 1e-6 reaches 1e-16 in a few iterations.
    """
    return minimize(problem, field, tol=target, max_iter=_POLISH_MAX_ITER)
