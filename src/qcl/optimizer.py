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
gradient.  Seeds that park at a local minimum are stopped by a first-order
alignment test once 20 steps have been accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlField
from .models import ChainBatch

__all__ = ["SeedSpec", "OptimizationReport", "sample_seeds", "minimize", "polish"]

_ARMIJO_SLOPE = 1e-4
_CONTRACTION = 0.5
_GRAD_FLOOR = 1e-10
# Backtracking steps t, t/2, t/4, t/8 share one factor build.  Over the
# 100-seed scatter_lz3 pass, 1,476 gradient steps are accepted: 25.3% at the
# first trial, 57.9% at the second, 14.8% at the third and 1.6% at the
# fourth; 0.4% (6) need a second batch.
_LINE_SEARCH_BATCH = 4
# Both costs are |z|^2, so grad I = 2 Re(conj(z) grad z): at a local minimum
# with z != 0 the gradient vanishes while grad z does not, and the alignment
# a = |grad I| / (2 ||grad z|| |z|) certifies a parked descent.  Read only
# once _STALL_WINDOW steps have been accepted: converging seeds that start
# near the cost maximum read a down to 4.4e-4 at the start, while past the
# window the smallest a of a converging descent was 2.7e-2 over the
# 4000-seed optimize_lz_m3 scatter, where this rule stops all 1896 stalls.
_STALL_WINDOW = 20
_STALL_ALIGNMENT = 3e-3
# Below this cost each iteration first tries the Levenberg-Marquardt step
# delta = -J^T (J J^T + I 1)^-1 r, J = [Re grad z; Im grad z], at the steps
# _GAUSS_NEWTON_STEPS (damping mu = |z|^2: Yamashita & Fukushima, Computing
# Suppl. 15 (2001) 239).  Over the 4000-seed optimize_lz_m3 scatter the
# converged set is that of plain descent at 1e-2 and 3e-2; 1e-1 loses two
# seeds, 3e-1 thirty and Gauss-Newton throughout 129.  The same
# scatter_lz3 pass accepts 344 of these steps: 61.0% at t = 1, 38.4% at
# t = 1/2, 0.6% at t = 1/4 and none at t = 1/8.
_GAUSS_NEWTON_BELOW = 1e-2
_GAUSS_NEWTON_STEPS = (1.0, 0.5, 0.25, 0.125)

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
    Once 20 steps have been accepted, it also stops as STALLED when the
    alignment |grad I| / (2 ||grad z|| |z|) is below 3e-3: the gradient of
    I = |z|^2 vanishes at a local minimum with z != 0 while grad z does not.
    Below I = 1e-2 each iteration first tries the Levenberg-Marquardt step
    -J^T (J J^T + I 1)^-1 (Re z, Im z), J = [Re grad z; Im grad z], at
    t = 1, 1/2, 1/4, 1/8 under the same Armijo rule, and falls back to the
    gradient line search, whose warm-started step it leaves alone, if none
    is acceptable.  A non-finite cost ends this report as unconverged
    (NONFINITE) instead of raising, so a batch of seeds survives individual
    failures.  A negative or non-finite `tol`, or a negative `max_iter`, raises.
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
    accepted_steps = 0
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
        if (accepted_steps >= _STALL_WINDOW and math.sqrt(slope)
                < _STALL_ALIGNMENT * 2.0 * math.sqrt(float(np.vdot(dz, dz).real) * cost)):
            iterations -= 1
            stop = "STALLED"
            break
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
                    accepted_steps += 1
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


def polish(problem, field: ControlField, target: float = 1e-16,
           max_iter: int = 60) -> OptimizationReport:
    """`minimize` of a near-solution down to `target`.

    Started below I = 1e-2, every iteration tries `minimize`'s damped
    Gauss-Newton step first, which converges quadratically to the solution
    set, so a `minimize` result at 1e-6 reaches 1e-16 in a few iterations.
    """
    return minimize(problem, field, tol=target, max_iter=max_iter)
