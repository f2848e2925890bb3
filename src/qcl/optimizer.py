"""Seed generation and local descent to the main-objective solution set.

Plain gradient descent with Armijo backtracking is enough at desk scale:
the landscapes are benign and the exact gradient is cheap, so a first-order
routine with deterministic line search keeps the solution populations
reproducible bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .control import ControlField
from .landscape import rank2_ritz
from .models import gradient_of, hessian_of

__all__ = ["SeedSpec", "OptimizationReport", "sample_seeds", "minimize", "polish"]

_ARMIJO_SLOPE = 1e-4
_CONTRACTION = 0.5
_GRAD_FLOOR = 1e-10
# A descent still at or above tol whose cost fell by no more than this
# fraction over its last _STALL_WINDOW accepted steps has parked at a local
# minimum: converging descents keep decreasing by percents over that window
# (at least 2.5e-2 over the 4000-seed optimize_lz_m3 scatter).
_STALL_WINDOW = 20
_STALL_DECREASE = 1e-6

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


def minimize(problem, seed: ControlField, tol: float = 1e-6,
             max_iter: int = 5000) -> OptimizationReport:
    """Gradient descent with backtracking line search on the main objective.

    Stops, with the report's `stop` code, when the infidelity drops below
    `tol` (TOL), the gradient norm falls under 1e-10 (GRAD_FLOOR), the cost
    fell by at most a 1e-6 fraction over the last 20 accepted steps
    (STALLED), the line search finds no acceptable step (LINE_SEARCH), or
    `max_iter` is reached (MAX_ITER).  A non-finite cost ends this report as
    unconverged (NONFINITE) instead of raising, so a batch of seeds survives
    individual failures.
    """
    values = seed.values.copy()
    cost = problem.infidelity_of(values)
    if not np.isfinite(cost):
        return OptimizationReport(field=seed, final_infidelity=float(cost),
                                  iterations=0, converged=False, stop="NONFINITE")
    recent = deque([cost], maxlen=_STALL_WINDOW + 1)
    step = 1.0
    iterations = 0
    stop = "MAX_ITER"
    for iterations in range(1, max_iter + 1):
        if cost < tol:
            iterations -= 1
            break
        if len(recent) > _STALL_WINDOW and recent[0] - cost <= _STALL_DECREASE * recent[0]:
            iterations -= 1
            stop = "STALLED"
            break
        grad = gradient_of(problem, values)
        slope = float(grad @ grad)
        if np.sqrt(slope) < _GRAD_FLOOR:
            iterations -= 1
            stop = "GRAD_FLOOR"
            break
        # warm-started backtracking: try twice the last accepted step first
        t = min(step * 2.0, 1e6)
        accepted = False
        while t > 1e-18:
            trial = values - t * grad
            trial_cost = problem.infidelity_of(trial)
            if not np.isfinite(trial_cost):
                return OptimizationReport(
                    field=ControlField(values, seed.total_time),
                    final_infidelity=float(cost), iterations=iterations,
                    converged=False, stop="NONFINITE")
            if trial_cost <= cost - _ARMIJO_SLOPE * t * slope:
                values, cost, step = trial, trial_cost, t
                recent.append(cost)
                accepted = True
                break
            t *= _CONTRACTION
        if not accepted:
            stop = "LINE_SEARCH"
            break
    converged = bool(cost < tol)
    return OptimizationReport(field=ControlField(values, seed.total_time),
                              final_infidelity=float(cost), iterations=iterations,
                              converged=converged, stop="TOL" if converged else stop)


def polish(problem, field: ControlField, target: float = 1e-16,
           max_iter: int = 60) -> OptimizationReport:
    """Newton refinement of a near-solution, restricted to the non-null subspace.

    Gradient descent alone crawls once the infidelity is tiny (the valley is
    ill conditioned), while the Hessian-rank structure of deep solutions is
    only visible below ~1e-16.  Starting from a `minimize` result, a Newton
    step along the two non-null eigendirections (`landscape.rank2_ritz`)
    converges quadratically.
    """
    values = field.values.copy()
    cost = problem.infidelity_of(values)
    iterations = 0
    stop = "MAX_ITER"
    for iterations in range(1, max_iter + 1):
        if cost < target:
            iterations -= 1
            break
        grad = gradient_of(problem, values)
        spec = rank2_ritz(hessian_of(problem, values))
        basis = spec.vectors[:2]
        lam = spec.eigenvalues[:2]
        if np.any(lam == 0.0):
            # the Newton step along a zero eigenvalue would be non-finite
            stop = "NONFINITE"
            break
        delta = -basis.T @ ((basis @ grad) / lam)
        t = 1.0
        accepted = False
        while t > 1e-8:
            trial = values + t * delta
            trial_cost = problem.infidelity_of(trial)
            if np.isfinite(trial_cost) and trial_cost < cost:
                values, cost = trial, trial_cost
                accepted = True
                break
            t *= 0.5
        if not accepted:
            stop = "LINE_SEARCH"
            break
    converged = bool(cost < target)
    return OptimizationReport(field=ControlField(values, field.total_time),
                              final_infidelity=float(cost), iterations=iterations,
                              converged=converged, stop="TOL" if converged else stop)
