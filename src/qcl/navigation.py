"""Fidelity-preserving flows on the solution set.

At a solution the Hessian of the main objective has rank two.  At every RK4
stage point `navigate` takes that Hessian's two non-null eigenvectors from
one Rayleigh-Ritz step on a block of four (`landscape.rank2_ritz`; a full
eigendecomposition below M = 32), removes their
components from the chosen direction, and integrates the resulting field
dw/dzeta = P(w) a(w) with classical fourth-order Runge-Kutta.  Because the
projector removes every fidelity-decreasing component, the trajectory stays
on the level set up to integration error.  The third eigenvalue (or Ritz
value) guards the rank-two premise: a run whose |lambda_3 / lambda_2|
exceeds `RANK_COLLAPSE_RATIO` stops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .control import ControlField
from .landscape import FdConfig, HessianSpectrum, NonFiniteCost, fd_hessian, rank2_ritz
from .models import PrefixGrowth, _check_field, chain_stencil_cost, hessian_of

__all__ = [
    "ENTRY_THRESHOLD",
    "FAILURE_CODES",
    "RANK_COLLAPSE_RATIO",
    "FixedVector",
    "NullFollow",
    "SecondaryGradient",
    "Trajectory",
    "TrajectorySample",
    "project",
    "null_direction",
    "navigate",
    "rk4_integrate",
    "write_jsonl",
    "calibrate_epsilon",
    "entry_infidelity",
]


def project(a, spectrum: HessianSpectrum) -> np.ndarray:
    """Remove the components of `a` along the non-null eigenvectors.

    P a = a - v_0 (a . v_0) - v_1 (a . v_1): the orthogonal projection onto
    the complement of the non-null pair, rows 0 and 1 of the spectrum.
    """
    a = np.asarray(a, dtype=float)
    m = spectrum.vectors.shape[1]
    if a.shape != (m,):
        raise ValueError(f"direction has shape {a.shape}, expected ({m},)")
    v_nonnull = spectrum.vectors[:2]
    return a - v_nonnull.T @ (v_nonnull @ a)


def null_direction(spectrum: HessianSpectrum, previous=None) -> np.ndarray:
    """Unit null eigenvector, sign-aligned with the previous direction.

    Requires a one-dimensional null space (a solution curve, M = 3), whose
    vector is row 2; the eigensolver emits arbitrary signs, so continuity is
    restored by flipping whenever the dot product with `previous` is negative.
    """
    dim = spectrum.vectors.shape[1] - 2
    if dim != 1:
        raise ValueError(
            f"null space has dimension {dim}; following a single null "
            "eigenvector is only defined on a one-dimensional solution curve"
        )
    v = spectrum.vectors[2].copy()
    if previous is not None and float(np.dot(v, previous)) < 0.0:
        v = -v
    return v


class FixedVector:
    """Always steer along the same constant vector (before projection)."""

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if not np.any(a != 0.0):
            raise ValueError("fixed direction must be non-zero")
        self.a = a

    def direction(self, values, spectrum):
        return self.a

    def secondary_cost(self, values):
        return None


class NullFollow:
    """Follow the instantaneous null eigenvector with sign continuity."""

    def __init__(self, previous=None):
        self.previous = None if previous is None else np.asarray(previous, dtype=float)

    def direction(self, values, spectrum):
        v = null_direction(spectrum, self.previous)
        self.previous = v
        return v

    def secondary_cost(self, values):
        return None


class SecondaryGradient:
    """Descend an auxiliary cost: the steering vector is -grad C."""

    def __init__(self, objective):
        self.objective = objective

    def direction(self, values, spectrum):
        return -self.objective.gradient_of(values)

    def secondary_cost(self, values):
        return float(self.objective.cost_of(values))


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    zeta: float
    field: ControlField
    infidelity: float
    secondary: float | None


# why a navigation run stopped early: a state, infidelity, stencil cost or
# exact Hessian left the finite range, the infidelity rose above the abort
# ceiling, the chain's prefix products grew past what its Hessian kernel can
# be trusted with, or the Hessian stopped being rank two
FAILURE_CODES = ("NONFINITE", "CEILING", "GROWTH", "RANK_COLLAPSE")

# a stage whose Hessian has |lambda_3 / lambda_2| above this ends the run
# with RANK_COLLAPSE: the null projector is no longer defined by two
# directions
RANK_COLLAPSE_RATIO = 0.1

# a run may only start from a field whose main infidelity is below this
ENTRY_THRESHOLD = 1e-6


def entry_infidelity(problem, start: ControlField) -> float:
    """The infidelity of `start`, which must lie below `ENTRY_THRESHOLD`; a
    start whose duration or length is not the problem's raises too."""
    _check_field(problem, start)
    infidelity = problem.infidelity_of(start.values)
    if not infidelity < ENTRY_THRESHOLD:
        raise ValueError(f"starting infidelity {infidelity:.3e} is not below the entry "
                         f"threshold {ENTRY_THRESHOLD:.1e}")
    return infidelity


@dataclass(frozen=True, eq=False)
class Trajectory:
    samples: tuple
    failure_code: str | None = None
    failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure_code is not None

    def values_matrix(self) -> np.ndarray:
        return np.stack([s.field.values for s in self.samples])

    def infidelities(self) -> np.ndarray:
        return np.array([s.infidelity for s in self.samples])

    def secondary_costs(self) -> np.ndarray:
        return np.array(
            [np.nan if s.secondary is None else s.secondary for s in self.samples]
        )


def rk4_integrate(f, x0, h: float, steps: int, callback=None):
    """Classical RK4 for dx/dz = f(x); returns the list of states x_0..x_N.

    `callback(k, x)` runs after each accepted step and may raise to stop.
    """
    x = np.asarray(x0, dtype=float).copy()
    states = [x.copy()]
    for k in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x.copy())
        if callback is not None:
            callback(k, x)
    return states


class _NavigationFailure(Exception):
    """Raised with (failure code, reason) to end a run as a failed trajectory."""


def navigate(problem, start: ControlField, provider, h: float, steps: int,
             hessian_mode="exact", *, null_rank: int = 2,
             abort_ceiling: float = 1e-3) -> Trajectory:
    """Integrate the projected flow from a solution of the main objective.

    Parameters
    ----------
    steps : number of RK4 steps; 0 returns the start sample alone.
    hessian_mode : "exact" for analytic Hessians, or an FdConfig whose epsilon
        sets the step of the finite-difference Hessian on the problem's
        `models.chain_stencil_cost`; the Hessian and its two non-null
        directions are recomputed at every RK4 stage point either way.
    null_rank : the number of non-null directions; only 2, the structure
        at solutions of both models, is accepted.
    abort_ceiling : if the main infidelity exceeds this the run stops and the
        trajectory is returned with `failed` set (never silently truncated).

    A run that leaves the finite range (state, infidelity, a stencil cost or
    the exact Hessian) fails with code NONFINITE, one above the ceiling with
    CEILING, and one whose Hessian the chain kernel refuses
    (`models.PrefixGrowth`) with GROWTH, and one whose Hessian has
    |lambda_3 / lambda_2| above `RANK_COLLAPSE_RATIO` with RANK_COLLAPSE;
    any other error propagates.  A start that fails `entry_infidelity` raises.
    """
    if null_rank != 2:
        raise ValueError(f"null_rank must be 2 (the rank of the Hessian at a "
                         f"solution), got {null_rank!r}")
    if h <= 0:
        raise ValueError("step h must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    fd = isinstance(hessian_mode, FdConfig)
    if not (fd or hessian_mode == "exact"):
        raise ValueError(f"unknown hessian_mode {hessian_mode!r}")

    start_inf = entry_infidelity(problem, start)

    stencil = chain_stencil_cost(problem) if fd else None

    def flow(values):
        if not np.all(np.isfinite(values)):
            raise _NavigationFailure("NONFINITE", "non-finite state")
        if fd:
            hess = fd_hessian(stencil, values, hessian_mode)
        else:
            hess = hessian_of(problem, values)
        spec = rank2_ritz(hess)
        lam = np.abs(spec.eigenvalues)
        if lam.size > 2 and not lam[2] <= RANK_COLLAPSE_RATIO * lam[1]:
            raise _NavigationFailure(
                "RANK_COLLAPSE", f"|lambda3/lambda2| = {lam[2] / lam[1]:.2e} exceeds "
                f"{RANK_COLLAPSE_RATIO:.0e}: the Hessian is not rank 2")
        return project(provider.direction(values, spec), spec)

    samples = [TrajectorySample(
        zeta=0.0,
        field=start,
        infidelity=start_inf,
        secondary=provider.secondary_cost(start.values),
    )]

    def record(k, values):
        if not np.all(np.isfinite(values)):
            raise _NavigationFailure("NONFINITE", "non-finite state")
        inf = problem.infidelity_of(values)
        samples.append(TrajectorySample(
            zeta=(k + 1) * h,
            field=ControlField(values, start.total_time),
            infidelity=inf,
            secondary=provider.secondary_cost(values),
        ))
        if not np.isfinite(inf):
            raise _NavigationFailure("NONFINITE", "non-finite infidelity")
        if inf > abort_ceiling:
            raise _NavigationFailure(
                "CEILING", f"infidelity {inf:.3e} exceeded ceiling {abort_ceiling:.1e}")

    code = reason = None
    try:
        rk4_integrate(flow, start.values, h, steps, callback=record)
    except _NavigationFailure as exc:
        code, reason = exc.args
    except NonFiniteCost as exc:
        code, reason = "NONFINITE", str(exc)
    except PrefixGrowth as exc:
        code, reason = "GROWTH", str(exc)
    return Trajectory(samples=tuple(samples), failure_code=code, failure_reason=reason)


def calibrate_epsilon(problem, solution, direction, eps_grid, steps: int = 1000, h: float = 0.1):
    """Final infidelity of an FD-driven navigation run, per stencil step.

    Restarts the same solution, whose infidelity must lie below
    `ENTRY_THRESHOLD`, for every epsilon on the grid, follows the projection
    of one fixed non-zero direction for `steps` RK4 iterations of step `h`
    with no abort ceiling, and records the final main-objective infidelity.
    A run that leaves the finite range (NONFINITE), wanders where the chain's
    Hessian cannot be trusted (GROWTH) or meets a Hessian that is not rank 2
    (RANK_COLLAPSE, as a noise-dominated stencil gives) is recorded as
    infinite infidelity rather than aborting the sweep.  Returns a list of
    (epsilon, final_infidelity) pairs.
    """
    provider = FixedVector(direction)
    entry_infidelity(problem, solution)
    rows = []
    for eps in eps_grid:
        traj = navigate(problem, solution, provider, h=h, steps=steps,
                        hessian_mode=FdConfig(float(eps)), abort_ceiling=np.inf)
        final = traj.samples[-1].infidelity
        if traj.failure_code in ("NONFINITE", "GROWTH", "RANK_COLLAPSE"):
            final = np.inf
        rows.append((float(eps), float(final)))
    return rows


def write_jsonl(trajectory: Trajectory, stream, header: dict | None = None):
    """One JSON record per sample: {"zeta", "values", "infidelity", "secondary"}."""
    if header is not None:
        stream.write(json.dumps({"header": header}, sort_keys=True) + "\n")
    for s in trajectory.samples:
        stream.write(json.dumps({
            "zeta": s.zeta,
            "values": s.field.values.tolist(),
            "infidelity": s.infidelity,
            "secondary": s.secondary,
        }) + "\n")
