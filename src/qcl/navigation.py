"""Fidelity-preserving flows on the solution set.

At a solution the Hessian of the main objective has rank two.  At every RK4
stage point `navigate` takes that Hessian's two non-null eigenvectors from
one Rayleigh-Ritz step on a block of four (`landscape.rank2_ritz`; a full
eigendecomposition below M = 32), removes their components from the chosen
direction, and integrates the resulting field dw/dzeta = P(w) a(w) with
classical fourth-order Runge-Kutta, one `_rk4_step` per step.  Because the
projector removes every fidelity-decreasing component, the trajectory stays
on the level set up to integration error.  The third eigenvalue (or Ritz
value) guards the rank-two premise: a run whose |lambda_3 / lambda_2|
exceeds `RANK_COLLAPSE_RATIO` stops.  A stage point whose bytes equal one of
the two latest distinct stage points reuses that point's spectrum instead of
recomputing it: once a compression stands still, its stage points alternate
between two points.  A step that returns its start bit for bit shares that
sample's field and infidelity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .control import ControlField
from .landscape import FdConfig, HessianSpectrum, _rank2_ritz, fd_hessian
from .models import NonFiniteCost, PrefixGrowth, _check_field, chain_stencil_cost, hessian_of

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
    """Always steer along the same constant vector (before projection).

    The vector is a read-only copy of the caller's, so a later change to the
    caller's array cannot get round the finiteness check.
    """

    def __init__(self, a):
        a = np.array(a, dtype=float)
        if not np.isfinite(a).all():
            raise ValueError("fixed direction must be finite")
        if not np.any(a != 0.0):
            raise ValueError("fixed direction must be non-zero")
        a.flags.writeable = False
        self.a = a

    def direction(self, values, spectrum):
        return self.a

    def secondary_cost(self, values):
        return None


class NullFollow:
    """Follow the instantaneous null eigenvector with sign continuity."""

    def __init__(self):
        self.previous = None

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


def _rk4_step(f, x, h: float) -> np.ndarray:
    """One classical RK4 step of dx/dz = f(x) from x; x itself is not changed."""
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
        `models.chain_stencil_cost`.  Either way the Hessian and its two
        non-null directions are computed at every RK4 stage point whose
        bytes differ from both of the two latest distinct stage points; a
        point equal to one of them reuses its spectrum, which has passed the
        rank guard, so the outputs are those of a recomputation.  The
        finiteness check, the provider's direction and the projection run
        at every stage.  Each quantity is validated once, where it is
        made: `fd_hessian` and `hessian_of` return a finite, exactly
        symmetric matrix or raise, so the stage passes it to the Ritz kernel
        (`landscape._rank2_ritz`) without `rank2_ritz`'s finiteness and
        symmetry checks.
    null_rank : the number of non-null directions; only 2, the structure
        at solutions of both models, is accepted.
    abort_ceiling : if the main infidelity exceeds this the run stops and the
        trajectory is returned with `failed` set (never silently truncated).

    A step whose state has the bytes of the sample before gives a sample that
    shares that sample's `ControlField` and infidelity; `infidelity_of` runs
    only on a state that differs.  The provider's secondary cost and the
    finiteness and ceiling checks run at every sample.

    A run that leaves the finite range (state, infidelity, a stencil cost,
    the exact Hessian or its spectrum) fails with code NONFINITE, one above
    the ceiling with CEILING, and one whose Hessian the chain kernel refuses
    (`models.PrefixGrowth`) with GROWTH, and one whose Hessian has
    |lambda_3 / lambda_2| above `RANK_COLLAPSE_RATIO` with RANK_COLLAPSE;
    any other error propagates.  A start that fails `entry_infidelity`, an h that
    is not positive and finite, or a NaN or negative abort_ceiling raises.
    """
    if null_rank != 2:
        raise ValueError(f"null_rank must be 2 (the rank of the Hessian at a "
                         f"solution), got {null_rank!r}")
    if not (h > 0 and np.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    if not abort_ceiling >= 0:
        raise ValueError(f"abort_ceiling must be >= 0, got {abort_ceiling!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    fd = isinstance(hessian_mode, FdConfig)
    if not (fd or hessian_mode == "exact"):
        raise ValueError(f"unknown hessian_mode {hessian_mode!r}")

    start_inf = entry_infidelity(problem, start)

    stencil = chain_stencil_cost(problem) if fd else None
    # the bytes and spectra of the two latest distinct stage points, oldest
    # first; each spectrum has passed the rank guard
    memo = {}

    def flow(values):
        if not np.isfinite(values).all():
            raise _NavigationFailure("NONFINITE", "non-finite state")
        point = values.tobytes()
        spec = memo.pop(point, None)
        if spec is None:
            if fd:
                hess = fd_hessian(stencil, values, hessian_mode)
            else:
                hess = hessian_of(problem, values)
            # both return a finite, exactly symmetric matrix or raise, so the
            # Ritz kernel takes it without `rank2_ritz`'s checks; a replaced
            # source's non-finite matrix fails LAPACK at M >= 32 and is
            # checked for only then
            try:
                spec = _rank2_ritz(hess)
            except RuntimeError:
                if not np.isfinite(hess).all():
                    raise _NavigationFailure("NONFINITE", "non-finite Hessian") from None
                raise
            lam = np.abs(spec.eigenvalues)
            if lam.size > 2 and not lam[2] <= RANK_COLLAPSE_RATIO * lam[1]:
                if not np.isfinite(lam).all():
                    raise _NavigationFailure("NONFINITE", "non-finite Hessian spectrum")
                raise _NavigationFailure(
                    "RANK_COLLAPSE", f"|lambda3/lambda2| = {lam[2] / lam[1]:.2e} exceeds "
                    f"{RANK_COLLAPSE_RATIO:.0e}: the Hessian is not rank 2")
            if len(memo) == 2:
                del memo[next(iter(memo))]
        memo[point] = spec
        return project(provider.direction(values, spec), spec)

    samples = [TrajectorySample(
        zeta=0.0,
        field=start,
        infidelity=start_inf,
        secondary=provider.secondary_cost(start.values),
    )]

    code = reason = None
    x = start.values
    try:
        for k in range(steps):
            x = _rk4_step(flow, x, h)
            if not np.isfinite(x).all():
                raise _NavigationFailure("NONFINITE", "non-finite state")
            last = samples[-1]
            if x.tobytes() == last.field.values.tobytes():
                # a step that returns its start shares that sample's field
                field, inf = last.field, last.infidelity
            else:
                inf = problem.infidelity_of(x)
                field = ControlField(x, start.total_time)
            samples.append(TrajectorySample(
                zeta=(k + 1) * h,
                field=field,
                infidelity=inf,
                secondary=provider.secondary_cost(x),
            ))
            if not np.isfinite(inf):
                raise _NavigationFailure("NONFINITE", "non-finite infidelity")
            if inf > abort_ceiling:
                raise _NavigationFailure(
                    "CEILING", f"infidelity {inf:.3e} exceeded ceiling {abort_ceiling:.1e}")
    except _NavigationFailure as exc:
        code, reason = exc.args
    except NonFiniteCost as exc:
        code, reason = "NONFINITE", str(exc)
    except PrefixGrowth as exc:
        code, reason = "GROWTH", str(exc)
    return Trajectory(samples=tuple(samples), failure_code=code, failure_reason=reason)


def calibrate_epsilon(problem, solution, direction, eps_grid, steps: int, h: float):
    """Final infidelity of an FD-driven navigation run, per stencil step.

    Restarts the same solution, whose infidelity must lie below
    `ENTRY_THRESHOLD`, for every epsilon on the grid, follows the projection
    of one fixed non-zero direction for `steps` RK4 iterations of step `h`
    with no abort ceiling, and records the final main-objective infidelity.
    A failed run (with no ceiling: NONFINITE, GROWTH or RANK_COLLAPSE, as a
    noise-dominated stencil gives) is recorded as infinite infidelity rather
    than aborting the sweep.  Returns a list of (epsilon, final_infidelity)
    pairs.
    """
    provider = FixedVector(direction)
    entry_infidelity(problem, solution)
    rows = []
    for eps in eps_grid:
        traj = navigate(problem, solution, provider, h=h, steps=steps,
                        hessian_mode=FdConfig(float(eps)), abort_ceiling=np.inf)
        final = traj.samples[-1].infidelity
        if traj.failed:
            final = np.inf
        rows.append((float(eps), float(final)))
    return rows


def write_jsonl(trajectory: Trajectory, stream, header: dict):
    """A {"header": ...} record, then one JSON record per sample:
    {"zeta", "values", "infidelity", "secondary"}."""
    stream.write(json.dumps({"header": header}, sort_keys=True) + "\n")
    for s in trajectory.samples:
        stream.write(json.dumps({
            "zeta": s.zeta,
            "values": s.field.values.tolist(),
            "infidelity": s.infidelity,
            "secondary": s.secondary,
        }) + "\n")
