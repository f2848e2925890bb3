"""Secondary costs evaluated along the solution set.

The spectral-compression cost charges all DFT power outside a kept index set:
C = sum_{k not kept} |X_k|^2.  Because the DFT is linear, C is an explicit
quadratic form w^T Q w with Q_nm = sum_{k not kept} cos(2 pi k (n - m) / M),
so its gradient 2 Q w is analytic and only the main objective ever needs
finite differences.
"""

from __future__ import annotations

import numpy as np

from .control import ControlField, FrequencySpec
from .navigation import SecondaryGradient, Trajectory, navigate

__all__ = ["FourierObjective", "fourier_cost", "fourier_gradient", "compress"]


class FourierObjective:
    """Quadratic penalty on DFT power outside the kept frequency set."""

    def __init__(self, spec: FrequencySpec):
        self.spec = spec
        m = spec.m
        excluded = np.asarray(spec.excluded, dtype=float)
        n = np.arange(m)
        diff = n[:, None] - n[None, :]
        if excluded.size:
            self.penalty_matrix = np.cos(
                2.0 * np.pi * excluded[:, None, None] * diff[None, :, :] / m
            ).sum(axis=0)
        else:
            self.penalty_matrix = np.zeros((m, m))

    @property
    def m(self) -> int:
        return self.spec.m

    def cost_of(self, values) -> float:
        values = np.asarray(values, dtype=float)
        return float(values @ self.penalty_matrix @ values)

    def gradient_of(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return 2.0 * (self.penalty_matrix @ values)


def _check_dim(field: ControlField, objective: FourierObjective):
    if field.n_pulses != objective.m:
        raise ValueError(
            f"field has {field.n_pulses} pulses, objective expects {objective.m}"
        )


def fourier_cost(field: ControlField, objective: FourierObjective) -> float:
    """C = sum over excluded k of |X_k|^2, via the quadratic form."""
    _check_dim(field, objective)
    return objective.cost_of(field.values)


def fourier_gradient(field: ControlField, objective: FourierObjective) -> np.ndarray:
    """grad C = 2 Q w, analytic."""
    _check_dim(field, objective)
    return objective.gradient_of(field.values)


def compress(problem, start: ControlField, objective: FourierObjective,
             h: float, steps: int, hessian_mode="exact", **nav_kwargs) -> Trajectory:
    """Descend the spectral penalty inside the solution set of `problem`.

    Delegates to `navigate` with the -grad C steering vector; the returned
    trajectory records the main infidelity and the penalty at every step.
    """
    _check_dim(start, objective)
    provider = SecondaryGradient(objective)
    return navigate(problem, start, provider, h=h, steps=steps,
                    hessian_mode=hessian_mode, **nav_kwargs)
