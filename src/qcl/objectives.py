"""Secondary costs evaluated along the solution set.

The spectral-compression cost charges all DFT power outside a kept index set:
C = sum_{k not kept} |X_k|^2.  Because the DFT is linear, C = ||G w||^2 with a
real factor G that stacks the rows cos(2 pi k n / M) and sin(2 pi k n / M) of
every excluded k, so C cannot be negative and its gradient 2 Q w, with
Q = G^T G, is analytic; only the main objective ever needs finite
differences.
"""

from __future__ import annotations

import numpy as np

from .control import ControlField, FrequencySpec
from .navigation import SecondaryGradient, Trajectory, navigate

__all__ = ["FourierObjective", "compress"]


class FourierObjective:
    """Quadratic penalty on DFT power outside the kept frequency set."""

    def __init__(self, spec: FrequencySpec):
        self.spec = spec
        m = spec.m
        phase = 2.0 * np.pi * np.outer(np.asarray(spec.excluded, dtype=float), np.arange(m)) / m
        self.factor = np.concatenate([np.cos(phase), np.sin(phase)])
        self.penalty_matrix = self.factor.T @ self.factor

    def cost_of(self, values) -> float:
        r = self.factor @ np.asarray(values, dtype=float)
        return float(r @ r)

    def gradient_of(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return 2.0 * (self.penalty_matrix @ values)


def _check_dim(field: ControlField, objective: FourierObjective):
    if field.n_pulses != objective.spec.m:
        raise ValueError(
            f"field has {field.n_pulses} pulses, objective expects {objective.spec.m}"
        )


def compress(problem, start: ControlField, objective: FourierObjective,
             h: float, steps: int, hessian_mode="exact") -> Trajectory:
    """Descend the spectral penalty inside the solution set of `problem`.

    Delegates to `navigate` with the -grad C steering vector; the returned
    trajectory records the main infidelity and the penalty at every step.
    """
    _check_dim(start, objective)
    provider = SecondaryGradient(objective)
    return navigate(problem, start, provider, h=h, steps=steps,
                    hessian_mode=hessian_mode)
