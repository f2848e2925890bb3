"""Piecewise-constant control fields and the DFT indices a compression keeps.

A protocol is a vector of M real amplitudes held constant over consecutive
intervals of length dt = T/M.  `FrequencySpec` names the indices k of the
unnormalized DFT X_k = sum_n w_n exp(-i 2 pi k n / M) that a compression
keeps; `qcl.objectives.FourierObjective` computes the power outside them.
A field's file form, {"T": ..., "values": [...]}, is read and written by
`qcl.cli` alone, which names the key at fault in a malformed document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ControlField", "FrequencySpec"]


@dataclass(frozen=True, eq=False, slots=True)
class ControlField:
    """M real amplitudes over a total duration T."""

    values: np.ndarray
    total_time: float

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, ndmin=1)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("a control field needs at least one amplitude")
        if not np.isfinite(vals).all():
            raise ValueError("control amplitudes must be finite")
        t = float(self.total_time)
        if not (math.isfinite(t) and t > 0):
            raise ValueError("total_time must be positive and finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "total_time", t)

    @property
    def n_pulses(self) -> int:
        return self.values.size

    def with_values(self, values) -> "ControlField":
        return ControlField(values=values, total_time=self.total_time)


@dataclass(frozen=True)
class FrequencySpec:
    """Kept DFT indices, closed under k -> (M-k) % M and always containing 0.

    A real signal cannot zero |X_k| without zeroing its mirror |X_{M-k}|,
    and a nonzero mean requires X_0 != 0, so the user-facing set is closed
    automatically.
    """

    m: int
    kept: frozenset

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for k in self.kept:
            if not (0 <= k < self.m):
                raise ValueError(f"kept index {k} outside [0, {self.m - 1}]")
        if 0 not in self.kept:
            raise ValueError("kept set must contain index 0")
        mirrored = {(self.m - k) % self.m for k in self.kept}
        if mirrored != set(self.kept):
            raise ValueError("kept set must be closed under k -> (M - k) % M")

    @classmethod
    def closure(cls, indices, m: int) -> "FrequencySpec":
        """Build a spec from raw indices, closing under the mirror map and adding 0."""
        kept = {0}
        for k in sorted(set(map(int, indices))):
            if not (0 <= k < m):
                raise ValueError(f"index {k} outside [0, {m - 1}]")
            kept.add(k)
            kept.add((m - k) % m)
        return cls(m=m, kept=frozenset(kept))

    @property
    def excluded(self) -> tuple:
        return tuple(k for k in range(self.m) if k not in self.kept)
