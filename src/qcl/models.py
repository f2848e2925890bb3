"""The two control problems: costs, exact gradients, exact Hessians.

Both problems propagate a 2-component state through a product of per-interval
matrices that are closed-form in the pulse amplitude, so no ODE solver is
involved anywhere:

* two-level crossing: U_j = cos(r dt) I - i sin(r dt) H(w_j)/r with
  r = sqrt(gap^2/4 + w_j^2), acting on the state in the computational basis;
  the cost is 1 - |<1|U_T|0>|^2.
* driven harmonic trap: the classical mode function f obeys f'' + w(t)^2 f = 0
  and each interval applies [[cos(w dt), sin(w dt)/w], [-w sin(w dt), cos(w dt)]]
  to (f, f'); the cost is the excitation weight |beta|^2 of the final mode.

Every interval matrix is an analytic function of w^2 through
C(x) = cos(sqrt(x) dt) and S(x) = sin(sqrt(x) dt)/sqrt(x), so first and second
amplitude derivatives come from differentiating C and S, which keeps the
w -> 0 limit exact (series branch below).  Every interval matrix also has
det 1 (C^2 + x S^2 = 1), so a product of consecutive factors is a prefix
product times the adjugate of another.  One kernel (`_prefix_chain`,
`_insertion_terms`) builds on this every term with one or two factors
replaced, for the exact Hessian (A1 and A2 insertions) and for the
finite-difference stencil (B - A insertions) alike; the gradient and the
cost keep their sequential sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .control import ControlField

__all__ = [
    "LzProblem",
    "QhoProblem",
    "BogoliubovPair",
    "lz_infidelity",
    "qho_propagate",
    "qho_infidelity",
    "particle_number",
    "exact_gradient",
    "exact_hessian",
    "chain_stencil_cost",
    "PrefixGrowth",
    "MODEL_SCHEMAS",
    "ModelSchema",
    "seed_bounds",
    "problem_from_dict",
    "problem_to_dict",
]

# Below x = w * dt^2 ~ (w_j dt)^2 of this size, sin(sqrt(x) dt)/sqrt(x) and its
# w-derivatives are evaluated by series: the closed forms divide differences of
# nearly equal terms by x and lose ~eps/x relative accuracy to cancellation.
_SERIES_X = 1e-6

# Largest max_t ||P_t||_F^2 over the prefix products P_t = A_{t-1} ... A_0 at
# which `_prefix_chain` trusts its adjugate inverses.  It is 2 for the unitary
# crossing; random trap fields over the seed range reach about 30 at M = 3 and
# 5 at M = 48, while a parametrically pumped trap reaches 1e13.
_GROWTH_LIMIT = 1e4


def _cs_values(w, dt):
    """C = cos(sqrt(w) dt) and S = sin(sqrt(w) dt)/sqrt(w), without derivatives.

    w >= 0 always (it is either w_j^2 or gap^2/4 + w_j^2).  The series branch
    is only evaluated when some entry needs it.
    """
    w = np.asarray(w, dtype=float)
    x = w * dt * dt
    series = x < _SERIES_X
    theta = np.sqrt(np.where(series, 1.0, x))
    C = np.cos(theta)
    S = dt * np.sin(theta) / theta
    if series.any():
        C = np.where(series, 1.0 - x / 2.0 + x * x / 24.0 - x**3 / 720.0, C)
        S = np.where(series, dt * (1.0 - x / 6.0 + x * x / 120.0 - x**3 / 5040.0), S)
    return C, S


def _factor_tables(w, dt, order):
    """C and S, then S' = dS/dw if order >= 1 and S'' = d2S/dw2 if order >= 2
    (else None); see `_cs_values`."""
    C, S = _cs_values(w, dt)
    if order == 0:
        return C, S, None, None
    w = np.asarray(w, dtype=float)
    x = w * dt * dt
    series = x < _SERIES_X
    safe_w = np.where(series, 1.0, w)
    S1 = (C * dt - S) / (2.0 * safe_w)
    S2 = (-(dt * dt / 2.0) * S - 3.0 * S1) / (2.0 * safe_w) if order > 1 else None
    if series.any():
        S1 = np.where(series, dt**3 * (-1.0 / 6.0 + x / 60.0 - x * x / 1680.0
                                       + x**3 / 90720.0), S1)
        if order > 1:
            S2 = np.where(series, dt**5 * (1.0 / 60.0 - x / 840.0 + x * x / 30240.0
                                           - x**3 / 1995840.0), S2)
    return C, S, S1, S2


class _ChainProblem:
    """A cost |bra . A_{M-1} ... A_0 . ket|^2 over M equal intervals.

    A model supplies its fields, `_cost_boundary` (ket, bra) and
    `_interval_stacks(values, order)`, which gives the per-interval factors A
    and, up to `order`, their amplitude derivatives A1 and A2 (None beyond).
    """

    def __post_init__(self):
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ValueError("duration must be positive")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")

    @property
    def dt(self) -> float:
        return self.duration / self.n_pulses

    def infidelity_of(self, values) -> float:
        ket, bra = self._cost_boundary()
        z = bra @ _chain_state(self._interval_stacks(values, 0)[0], ket)
        return float(abs(z) ** 2)


@dataclass(frozen=True)
class LzProblem(_ChainProblem):
    """Two-level avoided crossing with minimal gap `gap`, target flip |0> -> |1>."""

    gap: float
    duration: float
    n_pulses: int

    def __post_init__(self):
        if not (self.gap > 0 and np.isfinite(self.gap)):
            raise ValueError("gap must be positive")
        super().__post_init__()

    def _cost_boundary(self):
        # 1 - |<1|U|0>|^2 equals |<0|U|0>|^2 exactly for unitary U; the latter
        # form survives near-perfect fidelity without cancellation.
        ket0 = np.array([1.0, 0.0], dtype=complex)
        bra0 = np.array([1.0, 0.0], dtype=complex)
        return ket0, bra0

    def _interval_stacks(self, values, order=2):
        """Propagators and their amplitude derivatives, each of shape values.shape + (2, 2)."""
        v = np.asarray(values, dtype=float)
        dt = self.dt
        half_gap = 0.5 * self.gap
        rho = half_gap * half_gap + v * v
        C, S, S1, S2 = _factor_tables(rho, dt, order)

        A = np.empty(v.shape + (2, 2), dtype=complex)
        A[..., 0, 0] = C - 1j * S * v
        A[..., 0, 1] = -1j * half_gap * S
        A[..., 1, 0] = A[..., 0, 1]
        A[..., 1, 1] = C + 1j * S * v
        if order == 0:
            return A, None, None

        # dU/dw = 2w (C' I - i S' H) - i S sigma_z
        C1 = -0.5 * dt * S
        A1 = np.empty_like(A)
        A1[..., 0, 0] = 2.0 * v * (C1 - 1j * S1 * v) - 1j * S
        A1[..., 0, 1] = -2j * half_gap * v * S1
        A1[..., 1, 0] = A1[..., 0, 1]
        A1[..., 1, 1] = 2.0 * v * (C1 + 1j * S1 * v) + 1j * S
        if order == 1:
            return A, A1, None

        # d2U/dw2 = 2 (C' I - i S' H) + 4w^2 (C'' I - i S'' H) - 4 i w S' sigma_z
        C2 = -0.5 * dt * S1
        A2 = np.empty_like(A)
        v2 = v * v
        A2[..., 0, 0] = 2.0 * (C1 - 1j * S1 * v) + 4.0 * v2 * (C2 - 1j * S2 * v) - 4j * v * S1
        A2[..., 0, 1] = -1j * half_gap * (2.0 * S1 + 4.0 * v2 * S2)
        A2[..., 1, 0] = A2[..., 0, 1]
        A2[..., 1, 1] = 2.0 * (C1 + 1j * S1 * v) + 4.0 * v2 * (C2 + 1j * S2 * v) + 4j * v * S1
        return A, A1, A2


@dataclass(frozen=True)
class QhoProblem(_ChainProblem):
    """Harmonic trap driven from omega_start to omega_target; cost is |beta|^2."""

    omega_start: float
    omega_target: float
    duration: float
    n_pulses: int
    n_initial: float = 0.0

    def __post_init__(self):
        if not (self.omega_start > 0 and self.omega_target > 0):
            raise ValueError("trap frequencies must be positive")
        super().__post_init__()
        if self.n_initial < 0:
            raise ValueError("n_initial must be nonnegative")

    def _cost_boundary(self):
        w0, wt = self.omega_start, self.omega_target
        # initial positive-frequency mode of the starting trap
        ket0 = np.array([1.0 / np.sqrt(2.0 * w0), -1j * np.sqrt(w0 / 2.0)], dtype=complex)
        # negative-frequency projection at T: beta = (wT f - i f') / sqrt(2 wT)
        bra_beta = np.array([wt, -1j], dtype=complex) / np.sqrt(2.0 * wt)
        return ket0, bra_beta

    def _interval_stacks(self, values, order=2):
        v = np.asarray(values, dtype=float)
        dt = self.dt
        w = v * v
        C, S, S1, S2 = _factor_tables(w, dt, order)

        A = np.empty(v.shape + (2, 2), dtype=complex)
        A[..., 0, 0] = C
        A[..., 0, 1] = S
        A[..., 1, 0] = -w * S
        A[..., 1, 1] = C
        if order == 0:
            return A, None, None

        # dA/dw_j = 2 w_j dA/dw; the w-derivative is entrywise below
        C1 = -0.5 * dt * S
        Aw = np.empty_like(A)
        Aw[..., 0, 0] = C1
        Aw[..., 0, 1] = S1
        Aw[..., 1, 0] = -S - w * S1
        Aw[..., 1, 1] = C1
        A1 = 2.0 * v[..., None, None] * Aw
        if order == 1:
            return A, A1, None

        C2 = -0.5 * dt * S1
        Aww = np.empty_like(A)
        Aww[..., 0, 0] = C2
        Aww[..., 0, 1] = S2
        Aww[..., 1, 0] = -2.0 * S1 - w * S2
        Aww[..., 1, 1] = C2
        A2 = 2.0 * Aw + 4.0 * w[..., None, None] * Aww
        return A, A1, A2


@dataclass(frozen=True)
class BogoliubovPair:
    """Mode-mixing coefficients; |alpha|^2 - |beta|^2 = 1 up to rounding."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a2, b2 = abs(self.alpha) ** 2, abs(self.beta) ** 2
        if not np.isfinite(a2) or not np.isfinite(b2):
            raise ValueError("non-finite Bogoliubov coefficients")
        if abs(a2 - b2 - 1.0) > 1e-8 * max(1.0, a2):
            raise ValueError(f"normalization broken: |alpha|^2-|beta|^2 = {a2 - b2}")

    @property
    def excitation(self) -> float:
        return float(abs(self.beta) ** 2)


def _check_field(problem, field: ControlField):
    if field.n_pulses != problem.n_pulses:
        raise ValueError(
            f"field has {field.n_pulses} pulses, problem expects {problem.n_pulses}"
        )
    if not np.isclose(field.total_time, problem.duration, rtol=1e-12, atol=0.0):
        raise ValueError(
            f"field duration {field.total_time} != problem duration {problem.duration}"
        )


def _chain_state(A, ket):
    """A_{M-1} ... A_0 ket, one interval at a time."""
    v = ket
    for m in range(A.shape[0]):
        v = A[m] @ v
    return v


def _chain_sweep(A, ket, bra):
    """Prefix states kets[t] = A_{t-1} ... A_0 ket and suffix functionals
    bras[t] = bra A_{M-1} ... A_t, for t = 0 .. M."""
    m = A.shape[0]
    kets = np.empty((m + 1, 2), dtype=complex)
    kets[0] = ket
    for t in range(m):
        kets[t + 1] = A[t] @ kets[t]
    bras = np.empty((m + 1, 2), dtype=complex)
    bras[m] = bra
    for t in range(m - 1, -1, -1):
        bras[t] = bras[t + 1] @ A[t]
    return kets, bras


class PrefixGrowth(ValueError):
    """The prefix products of a chain grew past `_GROWTH_LIMIT`."""


def _prefix_chain(A, ket, bra):
    """z = bra . A_{M-1} ... A_0 . ket in prefix form, for one- and two-factor insertions.

    Returns (z, kets, bras, P, adj), each indexed by interval j = 0 .. M-1:
    P[j] = A_{j-1} ... A_0 (prefix products, by a log-depth scan),
    kets[j] = P_j ket, adj[j] = adj(P_{j+1}) and bras[j] = bra A_{M-1} ... A_{j+1}.
    Replacing A_j by D changes z to bras[j] . D . kets[j].  Every factor has
    det 1 (C^2 + rho S^2 = 1 in both models), so adj(P_t) = P_t^-1, which gives
    bras[j] = (bra P_M) adj(P_{j+1}) and A_{j-1} ... A_{i+1} = P_j adj(P_{i+1})
    without a sequential sweep.

    The adjugate inverse amplifies rounding by about max_t ||P_t||_F^2; past
    `_GROWTH_LIMIT` the results would be rounding noise and PrefixGrowth is raised.
    """
    m = A.shape[0]
    # the scan runs on the real 4x4 form [[Re, -Im], [Im, Re]] of each factor:
    # numpy multiplies stacks of small real matrices several times faster
    X = np.zeros((m + 1, 4, 4))
    X[0] = np.eye(4)
    X[1:, :2, :2] = X[1:, 2:, 2:] = A.real
    X[1:, 2:, :2] = A.imag
    X[1:, :2, 2:] = -A.imag
    d = 1
    while d <= m:
        X[d:] = X[d:] @ X[:m + 1 - d]
        d *= 2
    P = X[:, :2, :2] + 1j * X[:, 2:, :2]
    growth = 0.5 * np.einsum("tab,tab->t", X, X).max()
    if growth > _GROWTH_LIMIT:
        raise PrefixGrowth(f"prefix products grow to {growth:.2e} (limit {_GROWTH_LIMIT:.0e}); "
                           "one- and two-factor insertions would be rounding noise")
    # adj([[a, b], [c, d]]) = [[d, -b], [-c, a]]
    adj = P[1:, ::-1, ::-1].transpose(0, 2, 1) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    g = bra @ P[m]
    return g @ ket, P[:m] @ ket, g @ adj, P[:m], adj


def _insertion_terms(chain, D):
    """Single and pair insertion terms of a `_prefix_chain`.

    D has shape (M, k, 2, 2): k insertions per interval.  Returns a (M, k) with
    a[j, s] = bras[j] . D[j, s] . kets[j] and cross (M, k, M, k) with
    cross[i, s, j, t] = bras[j] . D[j, t] . A_{j-1} ... A_{i+1} . D[i, s] . kets[i]
    for i < j (entries with i >= j are not pair terms).  All pair terms come
    from one (Mk x 2) @ (2 x Mk) product of L_jt = bras[j] D[j, t] P_j and
    R_is = adj(P_{i+1}) D[i, s] kets[i].
    """
    _, kets, bras, P, adj = chain
    m, k = D.shape[:2]
    right = adj[:, None] @ (D @ kets[:, None, :, None])
    left = (bras[:, None, None, :] @ D) @ P[:, None]
    a = np.einsum("ja,jsab,jb->js", bras, D, kets)
    R = right.reshape(m * k, 2)
    L = left.reshape(m * k, 2)
    return a, (R @ L.T).reshape(m, k, m, k)


def chain_stencil_cost(problem):
    """Fast cost evaluation at points perturbing one or two coordinates.

    Returns a callable
        evaluate(point, singles_idx, singles_val, pairs_val)
    giving (center_cost, singles, pairs).  singles[q] is the cost with
    coordinate singles_idx[q] set to singles_val[q].  `pairs_val` has shape
    (M, k), and pairs[i, s, j, t] is the cost with w_i = pairs_val[i, s] and
    w_j = pairs_val[j, t] for i < j; entries with i >= j are NaN.  Every cost
    comes from the linear split of z in D = B(value) - A: |z + a_q|^2 for a
    single and |z + a_is + a_jt + cross|^2 for a pair (`_insertion_terms`), so
    one call builds factors for M + len(singles_val) + M k values (5M for the
    four-point stencil) and runs a few batched products, not a chain pass per
    point.  The costs equal direct evaluations up to rounding.
    """

    def evaluate(point, singles_idx, singles_val, pairs_val):
        point = np.asarray(point, dtype=float)
        singles_idx = np.asarray(singles_idx, dtype=int)
        singles_val = np.asarray(singles_val, dtype=float)
        pairs_val = np.asarray(pairs_val, dtype=float)
        m, q = point.size, singles_idx.size
        if (point.ndim != 1 or singles_idx.shape != (q,) or singles_val.shape != (q,)
                or pairs_val.ndim != 2 or pairs_val.shape[0] != m):
            raise ValueError(f"expected a 1-D point, equal 1-D singles_idx and singles_val "
                             f"and pairs_val of shape (M, k); got {point.shape}, "
                             f"{singles_idx.shape}, {singles_val.shape} and {pairs_val.shape}")
        values = np.concatenate((point, singles_val, pairs_val.ravel()))
        B = problem._interval_stacks(values, 0)[0]
        A = B[:m]
        chain = _prefix_chain(A, *problem._cost_boundary())
        z, kets, bras = chain[:3]

        D = B[m:m + q] - A[singles_idx]
        split = z + np.einsum("qa,qab,qb->q", bras[singles_idx], D, kets[singles_idx])
        singles = split.real ** 2 + split.imag ** 2

        D = B[m + q:].reshape(pairs_val.shape + (2, 2)) - A[:, None]
        a, split = _insertion_terms(chain, D)
        split += a[:, :, None, None]
        split += z + a
        pairs = split.real ** 2
        pairs += split.imag ** 2
        lower = np.arange(m)[:, None, None, None] >= np.arange(m)[:, None]
        np.copyto(pairs, np.nan, where=lower)
        return float(z.real ** 2 + z.imag ** 2), singles, pairs

    return evaluate


def lz_infidelity(problem: LzProblem, field: ControlField) -> float:
    """1 - |<1|U_T|0>|^2."""
    _check_field(problem, field)
    return problem.infidelity_of(field.values)


def qho_propagate(problem: QhoProblem, field: ControlField) -> BogoliubovPair:
    """Evolve the mode function and project onto the final-trap mode pair."""
    _check_field(problem, field)
    ket, bra_beta = problem._cost_boundary()
    v = _chain_state(problem._interval_stacks(field.values, 0)[0], ket)
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError("non-finite mode function during propagation")
    wt = problem.omega_target
    bra_alpha = np.array([wt, 1j], dtype=complex) / np.sqrt(2.0 * wt)
    return BogoliubovPair(alpha=complex(bra_alpha @ v), beta=complex(bra_beta @ v))


def qho_infidelity(problem: QhoProblem, field: ControlField) -> float:
    """Excitation weight |beta|^2 of the evolved mode."""
    return qho_propagate(problem, field).excitation


def particle_number(problem: QhoProblem, field: ControlField) -> float:
    """N(T) = N0 (1 + 2|beta|^2) + |beta|^2."""
    b2 = qho_infidelity(problem, field)
    return float(problem.n_initial * (1.0 + 2.0 * b2) + b2)


def exact_gradient(problem, field: ControlField) -> np.ndarray:
    """Analytic dI/dw_j via the per-interval derivative insertions."""
    _check_field(problem, field)
    return gradient_of(problem, field.values)


def exact_hessian(problem, field: ControlField) -> np.ndarray:
    """Analytic d2I/dw_i dw_j, symmetrized."""
    _check_field(problem, field)
    return hessian_of(problem, field.values)


def gradient_of(problem, values) -> np.ndarray:
    """exact_gradient on a raw amplitude vector (no ControlField wrapper).

    Both costs are |z|^2 of a linear chain functional, so the chain rule is
    dI/dw_j = 2 Re(conj(z) dz/dw_j); dz/dw_j inserts A1_j between the prefix
    state and the suffix functional of one sequential sweep.
    """
    ket, bra = problem._cost_boundary()
    A, A1, _ = problem._interval_stacks(values, 1)
    m = A.shape[0]
    kets, bras = _chain_sweep(A, ket, bra)
    z = bras[m] @ kets[m]
    zg = np.einsum("ja,jab,jb->j", bras[1:], A1, kets[:m])
    return 2.0 * np.real(np.conj(z) * zg)


def hessian_of(problem, values) -> np.ndarray:
    """exact_hessian on a raw amplitude vector.

    Each amplitude enters exactly one factor, so the mixed second derivatives
    of z are pair terms of two A1 insertions and the diagonal ones single A2
    insertions (`_insertion_terms`).
    """
    A, A1, A2 = problem._interval_stacks(values)
    chain = _prefix_chain(A, *problem._cost_boundary())
    z, kets, bras = chain[:3]
    zg, cross = _insertion_terms(chain, A1[:, None])
    zg = zg[:, 0]
    zh = np.triu(cross[:, 0, :, 0], 1)
    zh = zh + zh.T
    zh[np.diag_indices(A.shape[0])] = np.einsum("ja,jab,jb->j", bras, A2, kets)
    h = 2.0 * (np.real(np.conj(z) * zh) + np.real(np.outer(np.conj(zg), zg)))
    return 0.5 * (h + h.T)


class ModelSchema(NamedTuple):
    """How a model's problem type reads and writes its config."""

    problem_type: type
    keys: dict          # config key -> problem field, in document order
    defaults: dict      # config key -> value used when the key is absent
    seed_bounds: tuple  # uniform range of random seed amplitudes


MODEL_SCHEMAS = {
    "lz": ModelSchema(LzProblem, {"delta": "gap", "T": "duration", "M": "n_pulses"},
                      {}, (-5.0, 5.0)),
    "qho": ModelSchema(QhoProblem, {"omega0": "omega_start", "omegaT": "omega_target",
                                    "N0": "n_initial", "T": "duration", "M": "n_pulses"},
                       {"omega0": 1.0, "omegaT": 1.0, "N0": 0.0}, (0.1, 3.0)),
}


def problem_to_dict(problem) -> dict:
    for name, schema in MODEL_SCHEMAS.items():
        if isinstance(problem, schema.problem_type):
            return {"model": name, **{k: getattr(problem, f) for k, f in schema.keys.items()}}
    raise TypeError(f"unknown problem type {type(problem)!r}")


def problem_from_dict(doc: dict):
    schema = MODEL_SCHEMAS.get(doc["model"])
    if schema is None:
        raise ValueError(f"unknown model {doc['model']!r}")
    doc = {**schema.defaults, **doc}
    return schema.problem_type(**{f: int(doc[k]) if f == "n_pulses" else float(doc[k])
                                  for k, f in schema.keys.items()})


def seed_bounds(problem) -> tuple:
    """Default uniform range of random seed amplitudes for `problem`'s model."""
    return MODEL_SCHEMAS[problem_to_dict(problem)["model"]].seed_bounds
