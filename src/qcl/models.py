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

Every interval matrix is A = C 1 + S K(w) with C = cos(sqrt(rho) dt),
S = sin(sqrt(rho) dt)/sqrt(rho), rho = rho0 + w^2 and K(w) = K0 + w Kw + rho Krho;
a model declares only rho0 and the constant generators (crossing: gap^2/4,
-i (gap/2) sigma_x, -i sigma_z, 0; trap: 0, [[0, 1], [0, 0]], 0, [[0, 0], [-1, 0]]).
Amplitude derivatives come from differentiating C and S, which keeps the
w -> 0 limit exact (series branch below).  `_factor_tables` is the one builder
of the tables C, S, S' and S'', and `_ChainProblem._interval_stacks` the one
builder of the factors and their derivatives, writing the real and imaginary
planes of every entry with real arithmetic.  Every interval matrix also has
det 1 (C^2 + rho S^2 = 1), so a product of consecutive factors is a prefix
product times the adjugate of another.  One kernel (`_prefix_chain`,
`_insertion_terms`) builds on this every term with one or two factors
replaced, for the exact Hessian (A1 and A2 insertions) and for the
finite-difference stencil (B - A insertions) alike.  The cost and the gradient
keep sequential sweeps: `_stacked_sweep` runs one forward sweep over a stack
of points.  `ChainBatch` adds, for a chosen row, the backward sweep that
completes its gradient, so a line search costs one factor build and its
accepted point's gradient reuses that point's forward states.  Up to
M = `_DIRECT_STENCIL_MAX_M` the stencil's few points cost less through that
sweep than through the pair kernel, so there every stencil cost is a direct
evaluation, bit for bit `infidelity_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    "ChainBatch",
    "chain_stencil_cost",
    "PrefixGrowth",
    "NonFiniteCost",
    "MODEL_SCHEMAS",
    "ModelSchema",
    "seed_bounds",
    "config_number",
    "problem_from_dict",
    "problem_to_dict",
]

# Below x = w * dt^2 ~ (w_j dt)^2 of this size, sin(sqrt(x) dt)/sqrt(x) and its
# w-derivatives are evaluated by series: the closed forms divide differences of
# nearly equal terms by x and lose ~eps/x relative accuracy to cancellation.
_SERIES_X = 1e-6

# Largest M at which `chain_stencil_cost` evaluates every stencil point as its
# own chain instead of running the pair kernel.  Per four-point stencil call,
# direct against pair kernel for both models: 60 against 140 us at M = 2,
# level to 10% faster at M = 6 and 15-20% slower from M = 7 (2 vCPUs)
_DIRECT_STENCIL_MAX_M = 6

# Largest max_t ||P_t||_F^2 over the prefix products P_t = A_{t-1} ... A_0 at
# which `_prefix_chain` trusts its adjugate inverses.  It is 2 for the unitary
# crossing; random trap fields over the seed range reach about 30 at M = 3 and
# 5 at M = 48, while a parametrically pumped trap reaches 1e13.
_GROWTH_LIMIT = 1e4

_EYE4 = np.eye(4)
# adj([[a, b], [c, d]]) = [[d, -b], [-c, a]]: the signs after the swaps
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_EYE4.flags.writeable = _ADJ_SIGNS.flags.writeable = False


@lru_cache(maxsize=16)
def _pair_slots(m: int, k: int) -> np.ndarray:
    """Read-only flat indices of the i < j blocks of an (mk, mk) array: entry
    (p k + s) k + t is row i k + s, column j k + t of the p-th pair (i, j) of
    `np.triu_indices(m, 1)`, the order of every packed (P, k, k) pairs array."""
    i, j = np.triu_indices(m, 1)
    rows = i[:, None, None] * k + np.arange(k)[:, None]
    slots = (rows * (m * k) + j[:, None, None] * k + np.arange(k)).ravel()
    slots.flags.writeable = False
    return slots


@lru_cache(maxsize=16)
def _pair_layout(m: int, k: int) -> tuple:
    """Read-only (dest, src) with block.flat[dest] = pairs_val.flat[src]: they
    write w_i = pairs_val[i, s] and w_j = pairs_val[j, t] into row r of a
    (P k^2, m) block of points, for the pair entry `_pair_slots(m, k)[r]`."""
    first, second = np.divmod(_pair_slots(m, k), m * k)
    row = np.arange(first.size) * m
    dest = np.concatenate((row + first // k, row + second // k))
    src = np.concatenate((first, second))
    dest.flags.writeable = src.flags.writeable = False
    return dest, src


def _symmetric(upper, diag) -> np.ndarray:
    """The symmetric (m, m) matrix with diagonal `diag` and, above it, the
    entries `upper` in `np.triu_indices(m, 1)` order."""
    m = diag.size
    out = np.zeros((m, m), dtype=upper.dtype)
    out.reshape(-1)[_pair_slots(m, 1)] = upper
    out += out.T
    out.flat[::m + 1] = diag
    return out


def _factor_tables(w, dt, order):
    """C = cos(sqrt(w) dt) and S = sin(sqrt(w) dt)/sqrt(w), then S' = dS/dw if
    order >= 1 and S'' = d2S/dw2 if order >= 2 (else None).

    w >= 0 always (it is either w_j^2 or gap^2/4 + w_j^2).  The series branch
    is only evaluated, and blended in, when some entry needs it.
    """
    w = np.asarray(w, dtype=float)
    x = w * dt * dt
    series = x < _SERIES_X
    blend = np.count_nonzero(series) > 0
    theta = np.sqrt(np.where(series, 1.0, x) if blend else x)
    C = np.cos(theta)
    S = dt * np.sin(theta) / theta
    if blend:
        C = np.where(series, 1.0 - x / 2.0 + x * x / 24.0 - x**3 / 720.0, C)
        S = np.where(series, dt * (1.0 - x / 6.0 + x * x / 120.0 - x**3 / 5040.0), S)
    if order == 0:
        return C, S, None, None
    two_w = 2.0 * (np.where(series, 1.0, w) if blend else w)
    S1 = (C * dt - S) / two_w
    S2 = (-(dt * dt / 2.0) * S - 3.0 * S1) / two_w if order > 1 else None
    if blend:
        S1 = np.where(series, dt**3 * (-1.0 / 6.0 + x / 60.0 - x * x / 1680.0
                                       + x**3 / 90720.0), S1)
        if order > 1:
            S2 = np.where(series, dt**5 * (1.0 / 60.0 - x / 840.0 + x * x / 30240.0
                                           - x**3 / 1995840.0), S2)
    return C, S, S1, S2


# The identity's C term, then a generator's S term by what multiplies it in
# K(w) = K0 + w Kw + rho Krho: 1, w or rho
_IDENTITY, _CONST, _LINEAR, _RHO = range(4)


def _factor_terms(K0, Kw, Krho):
    """Groups (kind, c, plus, minus) of the terms of A = C 1 + S K(w): the term
    times c goes to the slots `plus`, times -c to `minus`, where slot
    (p, row, col) is the real (p = 0) or imaginary (p = 1) part of an entry.
    A slot taken twice raises ValueError, so the builder never sums."""
    groups, taken = {}, set()
    for kind, K in enumerate((np.eye(2), K0, Kw, Krho)):
        K = np.asarray(K, dtype=complex)
        for p, part in enumerate((K.real, K.imag)):
            for r, col in zip(*np.nonzero(part)):
                slot = (p, int(r), int(col))
                if slot in taken:
                    raise ValueError(f"two factor terms share the plane slot {slot}")
                taken.add(slot)
                c = float(part[r, col])
                groups.setdefault((kind, abs(c)), ([], []))[c < 0].append(slot)
    return tuple((*key, tuple(plus), tuple(minus)) for key, (plus, minus) in groups.items())


def _scaled(c, x):
    """c x, or x itself when c = 1."""
    return x if c == 1.0 else c * x


class _ChainProblem:
    """A cost |bra . A_{M-1} ... A_0 . ket|^2 over M equal intervals.

    A model supplies its fields, `_boundary_vectors()` (ket, bra) and
    `_generators()` (rho0, K0, Kw, Krho); both are read once per problem.
    """

    def __post_init__(self):
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ValueError("duration must be positive")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        ket, bra = self._boundary_vectors()
        ket.flags.writeable = bra.flags.writeable = False
        object.__setattr__(self, "_boundary", (ket, bra))
        rho0, *generators = self._generators()
        object.__setattr__(self, "_rho0", float(rho0))
        object.__setattr__(self, "_terms", _factor_terms(*generators))

    def _cost_boundary(self):
        """(ket, bra), built once per problem; both arrays are read-only."""
        return self._boundary

    @property
    def dt(self) -> float:
        return self.duration / self.n_pulses

    def infidelity_of(self, values) -> float:
        ket, bra = self._cost_boundary()
        z = bra @ _chain_state(self._interval_stacks(values, 0)[0], ket)
        return float(abs(z) ** 2)

    def _interval_stacks(self, values, order=2):
        """The factors A and, up to `order`, A1 = dA/dw and A2 = d2A/dw2 (None
        beyond), each of shape values.shape + (2, 2): with the rho-derivatives
        Ar = C' 1 + S' K + S Krho and Arr = C'' 1 + S'' K + 2 S' Krho,
        A1 = 2w Ar + S Kw and A2 = 2 Ar + 4w^2 Arr + 4w S' Kw.  Each term's
        products are grouped as in the models' complex forms (the constant
        term's A1 as (c 2w) S', not c (2w S')), so the planes equal those bit
        for bit, up to the sign of a zero; the term of -c is that of c negated,
        which is exact.
        """
        v = np.asarray(values, dtype=float)
        dt = self.dt
        w2 = v * v
        rho = w2 + self._rho0 if self._rho0 else w2
        C, S, S1, S2 = _factor_tables(rho, dt, order)
        # a derivative beyond `order` is never evaluated (it reads 0 or False)
        twice_w, four_w2 = order and 2.0 * v, order > 1 and 4.0 * w2
        A = np.zeros((order + 1,) + v.shape + (2, 2), dtype=complex)
        parts = A.real, A.imag
        for kind, c, plus, minus in self._terms:
            if kind == _IDENTITY:
                # C' = -dt S / 2 and C'' = -dt S' / 2
                C1 = order and -0.5 * dt * S
                terms = (C, order and twice_w * C1,
                         order > 1 and 2.0 * C1 + four_w2 * (-0.5 * dt * S1))
            elif kind == _CONST:
                terms = (_scaled(c, S), order and _scaled(c, twice_w) * S1,
                         order > 1 and _scaled(c, 2.0 * S1 + four_w2 * S2))
            elif kind == _LINEAR:
                k = _scaled(c, v)
                S1k = order and S1 * k
                terms = (k * S, order and twice_w * S1k + _scaled(c, S),
                         order > 1 and 2.0 * S1k + four_w2 * (S2 * k) + _scaled(c, 4.0 * v * S1))
            else:
                k = _scaled(c, rho)
                Sr = order and S1 * k + _scaled(c, S)
                terms = (k * S, order and twice_w * Sr,
                         order > 1 and 2.0 * Sr + four_w2 * (S2 * k + _scaled(c, 2.0 * S1)))
            for o in range(order + 1):
                for p, r, col in plus:
                    parts[p][o, ..., r, col] = terms[o]
                negated = minus and -terms[o]
                for p, r, col in minus:
                    parts[p][o, ..., r, col] = negated
        return A[0], A[1] if order else None, A[2] if order > 1 else None


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

    def _boundary_vectors(self):
        # 1 - |<1|U|0>|^2 equals |<0|U|0>|^2 exactly for unitary U; the latter
        # form survives near-perfect fidelity without cancellation.
        ket0 = np.array([1.0, 0.0], dtype=complex)
        bra0 = np.array([1.0, 0.0], dtype=complex)
        return ket0, bra0

    def _generators(self):
        half_gap = 0.5 * self.gap
        return (half_gap * half_gap, [[0.0, -1j * half_gap], [-1j * half_gap, 0.0]],
                [[-1j, 0.0], [0.0, 1j]], np.zeros((2, 2)))


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

    def _boundary_vectors(self):
        w0, wt = self.omega_start, self.omega_target
        # initial positive-frequency mode of the starting trap
        ket0 = np.array([1.0 / np.sqrt(2.0 * w0), -1j * np.sqrt(w0 / 2.0)], dtype=complex)
        # negative-frequency projection at T: beta = (wT f - i f') / sqrt(2 wT)
        bra_beta = np.array([wt, -1j], dtype=complex) / np.sqrt(2.0 * wt)
        return ket0, bra_beta

    def _generators(self):
        return 0.0, [[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)), [[0.0, 0.0], [-1.0, 0.0]]


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


def _stacked_sweep(A, ket, bra):
    """The forward sweep of a (K, M, 2, 2) stack of chains, every row at once.

    Returns (kets, z, costs): kets[t, r] = A_{t-1} ... A_0 ket of row r,
    z[r] = bra . kets[M, r] and the list costs[r] = |z[r]|^2.  Each step is
    one stacked (2x2) @ (2x1) product per row, the product `_chain_state`
    takes, so costs[r] equals `infidelity_of` of row r bit for bit.
    """
    rows, m = A.shape[:2]
    by_interval = A.transpose(1, 0, 2, 3)
    kets = np.empty((m + 1, rows, 2, 1), dtype=complex)
    kets[0, :, :, 0] = ket
    for t in range(m):
        np.matmul(by_interval[t], kets[t], out=kets[t + 1])
    # bra (2,) against a stack of (2, 1) columns: one 1-D dot per row, as bra @ v
    z = np.matmul(bra, kets[m])[:, 0]
    # abs of the complex scalar: the array abs may round differently
    return kets[..., 0], z, [float(abs(zr) ** 2) for zr in z]


class ChainBatch:
    """Costs of a (K, M) stack of points from one factor build and one forward sweep.

    `costs[k]` equals `problem.infidelity_of(points[k])` and
    `gradient_and_dz(k)[0]` equals `gradient_of(problem, points[k])`, both
    bit for bit: every row runs the 2x2 products of the sequential sweeps, in
    their order.  `gradient_and_dz(k)` runs only the backward sweep over row
    k's factors and reuses its forward states; the z-gradient it also returns
    gives `minimize`, with `z[k]`, its stall test and its Gauss-Newton step.
    """

    __slots__ = ("points", "costs", "z", "_bra", "_A", "_A1", "_kets")

    def __init__(self, problem, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"expected a (K, M) stack of points, got shape {points.shape}")
        ket, bra = problem._cost_boundary()
        A, A1, _ = problem._interval_stacks(points, 1)
        kets, self.z, self.costs = _stacked_sweep(A, ket, bra)
        self.points = points
        self._bra, self._A, self._A1, self._kets = bra, A, A1, kets

    def gradient_and_dz(self, k):
        """(dI/dw, dz/dw) of row k: dI/dw_j = 2 Re(conj(z) dz/dw_j), with
        dz/dw_j = bras[j+1] A1_j kets[j]."""
        A = self._A[k]
        m = A.shape[0]
        kets = np.ascontiguousarray(self._kets[:m, k])
        # bras[t] = bra A_{M-1} ... A_t, collected from t = M down
        bras = [self._bra]
        for a in A[::-1]:
            bras.append(bras[-1] @ a)
        bras = np.array(bras[::-1])
        zg = np.einsum("ja,jab,jb->j", bras[1:], self._A1[k], kets)
        return 2.0 * np.real(np.conj(self.z[k]) * zg), zg


class PrefixGrowth(ValueError):
    """The prefix products of a chain grew past `_GROWTH_LIMIT`."""


class NonFiniteCost(ValueError):
    """A cost, or the chain behind it, is NaN or infinite."""


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
    `_GROWTH_LIMIT` the results would be rounding noise and PrefixGrowth is raised;
    factors that overflow to NaN raise NonFiniteCost.
    """
    m = A.shape[0]
    # the scan runs on the real 4x4 form [[Re, -Im], [Im, Re]] of each factor:
    # numpy multiplies stacks of small real matrices several times faster
    X = np.zeros((m + 1, 4, 4))
    X[0] = _EYE4
    X[1:, :2, :2] = X[1:, 2:, 2:] = A.real
    X[1:, 2:, :2] = A.imag
    X[1:, :2, 2:] = -A.imag
    d = 1
    while d <= m:
        X[d:] = X[d:] @ X[:m + 1 - d]
        d *= 2
    P = X[:, :2, :2] + 1j * X[:, 2:, :2]
    growth = 0.5 * np.einsum("tab,tab->t", X, X).max()
    if not growth <= _GROWTH_LIMIT:
        if np.isnan(growth):
            raise NonFiniteCost("prefix products are not finite")
        raise PrefixGrowth(f"prefix products grow to {growth:.2e} (limit {_GROWTH_LIMIT:.0e}); "
                           "one- and two-factor insertions would be rounding noise")
    adj = P[1:, ::-1, ::-1].transpose(0, 2, 1) * _ADJ_SIGNS
    g = bra @ P[m]
    return g @ ket, P[:m] @ ket, g @ adj, P[:m], adj


def _insertion_terms(chain, D):
    """Single insertion terms and pair-term factors of a `_prefix_chain`.

    D has shape (M, k, 2, 2): k insertions per interval.  Returns (a, R, L):
    a (M, k) with a[j, s] = bras[j] . D[j, s] . kets[j], and the (Mk, 2) rows
    R_is = adj(P_{i+1}) D[i, s] kets[i] and L_jt = bras[j] D[j, t] P_j, at row
    i k + s resp. j k + t.  For i < j the pair term
    bras[j] . D[j, t] . A_{j-1} ... A_{i+1} . D[i, s] . kets[i] is R_is . L_jt,
    so one (Mk x 2) @ (2 x Mk) product R @ L.T holds all of them, at the
    entries `_pair_slots(M, k)` (the others are not pair terms).
    """
    _, kets, bras, P, adj = chain
    m, k = D.shape[:2]
    right = adj[:, None] @ (D @ kets[:, None, :, None])
    left = (bras[:, None, None, :] @ D) @ P[:, None]
    a = np.einsum("ja,jsab,jb->js", bras, D, kets)
    return a, right.reshape(m * k, 2), left.reshape(m * k, 2)


def _direct_stencil(problem, point, singles_idx, singles_val, pairs_val):
    """`chain_stencil_cost`'s (center, singles, pairs), every stencil point
    evaluated as its own chain: one factor build and one `_stacked_sweep`
    over the stack [center; singles; pairs i < j]."""
    m, k = pairs_val.shape
    q = singles_idx.size
    dest, src = _pair_layout(m, k)
    points = np.empty((1 + q + dest.size // 2, m))
    points[:] = point
    points[np.arange(1, 1 + q), singles_idx] = singles_val
    points[1 + q:].reshape(-1)[dest] = pairs_val.reshape(-1)[src]
    ket, bra = problem._cost_boundary()
    costs = np.array(_stacked_sweep(problem._interval_stacks(points, 0)[0], ket, bra)[2])
    return float(costs[0]), costs[1:1 + q], costs[1 + q:].reshape(-1, k, k)


def chain_stencil_cost(problem):
    """Fast cost evaluation at points perturbing one or two coordinates.

    Returns a callable
        evaluate(point, singles_idx, singles_val, pairs_val)
    giving (center_cost, singles, pairs).  singles[q] is the cost with
    coordinate singles_idx[q] set to singles_val[q].  `pairs_val` has shape
    (M, k), and pairs has shape (P, k, k), P = M (M - 1) / 2: pairs[p, s, t]
    is the cost with w_i = pairs_val[i, s] and w_j = pairs_val[j, t] for the
    p-th pair i < j of `np.triu_indices(M, 1)`.

    Up to M = `_DIRECT_STENCIL_MAX_M` every point is evaluated directly: the
    1 + len(singles_val) + k^2 M (M - 1) / 2 points (2M^2 + 1 for the
    four-point stencil, 19 at M = 3) go through one factor build and one
    `_stacked_sweep`, and every cost equals `problem.infidelity_of` at its
    point bit for bit.  Above it every cost comes from the linear split of z
    in D = B(value) - A: |z + a_q|^2 for a single and
    |z + a_is + a_jt + R_is . L_jt|^2 for a pair (`_insertion_terms`), so one
    call builds factors for M + len(singles_val) + M k values (5M for the
    four-point stencil) and runs a few batched products, not a chain pass per
    point.  The real and imaginary parts of every pair's sum come from one
    stacked real (2, Mk, 6) @ (2, 6, Mk) product, whose two extra columns
    carry z + a_is and a_jt, and the pairs are gathered from its two planes
    through `_pair_slots`.  Those costs equal direct evaluations up to
    rounding, and a chain whose prefix products grow too large raises
    `PrefixGrowth`.
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
        if m <= _DIRECT_STENCIL_MAX_M:
            return _direct_stencil(problem, point, singles_idx, singles_val, pairs_val)
        values = np.concatenate((point, singles_val, pairs_val.ravel()))
        B = problem._interval_stacks(values, 0)[0]
        A = B[:m]
        chain = _prefix_chain(A, *problem._cost_boundary())
        z, kets, bras = chain[:3]

        D = B[m:m + q] - A[singles_idx]
        split = z + np.einsum("qa,qab,qb->q", bras[singles_idx], D, kets[singles_idx])
        singles = split.real ** 2 + split.imag ** 2

        k = pairs_val.shape[1]
        D = B[m + q:].reshape(m, k, 2, 2) - A[:, None]
        a, R, L = _insertion_terms(chain, D)
        n = m * k
        # plane 0 is Re, plane 1 Im of z + a_is + a_jt + R_is . L_jt: the row
        # [R_is as (re, im) pairs, z + a_is, 1] times the column
        # [conj(L_jt) as (re, im) pairs, 1, a_jt], resp. i conj(L_jt)
        rows = np.empty((2, n, 6))
        rows[:, :, :4] = R.view(float)
        rows[:, :, 4] = (z + a).view(float).reshape(n, 2).T
        rows[:, :, 5] = 1.0
        cols = np.empty((2, 6, n))
        conj_L = np.conj(L)
        cols[0, :4] = conj_L.view(float).T
        cols[1, :4] = (1j * conj_L).view(float).T
        cols[:, 4] = 1.0
        cols[:, 5] = a.view(float).reshape(n, 2).T
        planes = (rows @ cols).reshape(2, -1).take(_pair_slots(m, k), axis=1)
        np.square(planes, out=planes)
        pairs = planes[0] + planes[1]
        return float(z.real ** 2 + z.imag ** 2), singles, pairs.reshape(-1, k, k)

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
    """Analytic d2I/dw_i dw_j, an exactly symmetric matrix."""
    _check_field(problem, field)
    return hessian_of(problem, field.values)


def gradient_of(problem, values) -> np.ndarray:
    """exact_gradient on a raw amplitude vector (no ControlField wrapper).

    Both costs are |z|^2 of a linear chain functional, so the chain rule is
    dI/dw_j = 2 Re(conj(z) dz/dw_j); dz/dw_j inserts A1_j between the prefix
    state and the suffix functional (`ChainBatch.gradient_and_dz`, on a batch
    of one).
    """
    return ChainBatch(problem, [values]).gradient_and_dz(0)[0]


def hessian_of(problem, values) -> np.ndarray:
    """exact_hessian on a raw amplitude vector.

    Each amplitude enters exactly one factor, so the mixed second derivatives
    of z are pair terms of two A1 insertions and the diagonal ones single A2
    insertions (`_insertion_terms`).  Every term is formed symmetrically in
    (i, j), so the matrix is exactly symmetric without averaging it with its
    transpose.
    """
    A, A1, A2 = problem._interval_stacks(values)
    chain = _prefix_chain(A, *problem._cost_boundary())
    z, kets, bras = chain[:3]
    zg, R, L = _insertion_terms(chain, A1[:, None])
    zg = zg[:, 0]
    zh = _symmetric((R @ L.T).take(_pair_slots(A.shape[0], 1)),
                    np.einsum("ja,jab,jb->j", bras, A2, kets))
    return 2.0 * (np.real(np.conj(z) * zh) + np.real(np.outer(np.conj(zg), zg)))


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


def config_number(key: str, value, integer: bool = False):
    """A finite JSON number (not a bool) as a float, or where `integer` an
    integral one (10.0 but not 10.5) as an int; else a ValueError naming `key`."""
    if isinstance(value, float):
        ok = value.is_integer() if integer else np.isfinite(value)
    else:
        ok = isinstance(value, int) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"{key} must be {'an integer' if integer else 'a finite number'}, "
                         f"got {value!r}")
    return int(value) if integer else float(value)


def problem_from_dict(doc: dict):
    """The problem a config document describes; a missing value, or one of the
    wrong kind, is a ValueError naming `problem.<key>`."""
    if not isinstance(doc, dict):
        raise ValueError("problem must be a JSON object")
    model = doc.get("model")
    schema = MODEL_SCHEMAS.get(model) if isinstance(model, str) else None
    if schema is None:
        raise ValueError(f"unknown model {model!r}")
    doc = {**schema.defaults, **doc}
    return schema.problem_type(**{f: config_number(f"problem.{k}", doc.get(k), f == "n_pulses")
                                  for k, f in schema.keys.items()})


def seed_bounds(problem) -> tuple:
    """Default uniform range of random seed amplitudes for `problem`'s model."""
    return MODEL_SCHEMAS[problem_to_dict(problem)["model"]].seed_bounds
