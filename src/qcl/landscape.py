"""Finite-difference Hessians and their spectra.

The four-point central stencil

    H_ij ~ [I(w + e(ei+ej)) - I(w + e(ei-ej)) - I(w - e(ei-ej)) + I(w - e(ei+ej))] / (4 e^2)

needs only cost evaluations, so navigation can run on problems whose exact
second derivatives are out of reach.  Symmetry halves the work; the diagonal
reduces to the three distinct points w, w +- 2e ei.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .models import NonFiniteCost, _symmetric

__all__ = [
    "FdConfig",
    "HessianSpectrum",
    "NonFiniteCost",
    "fd_hessian",
    "pointwise_stencil",
    "eig_sym",
    "rank2_ritz",
    "classify_null",
    "eigvec_error",
]


@dataclass(frozen=True)
class FdConfig:
    """Step size for the finite-difference stencil, in control-amplitude units."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True, eq=False)
class HessianSpectrum:
    """Eigenvalues sorted by descending magnitude, eigenvectors as rows.

    The rows are either a full eigenbasis (`eig_sym`) or the k leading Ritz
    pairs (`rank2_ritz`), so `vectors` has shape (k, M) with k <= M.  At a
    solution of either model the Hessian has rank two, so rows 0 and 1 are
    the non-null pair and every later row is null; the row order is the
    only place that premise is encoded.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def pointwise_stencil(cost):
    """Stencil evaluator with the `models.chain_stencil_cost` signature and
    output that calls `cost` once per point, looping over the pairs i < j
    itself: the way a black-box cost enters `fd_hessian`."""

    def evaluate(point, singles_idx, singles_val, pairs_val):
        def at(idx, val):
            q = point.copy()
            q[idx] = val
            return cost(q)

        singles = np.array([at(i, v) for i, v in zip(singles_idx, singles_val)], dtype=float)
        m, k = np.shape(pairs_val)
        pairs = [at([i, j], [vi, vj]) for i, j in zip(*np.triu_indices(m, 1))
                 for vi in pairs_val[i] for vj in pairs_val[j]]
        return float(cost(point)), singles, np.array(pairs, dtype=float).reshape(-1, k, k)

    return evaluate


@lru_cache(maxsize=16)
def _singles_index(m: int) -> np.ndarray:
    """Read-only [0, 0, 1, 1, ..., m-1, m-1]: the coordinate of each w +- 2 eps e_i."""
    idx = np.repeat(np.arange(m), 2)
    idx.flags.writeable = False
    return idx


def fd_hessian(stencil, point, config: FdConfig) -> np.ndarray:
    """Symmetric finite-difference Hessian at `point` from stencil costs.

    Parameters
    ----------
    stencil : evaluator of the costs at the centre and at the one- and
        two-coordinate perturbations, with the signature of
        `models.chain_stencil_cost(problem)`; `pointwise_stencil(cost)` wraps
        a black-box cost, one call per point.  The chain stencil's costs agree
        with those calls up to rounding, and bit for bit up to
        M = `models._DIRECT_STENCIL_MAX_M`.
    point : 1-D array, expansion point.
    config : FdConfig with the step epsilon.

    `models._symmetric` assembles the packed pair differences and the
    diagonal, as in `hessian_of`.  Raises NonFiniteCost if any stencil cost
    is NaN or infinite, or an entry overflows.
    """
    point = np.asarray(point, dtype=float)
    eps = config.epsilon
    inv = 1.0 / (4.0 * eps * eps)

    s_idx = _singles_index(point.size)
    s_val = (point[:, None] + np.array([2.0 * eps, -2.0 * eps])).ravel()
    p_val = point[:, None] + np.array([eps, -eps])
    center, singles, pairs = stencil(point, s_idx, s_val, p_val)
    # pairs[p, s, t] holds the cost at (w_i + (-1)^s eps, w_j + (-1)^t eps) of pair p
    upper = (pairs[:, 0, 0] - pairs[:, 0, 1] - pairs[:, 1, 0] + pairs[:, 1, 1]) * inv
    # every single and the centre enter a diagonal term
    diag = (singles[0::2] - 2.0 * center + singles[1::2]) * inv
    if not (np.isfinite(upper).all() and np.isfinite(diag).all()):
        raise NonFiniteCost("non-finite cost at a stencil point")
    return _symmetric(upper, diag)


def _symmetrised(matrix) -> np.ndarray:
    """0.5 (A + A^T) of a finite square matrix that is symmetric up to 1e-8 relative.

    An exactly symmetric A (every Hessian `hessian_of` and `fd_hessian`
    return) is 0.5 (A + A^T) bit for bit and comes back as it is.  A NaN or
    infinite entry raises ValueError: `eigh` would return NaN eigenvalues,
    or a NaN pair beside finite ones, without complaint.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if np.array_equal(a, a.T):
        return a
    defect = np.abs(a - a.T).max() if a.size else 0.0
    if defect > 1e-8 * max(1.0, np.abs(a).max()):
        raise ValueError(f"matrix is not symmetric (defect {defect:.2e})")
    return 0.5 * (a + a.T)


# The factorisations call the LAPACK gufuncs under `np.linalg.eigh` and
# `np.linalg.qr` directly, under numpy's own floating-point policy: the
# gufuncs flag only a LAPACK failure, as invalid.  Same routines, same bits;
# the public wrappers' dispatch costs about three times the arithmetic of a
# 48x4 QR, and about as much as a 4x4 `eigh`.  The gufunc names are
# private to numpy; they are checked on numpy 2.4, the floor pyproject.toml
# declares.
_LAPACK_ERRSTATE = dict(invalid="raise", over="ignore", divide="ignore", under="ignore")


def _eigh(sym):
    """`np.linalg.eigh(sym)` bit for bit, for a float64 symmetric matrix."""
    try:
        with np.errstate(**_LAPACK_ERRSTATE):
            return _umath_linalg.eigh_lo(sym)
    except FloatingPointError as exc:
        raise RuntimeError("eigendecomposition did not converge") from exc


def _orthonormal(y):
    """`np.linalg.qr(y)[0]` bit for bit, for a float64 (m, n) block with m >= n."""
    a = y.copy()  # geqrf overwrites its input with R and the reflectors
    with np.errstate(**_LAPACK_ERRSTATE):
        return _umath_linalg.qr_reduced(a, _umath_linalg.qr_r_raw(a))


def _descending(vals, vecs) -> HessianSpectrum:
    """Eigenpairs (vectors as columns) sorted by descending |eigenvalue|."""
    order = np.argsort(-np.abs(vals), kind="stable")
    return HessianSpectrum(eigenvalues=vals[order], vectors=vecs.T[order])


def eig_sym(matrix) -> HessianSpectrum:
    """Eigendecomposition of a symmetric matrix, sorted by descending |eigenvalue|.

    LAPACK's dsyevd through numpy's `eigh_lo` gufunc, bit for bit
    `np.linalg.eigh` without its Python wrapper; the returned basis is
    orthonormal to machine precision and the reconstruction residual is far
    below the 1e-12 * ||A|| off-diagonal target of an explicit Jacobi sweep.
    """
    return _descending(*_eigh(_symmetrised(matrix)))


# Rayleigh-Ritz block size and subspace-iteration passes of `rank2_ritz`
_RITZ_BLOCK = 4
_RITZ_PASSES = 2
# below this dimension `rank2_ritz` takes one full `eigh`.  Per call at trap
# Hessians of solutions (2 vCPUs), the Ritz step costs 0.05-0.07 ms at every
# M from 6 to 48, a full `eigh` 0.02 ms at M = 6, 0.06 at 16, 0.11 at 24 and
# 0.12 at 32: the crossover sits near M = 16.  The threshold stays at 32
# because lowering it would change the spectra for 16 <= M < 32, and no
# benchmark workload or experiment config navigates there (M is 3, 6 or 48).
_RITZ_MIN_DIM = 32


@lru_cache(maxsize=16)
def _ritz_start(m: int) -> np.ndarray:
    """The fixed (m, _RITZ_BLOCK) Gaussian start block, drawn once per size."""
    block = np.random.default_rng(m).standard_normal((m, _RITZ_BLOCK))
    block.flags.writeable = False
    return block


def rank2_ritz(matrix) -> HessianSpectrum:
    """The leading eigenpairs of a symmetric matrix, rows 0 and 1 the two
    largest in magnitude: all M of them below `_RITZ_MIN_DIM`, else the
    four Ritz pairs of one Rayleigh-Ritz step.

    The step works on the range of H^3 Omega, with a fixed Gaussian start
    block Omega of four columns and a QR factorisation after every product
    (randomized subspace iteration, Halko, Martinsson & Tropp, SIAM Review
    53 (2011), section 4.5).  When H has rank two up to a remainder of
    relative size r = |lambda_3 / lambda_2|, its two non-null eigenvectors
    lie in that range up to about r^3, so the projector they span matches a
    full `eigh`'s without its O(M^3) cost.  The third Ritz value estimates
    lambda_3 (from below when H is positive semi-definite, by Cauchy
    interlacing).  Below `_RITZ_MIN_DIM` the spectrum is `eig_sym(H)`, bit
    for bit.  The same symmetry check as `eig_sym` applies; the result
    depends on the matrix alone.
    """
    sym = _symmetrised(matrix)
    m = sym.shape[0]
    if m < 2:
        raise ValueError(f"rank 2 exceeds dimension {m}")
    if m < _RITZ_MIN_DIM:
        vals, vecs = _eigh(sym)
    else:
        y = sym @ _ritz_start(m)
        for _ in range(_RITZ_PASSES):
            y = sym @ _orthonormal(y)
        q = _orthonormal(y)
        vals, u = _eigh(q.T @ sym @ q)
        vecs = q @ u
    return _descending(vals, vecs)


def classify_null(spectrum: HessianSpectrum, *, tau_rel: float = 1e-6) -> np.ndarray:
    """Boolean mask, True where |lambda_i| <= tau_rel * |lambda_max|.

    A threshold reading of the spectrum for reports; navigation does not use
    it, since the rank-2 premise puts the non-null pair in rows 0 and 1.
    """
    lam = np.abs(spectrum.eigenvalues)
    return lam <= float(tau_rel) * (lam.max() if lam.size else 0.0)


def eigvec_error(exact: HessianSpectrum, approx: HessianSpectrum, i: int) -> float:
    """E_i = 1 - |v_i . v~_i| with vectors paired by descending-|lambda| order.

    Only defined for the non-null pair, i = 0 or 1, of spectra with at least
    two rows, and only when lambda_i is non-degenerate; the degenerate null
    subspace has no preferred basis.
    """
    if i not in (0, 1):
        raise ValueError(f"index {i} is null; only the non-null pair (0 or 1) "
                         "has a unique eigenvector")
    if min(exact.size, approx.size) < 2:
        raise ValueError(f"rank 2 exceeds dimension {min(exact.size, approx.size)}")
    lam = exact.eigenvalues
    tol = 1e-9 * max(np.abs(lam).max(), 1e-300)
    others = np.delete(np.arange(exact.size), i)
    gap = min(
        np.abs(lam[others] - lam[i]).min(),
        np.abs(np.abs(lam[others]) - np.abs(lam[i])).min(),
    )
    if gap <= tol:
        raise ValueError(f"eigenvalue {i} is degenerate to 1e-9 relative; pairing undefined")
    overlap = abs(float(np.dot(exact.vectors[i], approx.vectors[i])))
    return 1.0 - overlap
