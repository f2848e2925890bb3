"""Oracles for the chain kernel: the complex-form interval factors and the
sequential sweeps the prefix-product kernel in qcl.models replaced.

`chain_sweep` and `reference_z_and_dz` are the one-point sweep and
z-gradient that `qcl.models.ChainBatch` batches; its rows must equal them
bit for bit.

`reference_interval_stacks` builds every factor entry as a complex
expression, as qcl.models did before it wrote the real and imaginary planes
separately; the planes must equal it bit for bit.
`reference_chain_derivatives` advances every first-derivative insertion one
interval at a time (the W sweep); `reference_stencil_cost` builds the O(M^2)
table of in-between products A_{j-1} ... A_{i+1} and evaluates each stencil
point with its own replaced factors.  Neither uses the det-1 identity, so
neither shares the kernel's rounding amplification.

`bogoliubov_pair` projects the trap's propagated mode function onto both
final-trap modes; its beta is the cost's chain amplitude, so |beta|^2 must
equal the cost bit for bit and |alpha|^2 - |beta|^2 must be 1.
"""

import numpy as np

from qcl.models import LzProblem, _chain_states, _factor_tables


def chain_sweep(A, ket, bra):
    """Prefix states kets[t] = A_{t-1} ... A_0 ket and suffix functionals
    bras[t] = bra A_{M-1} ... A_t, for t = 0 .. M."""
    kets = [ket]
    for a in A:
        kets.append(a @ kets[-1])
    bras = [bra]
    for a in A[::-1]:
        bras.append(bras[-1] @ a)
    return np.array(kets), np.array(bras[::-1])


def reference_z_and_dz(problem, values):
    """(z, dz/dw) from one sequential sweep of one point."""
    ket, bra = problem._cost_boundary()
    A, A1, _ = problem._interval_stacks(values, 1)
    m = A.shape[0]
    kets, bras = chain_sweep(A, ket, bra)
    return bras[m] @ kets[m], np.einsum("ja,jab,jb->j", bras[1:], A1, kets[:m])


def reference_gradient_and_dz(problem, values):
    """(dI/dw, dz/dw) from `reference_z_and_dz`, where dI/dw_j = 2 Re(conj(z) dz/dw_j)."""
    z, zg = reference_z_and_dz(problem, values)
    return 2.0 * np.real(np.conj(z) * zg), zg


def reference_gradient(problem, values):
    """dI/dw from `reference_gradient_and_dz`."""
    return reference_gradient_and_dz(problem, values)[0]


def bogoliubov_pair(problem, values):
    """(alpha, beta) of a QhoProblem: the final mode function, from the production
    factors and `_chain_states`, projected on the final trap's two modes."""
    ket, bra_beta = problem._cost_boundary()
    v = _chain_states(problem._interval_stacks(values, 0)[0], ket)[-1]
    wt = problem.omega_target
    bra_alpha = np.array([wt, 1j], dtype=complex) / np.sqrt(2.0 * wt)
    return complex(bra_alpha @ v), complex(bra_beta @ v)


def reference_interval_stacks(problem, values, order=2):
    """(A, A1, A2) of `problem._interval_stacks`, each entry one complex expression."""
    v = np.asarray(values, dtype=float)
    dt = problem.dt
    A = np.empty(v.shape + (2, 2), dtype=complex)
    A1 = A2 = None
    if isinstance(problem, LzProblem):
        half_gap = 0.5 * problem.gap
        C, S, S1, S2 = _factor_tables(half_gap * half_gap + v * v, dt, order)
        A[..., 0, 0] = C - 1j * S * v
        A[..., 0, 1] = A[..., 1, 0] = -1j * half_gap * S
        A[..., 1, 1] = C + 1j * S * v
        if order >= 1:
            C1 = -0.5 * dt * S
            A1 = np.empty_like(A)
            A1[..., 0, 0] = 2.0 * v * (C1 - 1j * S1 * v) - 1j * S
            A1[..., 0, 1] = A1[..., 1, 0] = -2j * half_gap * v * S1
            A1[..., 1, 1] = 2.0 * v * (C1 + 1j * S1 * v) + 1j * S
        if order >= 2:
            C2 = -0.5 * dt * S1
            v2 = v * v
            A2 = np.empty_like(A)
            A2[..., 0, 0] = (2.0 * (C1 - 1j * S1 * v) + 4.0 * v2 * (C2 - 1j * S2 * v)
                             - 4j * v * S1)
            A2[..., 0, 1] = A2[..., 1, 0] = -1j * half_gap * (2.0 * S1 + 4.0 * v2 * S2)
            A2[..., 1, 1] = (2.0 * (C1 + 1j * S1 * v) + 4.0 * v2 * (C2 + 1j * S2 * v)
                             + 4j * v * S1)
    else:
        w = v * v
        C, S, S1, S2 = _factor_tables(w, dt, order)
        A[..., 0, 0] = A[..., 1, 1] = C
        A[..., 0, 1] = S
        A[..., 1, 0] = -w * S
        if order >= 1:
            C1 = -0.5 * dt * S
            Aw = np.empty_like(A)
            Aw[..., 0, 0] = Aw[..., 1, 1] = C1
            Aw[..., 0, 1] = S1
            Aw[..., 1, 0] = -S - w * S1
            A1 = 2.0 * v[..., None, None] * Aw
        if order >= 2:
            C2 = -0.5 * dt * S1
            Aww = np.empty_like(A)
            Aww[..., 0, 0] = Aww[..., 1, 1] = C2
            Aww[..., 0, 1] = S2
            Aww[..., 1, 0] = -2.0 * S1 - w * S2
            A2 = 2.0 * Aw + 4.0 * w[..., None, None] * Aww
    return A, A1, A2


def reference_chain_derivatives(A, A1, A2, ket, bra):
    """Value, gradient and Hessian of z = bra . (A_{M-1} ... A_0) . ket (W sweep)."""
    m = A.shape[0]
    kets, bras = chain_sweep(A, ket, bra)
    z = bras[m] @ kets[m]
    zg = np.einsum("ja,jab,jb->j", bras[1:], A1, kets[:m])
    zh = np.zeros((m, m), dtype=complex)
    zh[np.diag_indices(m)] = np.einsum("ja,jab,jb->j", bras[1:], A2, kets[:m])
    # W[i] carries A_{j-1} ... A_{i+1} A1_i kets[i], advanced one interval per j
    W = np.zeros((m, 2), dtype=complex)
    for j in range(m):
        if j > 0:
            u = bras[j + 1] @ A1[j]
            zh[:j, j] = W[:j] @ u
            W[:j] = W[:j] @ A[j].T
        W[j] = A1[j] @ kets[j]
    zh = zh + np.triu(zh, 1).T
    return z, zg, zh


def reference_hessian(problem, values):
    """d2I/dw_i dw_j from `reference_chain_derivatives`."""
    ket, bra = problem._cost_boundary()
    z, zg, zh = reference_chain_derivatives(*problem._interval_stacks(values), ket, bra)
    h = 2.0 * (np.real(np.conj(z) * zh) + np.real(np.outer(np.conj(zg), zg)))
    return 0.5 * (h + h.T)


def reference_stencil_cost(problem):
    """evaluate(point, singles_idx, singles_val, pairs_i, pairs_vi, pairs_j, pairs_vj)
    -> (center, singles, pairs), one cost per listed point; pairs need i < j."""

    def factors(values):
        return problem._interval_stacks(np.asarray(values, dtype=float), 0)[0]

    def evaluate(point, singles_idx, singles_val, pairs_i, pairs_vi, pairs_j, pairs_vj):
        point = np.asarray(point, dtype=float)
        m = point.size
        ket, bra = problem._cost_boundary()
        A = factors(point)
        kets, bras = chain_sweep(A, ket, bra)
        center = abs(bras[m] @ kets[m]) ** 2

        singles_idx = np.asarray(singles_idx, dtype=int)
        w = np.einsum("qab,qb->qa", factors(singles_val), kets[singles_idx])
        singles = np.abs(np.einsum("qa,qa->q", bras[singles_idx + 1], w)) ** 2

        pairs_i = np.asarray(pairs_i, dtype=int)
        pairs_j = np.asarray(pairs_j, dtype=int)
        if np.any(pairs_i >= pairs_j):
            raise ValueError("pair indices must satisfy i < j")
        # mid[i, j] = A_{j-1} ... A_{i+1} (identity when j == i + 1)
        mid = np.zeros((m, m, 2, 2), dtype=complex)
        idx = np.arange(m - 1)
        mid[idx, idx + 1] = np.eye(2)
        for j in range(2, m):
            mid[: j - 1, j] = np.matmul(A[j - 1], mid[: j - 1, j - 1])
        w = np.einsum("qab,qb->qa", factors(pairs_vi), kets[pairs_i])
        w = np.einsum("qab,qb->qa", mid[pairs_i, pairs_j], w)
        w = np.einsum("qab,qb->qa", factors(pairs_vj), w)
        pairs = np.abs(np.einsum("qa,qa->q", bras[pairs_j + 1], w)) ** 2
        return float(center), singles, pairs

    return evaluate


def reference_fd_hessian(problem, point, eps):
    """Four-point FD Hessian from `reference_stencil_cost` with per-point pair lists."""
    point = np.asarray(point, dtype=float)
    m = point.size
    inv = 1.0 / (4.0 * eps * eps)
    h = np.empty((m, m))
    s_idx = np.repeat(np.arange(m), 2)
    s_val = np.empty(2 * m)
    s_val[0::2] = point + 2.0 * eps
    s_val[1::2] = point - 2.0 * eps
    iu, ju = np.triu_indices(m, k=1)
    p_i = np.repeat(iu, 4)
    p_j = np.repeat(ju, 4)
    signs = np.tile(np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float),
                    (iu.size, 1))
    center, singles, pairs = reference_stencil_cost(problem)(
        point, s_idx, s_val, p_i, point[p_i] + eps * signs[:, 0],
        p_j, point[p_j] + eps * signs[:, 1])
    h[np.diag_indices(m)] = (singles[0::2] - 2.0 * center + singles[1::2]) * inv
    quads = pairs.reshape(-1, 4)
    hoff = (quads[:, 0] - quads[:, 1] - quads[:, 2] + quads[:, 3]) * inv
    h[iu, ju] = hoff
    h[ju, iu] = hoff
    return 0.5 * (h + h.T)
