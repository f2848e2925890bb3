from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.control import ControlField
from qcl.landscape import FdConfig, fd_hessian
from qcl.models import (BogoliubovPair, LzProblem, PrefixGrowth, QhoProblem,
                        chain_stencil_cost, exact_gradient, exact_hessian, gradient_of,
                        hessian_of, lz_infidelity, particle_number, problem_from_dict,
                        problem_to_dict, qho_infidelity, qho_propagate, seed_bounds)
from qcl.models import _SERIES_X, _check_field, _cs_values, _factor_tables

from chain_oracles import reference_chain_derivatives, reference_fd_hessian, reference_hessian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class LzPropagation:
    """Final unitary and transfer amplitude z = <1|U_T|0>."""

    unitary: np.ndarray
    overlap: complex

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        defect = np.abs(u.conj().T @ u - np.eye(2)).max()
        if defect > 1e-10:
            raise ValueError(f"propagator is not unitary (defect {defect:.2e})")
        if abs(self.overlap) > 1.0 + 1e-10:
            raise ValueError("transfer amplitude exceeds 1")
        object.__setattr__(self, "unitary", u)


def lz_propagate(problem: LzProblem, field: ControlField) -> LzPropagation:
    """Oracle: total propagator U_T = U_M ... U_1 from closed-form interval factors."""
    _check_field(problem, field)
    A = problem._interval_stacks(field.values, 0)[0]
    u = np.eye(2, dtype=complex)
    for t in range(A.shape[0]):
        u = A[t] @ u
    return LzPropagation(unitary=u, overlap=complex(u[1, 0]))


def dense_lz_unitary(gap, total_time, values, substeps=20000):
    """RK4 oracle on i dU/dt = H(t) U, independent of the closed-form factors."""
    m = len(values)
    u = np.eye(2, dtype=complex)
    n_per = max(1, substeps // m)
    dt = total_time / m / n_per
    for w in values:
        h = 0.5 * gap * SX + w * SZ
        rhs = lambda mat: -1j * (h @ mat)
        for _ in range(n_per):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def dense_mode_function(omega0, total_time, values, substeps=20000):
    """RK4 oracle on f'' + w(t)^2 f = 0 from the initial positive-frequency mode."""
    m = len(values)
    y = np.array([1.0 / np.sqrt(2.0 * omega0), -1j * np.sqrt(omega0 / 2.0)], dtype=complex)
    n_per = max(1, substeps // m)
    dt = total_time / m / n_per
    for w in values:
        a = np.array([[0.0, 1.0], [-w * w, 0.0]])
        rhs = lambda v: a @ v
        for _ in range(n_per):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def central_gradient(problem, values, step=1e-5):
    grad = np.zeros(len(values))
    for i in range(len(values)):
        e = np.zeros(len(values))
        e[i] = step
        grad[i] = (problem.infidelity_of(values + e) - problem.infidelity_of(values - e)) / (2 * step)
    return grad


def reference_cs_tables(w, dt):
    """C, S, S' and S'' with both branches evaluated everywhere, then selected."""
    w = np.asarray(w, dtype=float)
    x = w * dt * dt
    series = x < _SERIES_X
    safe_w = np.where(series, 1.0, w)
    theta = np.sqrt(np.where(series, 1.0, x))
    c_t = np.cos(theta)
    s_t = dt * np.sin(theta) / theta
    s1_t = (c_t * dt - s_t) / (2.0 * safe_w)
    s2_t = (-(dt * dt / 2.0) * s_t - 3.0 * s1_t) / (2.0 * safe_w)
    c_s = 1.0 - x / 2.0 + x * x / 24.0 - x**3 / 720.0
    s_s = dt * (1.0 - x / 6.0 + x * x / 120.0 - x**3 / 5040.0)
    s1_s = dt**3 * (-1.0 / 6.0 + x / 60.0 - x * x / 1680.0 + x**3 / 90720.0)
    s2_s = dt**5 * (1.0 / 60.0 - x / 840.0 + x * x / 30240.0 - x**3 / 1995840.0)
    return (np.where(series, c_s, c_t), np.where(series, s_s, s_t),
            np.where(series, s1_s, s1_t), np.where(series, s2_s, s2_t))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLzPropagation:
    def test_pi_pulse_is_sigma_x_rotation(self):
        problem = LzProblem(gap=1.0, duration=np.pi, n_pulses=1)
        field = ControlField(values=[0.0], total_time=np.pi)
        prop = lz_propagate(problem, field)
        assert np.abs(prop.unitary - (-1j) * SX).max() < 1e-12
        assert abs(prop.overlap) == pytest.approx(1.0, abs=1e-12)
        assert lz_infidelity(problem, field) <= 1e-12

    def test_half_rabi_rotation(self):
        problem = LzProblem(gap=1.0, duration=np.pi / 2, n_pulses=1)
        field = ControlField(values=[0.0], total_time=np.pi / 2)
        prop = lz_propagate(problem, field)
        assert abs(prop.overlap) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_short_time_limit_leaves_state(self):
        problem = LzProblem(gap=1.0, duration=1e-8, n_pulses=2)
        field = ControlField(values=[3.0, -1.0], total_time=1e-8)
        assert lz_infidelity(problem, field) == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_integrator(self):
        rng = np.random.default_rng(17)
        problem = LzProblem(gap=1.0, duration=1.8, n_pulses=6)
        values = rng.uniform(-5, 5, 6)
        got = lz_propagate(problem, ControlField(values=values, total_time=1.8)).unitary
        want = dense_lz_unitary(1.0, 1.8, values)
        assert np.abs(got - want).max() < 1e-8

    def test_unitarity_of_intervals_and_total(self):
        rng = np.random.default_rng(4)
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=8)
        values = rng.uniform(-5, 5, 8)
        for a in problem._interval_stacks(values, 0)[0]:
            assert np.abs(a.conj().T @ a - np.eye(2)).max() < 1e-10
        u = lz_propagate(problem, ControlField(values=values, total_time=1.8)).unitary
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10

    def test_infidelity_equals_one_minus_transfer(self):
        rng = np.random.default_rng(9)
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=5)
        values = rng.uniform(-4, 4, 5)
        prop = lz_propagate(problem, ControlField(values=values, total_time=1.8))
        direct = 1.0 - abs(prop.overlap) ** 2
        assert problem.infidelity_of(values) == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        problem = LzProblem(gap=1.0, duration=1.8, n_pulses=3)
        with pytest.raises(ValueError):
            lz_propagate(problem, ControlField(values=[1.0, 2.0], total_time=1.8))
        with pytest.raises(ValueError):
            lz_propagate(problem, ControlField(values=[1.0, 2.0, 3.0], total_time=2.0))


class TestQhoPropagation:
    def test_static_trap_creates_nothing(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=7.3, n_pulses=5)
        field = ControlField(values=np.ones(5), total_time=7.3)
        pair = qho_propagate(problem, field)
        assert abs(pair.beta) < 1e-12
        assert abs(pair.alpha) == pytest.approx(1.0, abs=1e-12)
        assert qho_infidelity(problem, field) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_bogoliubov_normalization(self, m, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=m)
        pair = qho_propagate(problem, ControlField(values=rng.uniform(0.1, 3.0, m),
                                                   total_time=1.8))
        assert abs(abs(pair.alpha) ** 2 - abs(pair.beta) ** 2 - 1.0) <= 1e-10

    def test_matches_dense_integrator(self):
        rng = np.random.default_rng(23)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)
        values = rng.uniform(0.1, 3.0, 6)
        pair = qho_propagate(problem, ControlField(values=values, total_time=1.8))
        f, fdot = dense_mode_function(1.0, 1.8, values)
        beta_oracle = (1.0 * f - 1j * fdot) / np.sqrt(2.0)
        assert abs(abs(pair.beta) - abs(beta_oracle)) < 1e-8

    def test_asymmetric_trap_and_negative_amplitudes(self):
        problem = QhoProblem(omega_start=0.5, omega_target=2.0, duration=1.8, n_pulses=6)
        values = np.array([0.5, -1.0, 2.0, -0.3, 1.4, 0.9])
        pair = qho_propagate(problem, ControlField(values=values, total_time=1.8))
        f, fdot = dense_mode_function(0.5, 1.8, values)
        beta_oracle = (2.0 * f - 1j * fdot) / np.sqrt(4.0)
        assert abs(abs(pair.beta) - abs(beta_oracle)) < 1e-8

    def test_sign_of_amplitude_is_irrelevant(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=4)
        a = np.array([0.5, 1.5, 2.0, 0.7])
        b = a * np.array([1, -1, 1, -1])
        assert problem.infidelity_of(a) == pytest.approx(problem.infidelity_of(b), rel=1e-14)


class TestParticleNumber:
    def test_no_excitation_preserves_population(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=2.0,
                             n_pulses=3, n_initial=5.0)
        field = ControlField(values=np.ones(3), total_time=2.0)
        assert particle_number(problem, field) == pytest.approx(5.0, abs=1e-10)

    def test_vacuum_excitation(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8,
                             n_pulses=4, n_initial=0.0)
        field = ControlField(values=[2.0, 0.3, 1.7, 0.9], total_time=1.8)
        assert particle_number(problem, field) == pytest.approx(
            qho_infidelity(problem, field), rel=1e-12)

    def test_formula_with_oracle_excitation(self):
        rng = np.random.default_rng(6)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8,
                             n_pulses=6, n_initial=1.0)
        values = rng.uniform(0.1, 3.0, 6)
        field = ControlField(values=values, total_time=1.8)
        f, fdot = dense_mode_function(1.0, 1.8, values)
        b2 = abs((f - 1j * fdot) / np.sqrt(2.0)) ** 2
        assert particle_number(problem, field) == pytest.approx(1.0 * (1 + 2 * b2) + b2,
                                                                abs=1e-7)


class TestDerivatives:
    @pytest.mark.parametrize("problem,lo,hi", [
        (LzProblem(gap=2.0, duration=1.8, n_pulses=6), -5.0, 5.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6), 0.1, 3.0),
    ])
    def test_gradient_matches_central_differences(self, problem, lo, hi):
        rng = np.random.default_rng(12)
        for _ in range(10):
            values = rng.uniform(lo, hi, problem.n_pulses)
            grad = gradient_of(problem, values)
            want = central_gradient(problem, values)
            assert np.linalg.norm(grad - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("problem,lo,hi", [
        (LzProblem(gap=2.0, duration=1.8, n_pulses=4), -5.0, 5.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=4), 0.1, 3.0),
    ])
    def test_hessian_matches_fd(self, problem, lo, hi):
        rng = np.random.default_rng(13)
        values = rng.uniform(lo, hi, problem.n_pulses)
        exact = hessian_of(problem, values)
        fd = fd_hessian(problem.infidelity_of, values, FdConfig(1e-3))
        assert np.abs(exact - fd).max() <= 1e-6

    def test_hessian_is_symmetric(self):
        rng = np.random.default_rng(14)
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=7)
        h = hessian_of(problem, rng.uniform(-5, 5, 7))
        assert np.abs(h - h.T).max() <= 1e-8

    def test_gradient_vanishes_at_optimum(self):
        # static trap is an exact solution of the trap problem
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=5)
        grad = gradient_of(problem, np.ones(5))
        assert np.linalg.norm(grad) < 1e-5

    def test_near_zero_amplitude_series_branch(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)
        for tiny in (0.0, 1e-9, 1e-6, 1e-4, 1e-3):
            values = np.array([tiny, 0.5, 1.0, 2.0, -tiny, 0.9])
            grad = gradient_of(problem, values)
            want = central_gradient(problem, values, step=1e-6)
            assert np.linalg.norm(grad - want) <= 1e-6 * max(np.linalg.norm(want), 1e-12)

    @pytest.mark.parametrize("problem,lo,hi", [
        (LzProblem(gap=2.0, duration=1.4 * np.pi / 2, n_pulses=3), -5.0, 5.0),
        (LzProblem(gap=2.0, duration=1.8, n_pulses=48), -5.0, 5.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6), 0.1, 3.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=48), 0.1, 3.0),
    ])
    def test_gradient_equals_the_hessian_pass_gradient(self, problem, lo, hi):
        # gradient_of skips the second derivatives, but must give the gradient
        # of the full value/gradient/Hessian sweep pass (the oracle) bit for bit
        rng = np.random.default_rng(16)
        ket, bra = problem._cost_boundary()
        for k in range(6):
            values = rng.uniform(lo, hi, problem.n_pulses)
            if k % 2:
                values[::3] = 0.0   # series branch in the interval factors
            z, zg, _ = reference_chain_derivatives(*problem._interval_stacks(values), ket, bra)
            assert same_bytes(gradient_of(problem, values), 2.0 * np.real(np.conj(z) * zg))

    def test_exact_field_api_matches_raw_api(self):
        rng = np.random.default_rng(15)
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=5)
        values = rng.uniform(-3, 3, 5)
        field = ControlField(values=values, total_time=1.8)
        assert np.array_equal(exact_gradient(problem, field), gradient_of(problem, values))
        assert np.array_equal(exact_hessian(problem, field), hessian_of(problem, values))


class TestIntervalFactors:
    DT = 0.3

    @pytest.mark.parametrize("x", [
        [0.0],
        [0.0, 0.5 * _SERIES_X, _SERIES_X * (1 - 1e-12), _SERIES_X, 2.0 * _SERIES_X, 0.7, 9.0],
        [_SERIES_X * 0.99, 1e-12, 0.0],
        [_SERIES_X * 1.01, 1e-3, 1.0, 30.0],
    ])
    def test_value_only_factors_equal_the_tables(self, x):
        # inputs on both sides of the series switch, all-series and no-series
        w = np.asarray(x) / (self.DT * self.DT)
        ref = reference_cs_tables(w, self.DT)
        C, S = _cs_values(w, self.DT)
        assert same_bytes(C, ref[0]) and same_bytes(S, ref[1])
        tables = _factor_tables(w, self.DT, 2)
        for got, want in zip(tables, ref):
            assert same_bytes(got, want)
        C, S, S1, S2 = _factor_tables(w, self.DT, 1)
        assert S2 is None
        for got, want in zip((C, S, S1), ref):
            assert same_bytes(got, want)

    def test_scalar_input(self):
        for w in (0.0, 1e-9, 2.5):
            C, S = _cs_values(w, self.DT)
            ref = reference_cs_tables(w, self.DT)
            assert float(C) == float(ref[0]) and float(S) == float(ref[1])


class TestStencilEvaluator:
    @pytest.mark.parametrize("problem,lo,hi", [
        (LzProblem(gap=2.0, duration=1.8, n_pulses=5), -5.0, 5.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=5), 0.1, 3.0),
    ])
    def test_matches_direct_cost_evaluation(self, problem, lo, hi):
        rng = np.random.default_rng(77)
        point = rng.uniform(lo, hi, 5)
        evaluate = chain_stencil_cost(problem)
        s_idx = np.array([0, 2, 4])
        s_val = np.array([point[0] + 0.3, point[2] - 0.2, point[4] + 1.0])
        p_val = point[:, None] + np.array([0.1, -0.4])
        center, singles, pairs = evaluate(point, s_idx, s_val, p_val)
        assert center == pytest.approx(problem.infidelity_of(point), abs=1e-13)
        for k in range(3):
            q = point.copy()
            q[s_idx[k]] = s_val[k]
            assert singles[k] == pytest.approx(problem.infidelity_of(q), abs=1e-12)
        assert pairs.shape == (5, 2, 5, 2)
        for i in range(5):
            for j in range(5):
                for s in range(2):
                    for t in range(2):
                        if i >= j:
                            assert np.isnan(pairs[i, s, j, t])
                            continue
                        q = point.copy()
                        q[i] = p_val[i, s]
                        q[j] = p_val[j, t]
                        assert pairs[i, s, j, t] == pytest.approx(problem.infidelity_of(q),
                                                                  abs=1e-12)

    def test_rejects_malformed_input(self):
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=4)
        evaluate = chain_stencil_cost(problem)
        point = np.ones(4)
        for args in [
            (point, [], [], np.ones((3, 2))),            # a pair row per interval
            (point, [], [], np.ones(4)),                 # pair values are (M, k)
            (point[None, :], [], [], np.ones((4, 2))),   # the point is 1-D
            (point, [0, 1], [1.0], np.ones((4, 2))),     # one value per single
        ]:
            with pytest.raises(ValueError, match="expected"):
                evaluate(*args)


TRAPS_AND_CROSSINGS = [
    (lambda m: LzProblem(gap=2.0, duration=1.8, n_pulses=m), -5.0, 5.0),
    (lambda m: QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=m),
     0.1, 3.0),
]


class TestPairKernel:
    @pytest.mark.parametrize("make,lo,hi", TRAPS_AND_CROSSINGS)
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 48, 96])
    def test_exact_hessian_matches_the_sweep_oracle(self, make, lo, hi, m):
        problem = make(m)
        rng = np.random.default_rng(400 + m)
        for k in range(4):
            values = rng.uniform(lo, hi, m)
            if k == 3:
                values[::2] = 0.0   # series branch in the interval factors
            want = reference_hessian(problem, values)
            got = hessian_of(problem, values)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("make,lo,hi", TRAPS_AND_CROSSINGS)
    @pytest.mark.parametrize("m", [2, 6, 48])
    def test_fd_error_at_most_twice_the_old_stencils(self, make, lo, hi, m):
        # error = largest entrywise distance to the exact Hessian over a set
        # of fields; the small-eps end is rounding and feeds the fd-error curves
        problem = make(m)
        rng = np.random.default_rng(500 + m)
        fields = [rng.uniform(lo, hi, m) for _ in range(8)]
        exact = [reference_hessian(problem, v) for v in fields]
        stencil = chain_stencil_cost(problem)
        for eps in (1e-8, 1e-6, 1e-3, 1e-2, 1e-1):
            config = FdConfig(eps)
            new = max(np.abs(fd_hessian(problem.infidelity_of, v, config,
                                        stencil_cost=stencil) - h).max()
                      for v, h in zip(fields, exact))
            old = max(np.abs(reference_fd_hessian(problem, v, eps) - h).max()
                      for v, h in zip(fields, exact))
            assert new <= 2.0 * old, (eps, new, old)
            if m <= 6:
                pointwise = max(np.abs(fd_hessian(problem.infidelity_of, v, config) - h).max()
                                for v, h in zip(fields, exact))
                assert new <= 2.0 * pointwise, (eps, new, pointwise)

    def test_interval_factors_have_unit_determinant(self):
        # the kernel's premise: adj(P) = P^-1 for every prefix product
        rng = np.random.default_rng(41)
        tiny = [0.0, 1e-9, -1e-7, 1e-5]
        for problem, lo, hi in [
            (LzProblem(gap=2.0, duration=1.8, n_pulses=6), -5.0, 5.0),
            (LzProblem(gap=1e-3, duration=1e-2, n_pulses=4), -5.0, 5.0),
            (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6), 0.1, 3.0),
        ]:
            values = np.concatenate([rng.uniform(lo, hi, 400), tiny])
            A = problem._interval_stacks(values, 0)[0]
            det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
            assert np.abs(det - 1.0).max() <= 1e-13

    def test_pumped_trap_raises_instead_of_returning_a_hessian(self):
        # parametric pumping grows the prefix products to ~1e13: the adjugate
        # inverses would turn the pair terms into rounding noise
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=30.0, n_pulses=96)
        values = np.tile([0.3, 0.3, 3.0, 3.0], 24)
        with pytest.raises(PrefixGrowth, match="grow"):
            hessian_of(problem, values)
        with pytest.raises(PrefixGrowth, match="grow"):
            fd_hessian(problem.infidelity_of, values, FdConfig(1e-3),
                       stencil_cost=chain_stencil_cost(problem))


class TestInvariants:
    def test_time_slicing_refinement(self):
        rng = np.random.default_rng(19)
        for make in (lambda m: LzProblem(gap=2.0, duration=1.8, n_pulses=m),
                     lambda m: QhoProblem(omega_start=1.0, omega_target=1.0,
                                          duration=1.8, n_pulses=m)):
            coarse = make(5)
            fine = make(10)
            values = rng.uniform(0.2, 3.0, 5)
            split = np.repeat(values, 2)
            a = coarse.infidelity_of(values)
            b = fine.infidelity_of(split)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_bogoliubov_type_guards_normalization(self):
        with pytest.raises(ValueError):
            BogoliubovPair(alpha=1.0 + 0j, beta=1.0 + 0j)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            LzProblem(gap=0.0, duration=1.0, n_pulses=2)
        with pytest.raises(ValueError):
            LzProblem(gap=1.0, duration=-1.0, n_pulses=2)
        with pytest.raises(ValueError):
            QhoProblem(omega_start=0.0, omega_target=1.0, duration=1.0, n_pulses=2)
        with pytest.raises(ValueError):
            QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.0, n_pulses=0)


class TestSerialization:
    def test_round_trip_lz(self):
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=6)
        assert problem_from_dict(problem_to_dict(problem)) == problem

    def test_round_trip_qho(self):
        problem = QhoProblem(omega_start=0.7, omega_target=2.0, duration=1.8,
                             n_pulses=6, n_initial=1.5)
        assert problem_from_dict(problem_to_dict(problem)) == problem

    def test_schema_fields(self):
        doc = problem_to_dict(LzProblem(gap=1.0, duration=2.0, n_pulses=3))
        assert doc == {"model": "lz", "delta": 1.0, "T": 2.0, "M": 3}
        doc = problem_to_dict(QhoProblem(omega_start=1.0, omega_target=1.0,
                                         duration=1.8, n_pulses=6))
        assert set(doc) == {"model", "omega0", "omegaT", "N0", "T", "M"}

    def test_schema_defaults_and_seed_bounds(self):
        qho = problem_from_dict({"model": "qho", "T": 1.8, "M": 6})
        assert (qho.omega_start, qho.omega_target, qho.n_initial) == (1.0, 1.0, 0.0)
        assert seed_bounds(qho) == (0.1, 3.0)
        assert seed_bounds(LzProblem(gap=2.0, duration=1.8, n_pulses=3)) == (-5.0, 5.0)
        with pytest.raises(KeyError):
            problem_from_dict({"model": "lz", "T": 1.8, "M": 3})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"model": "spin-chain", "T": 1.0, "M": 2})
