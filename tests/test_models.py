from dataclasses import dataclass
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcl.control import ControlField
from qcl.landscape import FdConfig, fd_hessian, pointwise_stencil
from qcl.models import (ChainBatch, LzProblem, NonFiniteCost, PrefixGrowth, QhoProblem,
                        chain_stencil_cost, exact_hessian, gradient_of, hessian_of,
                        problem_from_dict, problem_to_dict, seed_bounds)
from qcl.models import (_DIRECT_STENCIL_MAX_M, _SERIES_X, _abs2, _chain_states, _check_field,
                        _direct_points, _factor_tables)
from qcl.optimizer import SeedSpec, minimize, polish, sample_seeds

from chain_oracles import (bogoliubov_pair, reference_chain_derivatives, reference_fd_hessian, reference_gradient,
                           reference_gradient_and_dz, reference_hessian,
                           reference_interval_stacks, reference_stencil_cost,
                           reference_z_and_dz)

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
        assert problem.infidelity_of(field.values) <= 1e-12

    def test_half_rabi_rotation(self):
        problem = LzProblem(gap=1.0, duration=np.pi / 2, n_pulses=1)
        field = ControlField(values=[0.0], total_time=np.pi / 2)
        prop = lz_propagate(problem, field)
        assert abs(prop.overlap) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_short_time_limit_leaves_state(self):
        problem = LzProblem(gap=1.0, duration=1e-8, n_pulses=2)
        field = ControlField(values=[3.0, -1.0], total_time=1e-8)
        assert problem.infidelity_of(field.values) == pytest.approx(1.0, abs=1e-8)

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
        alpha, beta = bogoliubov_pair(problem, np.ones(5))
        assert abs(beta) < 1e-12
        assert abs(alpha) == pytest.approx(1.0, abs=1e-12)
        assert problem.infidelity_of(np.ones(5)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_bogoliubov_normalization(self, m, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=m)
        alpha, beta = bogoliubov_pair(problem, rng.uniform(0.1, 3.0, m))
        assert abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0) <= 1e-10

    def test_excitation_is_the_cost_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for m in range(1, 49):
            problem = QhoProblem(omega_start=1.0, omega_target=1.3, duration=1.8, n_pulses=m)
            for lo, hi in ((0.1, 3.0), (-5.0, 5.0)):
                values = rng.uniform(lo, hi, m)
                assert _abs2(bogoliubov_pair(problem, values)[1]) == problem.infidelity_of(values)

    def test_matches_dense_integrator(self):
        rng = np.random.default_rng(23)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)
        values = rng.uniform(0.1, 3.0, 6)
        beta = bogoliubov_pair(problem, values)[1]
        f, fdot = dense_mode_function(1.0, 1.8, values)
        beta_oracle = (1.0 * f - 1j * fdot) / np.sqrt(2.0)
        assert abs(abs(beta) - abs(beta_oracle)) < 1e-8

    def test_asymmetric_trap_and_negative_amplitudes(self):
        problem = QhoProblem(omega_start=0.5, omega_target=2.0, duration=1.8, n_pulses=6)
        values = np.array([0.5, -1.0, 2.0, -0.3, 1.4, 0.9])
        beta = bogoliubov_pair(problem, values)[1]
        f, fdot = dense_mode_function(0.5, 1.8, values)
        beta_oracle = (2.0 * f - 1j * fdot) / np.sqrt(4.0)
        assert abs(abs(beta) - abs(beta_oracle)) < 1e-8

    def test_sign_of_amplitude_is_irrelevant(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=4)
        a = np.array([0.5, 1.5, 2.0, 0.7])
        b = a * np.array([1, -1, 1, -1])
        assert problem.infidelity_of(a) == pytest.approx(problem.infidelity_of(b), rel=1e-14)


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
        fd = fd_hessian(pointwise_stencil(problem.infidelity_of), values, FdConfig(1e-3))
        assert np.abs(exact - fd).max() <= 1e-6

    def test_hessian_is_symmetric(self):
        rng = np.random.default_rng(14)
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=7)
        h = hessian_of(problem, rng.uniform(-5, 5, 7))
        assert np.abs(h - h.T).max() <= 1e-8

    @pytest.mark.parametrize("kind", ["lz", "lz_small_gap", "qho"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 12, 48, 96])
    def test_hessian_is_exactly_symmetric_without_averaging(self, kind, m):
        problem = batch_problem(kind, m)
        lo, hi = seed_bounds(problem)
        rng = np.random.default_rng(140 + m)
        for k in range(8):
            values = rng.uniform(lo, hi, m)
            if k % 4 == 3:
                values[::2] = 0.0   # series branch in the interval factors
            h = hessian_of(problem, values)
            assert np.array_equal(h, h.T)

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
        C, S, S1, S2 = _factor_tables(w, self.DT, 0)
        assert S1 is None and S2 is None
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
            C, S = _factor_tables(w, self.DT, 0)[:2]
            ref = reference_cs_tables(w, self.DT)
            assert float(C) == float(ref[0]) and float(S) == float(ref[1])


# amplitudes mixing w = 0 and |w| dt < 1e-3 with ordinary ones: series-range
# factor entries for the trap, and for the crossing once its gap is small too
# (rho = gap^2/4 + w^2)
PARITY_PROBLEMS = [
    (LzProblem(gap=2.0, duration=1.8, n_pulses=7), [0.0, 3e-4, -2e-4, 0.7, -4.5, 0.0, 2.2]),
    (LzProblem(gap=1e-3, duration=1e-2, n_pulses=7), [0.0, 3e-4, -0.2, 0.7, -4.5, 1e-6, 2.2]),
    (QhoProblem(omega_start=1.0, omega_target=1.3, duration=1.8, n_pulses=7),
     [0.0, 3e-4, 2e-3, 0.7, 2.9, 0.0, 1.4]),
]


# amplitudes at w = 0, in the series range |w| dt < 1e-3 (for the crossing
# once its gap is small too) and ordinary ones
parity_amplitudes = st.one_of(st.just(0.0), st.floats(-3e-4, 3e-4), st.floats(-5.0, 5.0))


@st.composite
def parity_cases(draw):
    m = draw(st.integers(1, 6))
    duration = 10.0 ** draw(st.floats(-2.0, 0.5))
    if draw(st.booleans()):
        # gaps other than 2 make the constant term's coefficient gap/2 != 1
        problem = LzProblem(gap=10.0 ** draw(st.floats(-4.0, 0.7)), duration=duration,
                            n_pulses=m)
    else:
        problem = QhoProblem(omega_start=draw(st.floats(0.1, 3.0)),
                             omega_target=draw(st.floats(0.1, 3.0)), duration=duration,
                             n_pulses=m)
    return problem, np.array(draw(st.lists(parity_amplitudes, min_size=m, max_size=m)))


@dataclass(frozen=True)
class SharedSlotCrossing(LzProblem):
    def _generators(self):
        rho0, K0, Kw, _ = super()._generators()
        return rho0, K0, Kw, K0


class TestBitParity:
    @settings(max_examples=300, deadline=None)
    @given(parity_cases(), st.integers(0, 2))
    def test_drawn_interval_stacks_equal_the_complex_form(self, case, order):
        problem, values = case
        got = problem._interval_stacks(values, order)
        want = reference_interval_stacks(problem, values, order)
        for i in range(3):
            if want[i] is None:
                assert got[i] is None
            else:
                assert np.array_equal(got[i], want[i])

    def test_generators_sharing_a_slot_are_rejected(self):
        with pytest.raises(ValueError, match="share the plane slot"):
            SharedSlotCrossing(gap=1.0, duration=1.0, n_pulses=2)

    @pytest.mark.parametrize("problem,values", PARITY_PROBLEMS)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_interval_stacks_equal_the_complex_form(self, problem, values, order):
        got = problem._interval_stacks(np.array(values), order)
        want = reference_interval_stacks(problem, np.array(values), order)
        assert np.array_equal(got[0], problem._interval_stacks(np.array(values), 0)[0])
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("problem,values", PARITY_PROBLEMS)
    def test_cost_and_gradient_equal_the_complex_form(self, problem, values):
        rng = np.random.default_rng(23)
        ket, bra = problem._cost_boundary()
        lo, hi = seed_bounds(problem)
        for v in (np.array(values), rng.uniform(lo, hi, problem.n_pulses)):
            A = reference_interval_stacks(problem, v, 0)[0]
            assert problem.infidelity_of(v) == float(_abs2(bra @ _chain_states(A, ket)[-1]))
            z, zg, _ = reference_chain_derivatives(*reference_interval_stacks(problem, v), ket, bra)
            assert np.all(gradient_of(problem, v) == 2.0 * np.real(np.conj(z) * zg))

    def test_cost_boundary_is_built_once_and_read_only(self):
        for problem, _ in PARITY_PROBLEMS:
            ket, bra = problem._cost_boundary()
            assert problem._cost_boundary()[0] is ket
            with pytest.raises(ValueError, match="read-only"):
                ket[0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                bra[0] = 2.0


def batch_problem(kind, m):
    if kind == "lz":
        return LzProblem(gap=2.0, duration=1.8, n_pulses=m)
    if kind == "lz_small_gap":
        return LzProblem(gap=1e-3, duration=1e-2, n_pulses=m)
    return QhoProblem(omega_start=1.0, omega_target=1.3, duration=1.8, n_pulses=m)


class TestChainBatch:
    @pytest.mark.parametrize("kind", ["lz", "lz_small_gap", "qho"])
    @pytest.mark.parametrize("m", [1, 3, 48])
    def test_rows_equal_the_single_point_cost_and_gradient(self, kind, m):
        problem = batch_problem(kind, m)
        lo, hi = seed_bounds(problem)
        rng = np.random.default_rng(31 + m)
        points = rng.uniform(lo, hi, (6, m))
        # series-range entries in some rows only, so those rows blend the
        # series tables and the others do not, as they would alone
        points[1, ::2] = 0.0
        points[3, -1] = 3e-4
        points[4] = 1e-6
        if kind == "lz_small_gap":
            assert np.count_nonzero(problem.dt ** 2 * (2.5e-7 + points ** 2) < _SERIES_X) > 0
        batch = ChainBatch(problem, points)
        assert len(batch.costs) == len(points)
        for k, v in enumerate(points):
            assert batch.points[k].tobytes() == v.tobytes()
            assert batch.costs[k] == problem.infidelity_of(v)
            assert np.array_equal(batch.gradient_and_dz(k)[0], gradient_of(problem, v))
            assert np.array_equal(batch.gradient_and_dz(k)[0], reference_gradient(problem, v))
            grad, dz = batch.gradient_and_dz(k)
            want_grad, want_dz = reference_gradient_and_dz(problem, v)
            assert grad.tobytes() == want_grad.tobytes()
            assert dz.tobytes() == want_dz.tobytes()
            assert batch.z[k].tobytes() == reference_z_and_dz(problem, v)[0].tobytes()

    def test_a_batch_of_one_is_gradient_of(self):
        problem = batch_problem("qho", 5)
        v = np.array([0.3, 1.1, 0.0, 2.2, 1.7])
        batch = ChainBatch(problem, v[None])
        assert batch.costs == [problem.infidelity_of(v)]
        assert np.array_equal(batch.gradient_and_dz(0)[0], gradient_of(problem, v))

    def test_non_finite_rows_stay_in_their_row(self):
        problem = batch_problem("qho", 6)
        points = np.tile(np.linspace(0.5, 1.5, 6), (3, 1))
        points[1] *= 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            batch = ChainBatch(problem, points)
        assert not np.isfinite(batch.costs[1])
        assert batch.costs[0] == batch.costs[2] == problem.infidelity_of(points[0])

    def test_rejects_a_single_point(self):
        with pytest.raises(ValueError, match="stack of points"):
            ChainBatch(batch_problem("lz", 3), np.ones(3))


class TestStencilEvaluator:
    # one M on each side of the direct-evaluation range, so both stencil paths run
    @pytest.mark.parametrize("problem,lo,hi", [
        (LzProblem(gap=2.0, duration=1.8, n_pulses=_DIRECT_STENCIL_MAX_M - 1), -5.0, 5.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8,
                    n_pulses=_DIRECT_STENCIL_MAX_M - 1), 0.1, 3.0),
        (LzProblem(gap=2.0, duration=1.8, n_pulses=_DIRECT_STENCIL_MAX_M + 1), -5.0, 5.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8,
                    n_pulses=_DIRECT_STENCIL_MAX_M + 1), 0.1, 3.0),
    ])
    def test_matches_direct_cost_evaluation(self, problem, lo, hi):
        m = problem.n_pulses
        rng = np.random.default_rng(77)
        point = rng.uniform(lo, hi, m)
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
        # packed in np.triu_indices order: pair p is (i, j) with i < j
        assert pairs.shape == (m * (m - 1) // 2, 2, 2)
        for p, (i, j) in enumerate(zip(*np.triu_indices(m, 1))):
            for s in range(2):
                for t in range(2):
                    q = point.copy()
                    q[i] = p_val[i, s]
                    q[j] = p_val[j, t]
                    assert pairs[p, s, t] == pytest.approx(problem.infidelity_of(q), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["lz", "qho"]), st.integers(1, _DIRECT_STENCIL_MAX_M + 3),
           st.integers(1, 2), st.integers(0, 2**32 - 1))
    @example("lz", 1, 2, 0)
    @example("qho", 1, 1, 0)
    def test_packed_pairs_across_the_direct_range(self, kind, m, k, seed):
        # both paths against the per-point reference, M = 1 (no pairs) included:
        # bit for bit on the direct path, to rounding on the pair kernel
        problem = batch_problem(kind, m)
        lo, hi = seed_bounds(problem)
        rng = np.random.default_rng(seed)
        point = rng.uniform(lo, hi, m)
        s_idx = rng.integers(0, m, 3)
        args = (point, s_idx, rng.uniform(lo, hi, 3), rng.uniform(lo, hi, (m, k)))
        got = chain_stencil_cost(problem)(*args)
        want = pointwise_stencil(problem.infidelity_of)(*args)
        assert got[2].shape == want[2].shape == (m * (m - 1) // 2, k, k)
        if m <= _DIRECT_STENCIL_MAX_M:
            assert got[0] == want[0]
            assert same_bytes(got[1], want[1]) and same_bytes(got[2], want[2])
        else:
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert np.abs(got[1] - want[1]).max() <= 1e-12
            assert np.abs(got[2] - want[2]).max() <= 1e-12

    @pytest.mark.parametrize("problem,lo,hi", [
        (LzProblem(gap=2.0, duration=1.8, n_pulses=48), -5.0, 5.0),
        (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=48), 0.1, 3.0),
    ])
    def test_consecutive_calls_return_independent_pairs(self, problem, lo, hi):
        # every call returns fresh arrays: a later call neither overwrites nor
        # shares the memory of an earlier call's pairs
        rng = np.random.default_rng(78)
        evaluate = chain_stencil_cost(problem)
        calls = []
        for k in (2, 2, 1):
            point = rng.uniform(lo, hi, problem.n_pulses)
            p_val = point[:, None] + rng.uniform(-0.1, 0.1, (problem.n_pulses, k))
            calls.append((point, p_val, evaluate(point, [0], [point[0] + 0.1], p_val)[2]))
        for n, (point, p_val, pairs) in enumerate(calls):
            fresh = chain_stencil_cost(problem)(point, [0], [point[0] + 0.1], p_val)[2]
            assert same_bytes(pairs, fresh)
            assert not any(np.shares_memory(pairs, other) for _, _, other in calls[n + 1:])

    def test_rejects_malformed_input(self):
        # the shape checks run ahead of the choice between the two chain paths,
        # and the pointwise evaluator shares them, so neither truncates its input
        for m in (4, _DIRECT_STENCIL_MAX_M + 1):
            problem = LzProblem(gap=2.0, duration=1.8, n_pulses=m)
            point = np.ones(m)
            for evaluate in (chain_stencil_cost(problem),
                             pointwise_stencil(problem.infidelity_of)):
                for args in [
                    (point, [], [], np.ones((m - 1, 2))),        # a pair row per interval
                    (point, [], [], np.ones(m)),                 # pair values are (M, k)
                    (point[None, :], [], [], np.ones((m, 2))),   # the point is 1-D
                    (point, [0, 1], [1.0], np.ones((m, 2))),     # one value per single
                ]:
                    with pytest.raises(ValueError, match="expected a 1-D point"):
                        evaluate(*args)


@pytest.fixture(scope="module")
def navigation_solutions():
    """The first 15 converged, polished solutions of one seed stream each at
    lz M = 12 and qho M = 48, above the direct range."""
    found = []
    for problem, seed in [(LzProblem(gap=2.0, duration=1.8, n_pulses=12), 12),
                          (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8,
                                      n_pulses=48), 77)]:
        seeds = sample_seeds(SeedSpec(count=60, bounds=seed_bounds(problem), rng_seed=seed),
                             problem)
        reports = (minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds)
        points = list(islice((polish(problem, r.field, target=1e-16).field.values
                              for r in reports if r.converged), 15))
        assert len(points) == 15
        found.append((problem, points))
    return found


class TestStencilAccuracyAtSolutions:
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("offset", [1e-2, 2e-2])
    def test_costs_within_twice_the_sweep_oracles_error(self, navigation_solutions,
                                                        which, offset):
        # the navigation regime: costs of about 1e-7 next to a solution, where
        # the four-point combination cancels.  Per solution, the pair kernel's
        # largest relative error against the pointwise costs, over a call's
        # singles and pairs and over its pairs alone, as a ratio to the sweep
        # oracle's.  Rounding decides these ratios, so they are read as a
        # distribution over 15 solutions: with the Gauss-Newton finish below
        # I = 1e-2, the per-offset medians were 0.78-1.23 and the largest
        # ratio 2.78 (qho M = 48, offset 2e-2), with 2 of 15 solutions per
        # model above 2x.  The bounds, fixed from that distribution: the
        # median within 1.5x, every solution within 8x (about 3x the largest).
        # Below 3e-2 the descents land on other solutions, where the medians
        # read 0.72-1.12 and the largest 4.26 (lz M = 12, offset 2e-2)
        problem, points = navigation_solutions[which]
        m = problem.n_pulses
        assert m > _DIRECT_STENCIL_MAX_M
        evaluate, oracle = chain_stencil_cost(problem), reference_stencil_cost(problem)
        s_idx = np.repeat(np.arange(m), 2)
        # pair p, s, t of the packed arrays is (i, j) = triu_indices(m, 1)[p]
        i, j = (np.repeat(ij, 4) for ij in np.triu_indices(m, 1))
        s, t = np.tile([0, 0, 1, 1], i.size // 4), np.tile([0, 1, 0, 1], i.size // 4)

        def worst(got, exact):
            return np.max(np.abs(got - exact) / exact)

        ratios = []
        for point in points:
            s_val = (point[:, None] + np.array([offset, -offset])).ravel()
            p_val = point[:, None] + np.array([offset, -offset])
            # the pointwise costs, from ChainBatch (equal to infidelity_of bit for bit)
            singles_at = np.repeat(point[None], s_idx.size, axis=0)
            singles_at[np.arange(s_idx.size), s_idx] = s_val
            pairs_at = np.repeat(point[None], i.size, axis=0)
            pairs_at[np.arange(i.size), i] = p_val[i, s]
            pairs_at[np.arange(i.size), j] = p_val[j, t]
            want_singles = ChainBatch(problem, singles_at).costs
            want_pairs = ChainBatch(problem, pairs_at).costs
            _, singles, pairs = evaluate(point, s_idx, s_val, p_val)
            assert pairs.shape == (m * (m - 1) // 2, 2, 2)
            _, ref_singles, ref_pairs = oracle(point, s_idx, s_val, i, p_val[i, s],
                                               j, p_val[j, t])
            kernel = (worst(singles, want_singles), worst(pairs.ravel(), want_pairs))
            sweep = (worst(ref_singles, want_singles), worst(ref_pairs, want_pairs))
            ratios.append(max(max(kernel) / max(sweep), kernel[1] / sweep[1]))
        assert np.median(ratios) <= 1.5, ratios
        assert max(ratios) <= 8.0, ratios


class TestDirectStencil:
    @pytest.mark.parametrize("kind", ["lz", "lz_small_gap", "qho"])
    @pytest.mark.parametrize("m", range(1, _DIRECT_STENCIL_MAX_M + 1))
    @pytest.mark.parametrize("k", [1, 2])
    def test_every_cost_is_the_pointwise_cost(self, kind, m, k):
        problem = batch_problem(kind, m)
        lo, hi = seed_bounds(problem)
        rng = np.random.default_rng(90 + 10 * m + k)
        if kind == "lz_small_gap":   # zeroed amplitudes take the series branch
            assert problem.dt ** 2 * (0.5 * problem.gap) ** 2 < _SERIES_X
        evaluate = chain_stencil_cost(problem)
        pointwise = pointwise_stencil(problem.infidelity_of)
        for n in range(3):
            point = rng.uniform(lo, hi, m)
            s_idx = rng.integers(0, m, 2 * m)
            s_val = rng.uniform(lo, hi, 2 * m)
            p_val = rng.uniform(lo, hi, (m, k))
            if n == 2:
                point[::2] = s_val[::2] = p_val[::2] = 0.0
            got, want = evaluate(point, s_idx, s_val, p_val), pointwise(point, s_idx, s_val, p_val)
            assert got[0] == want[0]
            assert same_bytes(got[1], want[1])
            assert same_bytes(got[2], want[2])

    def test_index_tables_follow_the_singles(self):
        # consecutive calls at one (M, k) whose singles differ in order and
        # repeats each gather through their own cached index table
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=3)
        rng = np.random.default_rng(96)
        evaluate = chain_stencil_cost(problem)
        pointwise = pointwise_stencil(problem.infidelity_of)
        point = rng.uniform(-5.0, 5.0, 3)
        p_val = point[:, None] + np.array([1e-2, -1e-2])
        standard = np.repeat(np.arange(3), 2)
        for s_idx in (standard, standard[::-1], np.array([2, 2, 0, 2]), standard):
            s_val = rng.uniform(-5.0, 5.0, s_idx.size)
            got, want = evaluate(point, s_idx, s_val, p_val), pointwise(point, s_idx, s_val, p_val)
            assert got[0] == want[0]
            assert same_bytes(got[1], want[1]) and same_bytes(got[2], want[2])
        table = _direct_points(3, 2, standard.tobytes())
        assert table.shape == (1 + 6 + 3 * 4, 3)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1

    def test_overflowing_cost_raises_non_finite_cost(self):
        # a free interval between two stiff ones: every factor is finite, the
        # chain's product overflows
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=3)
        values = np.array([1e100, 0.0, 1e100])
        with np.errstate(over="ignore", invalid="ignore"):
            assert problem.infidelity_of(values) == np.inf
            with pytest.raises(NonFiniteCost):
                fd_hessian(chain_stencil_cost(problem), values, FdConfig(1e-2))

    def test_pumped_trap_has_no_growth_guard_below_the_pair_kernel(self):
        # the direct path uses no adjugates, so only the exact Hessian refuses
        # this chain (its prefix products grow to ~1.5e5)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=16.0, n_pulses=6)
        assert problem.n_pulses <= _DIRECT_STENCIL_MAX_M
        values = np.tile([0.3, 3.0], 3)
        with pytest.raises(PrefixGrowth, match="grow"):
            hessian_of(problem, values)
        got = fd_hessian(chain_stencil_cost(problem), values, FdConfig(1e-3))
        want = fd_hessian(pointwise_stencil(problem.infidelity_of), values, FdConfig(1e-3))
        assert same_bytes(got, want)


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
        per_point = pointwise_stencil(problem.infidelity_of)
        for eps in (1e-8, 1e-6, 1e-3, 1e-2, 1e-1):
            config = FdConfig(eps)
            new = max(np.abs(fd_hessian(stencil, v, config) - h).max()
                      for v, h in zip(fields, exact))
            old = max(np.abs(reference_fd_hessian(problem, v, eps) - h).max()
                      for v, h in zip(fields, exact))
            assert new <= 2.0 * old, (eps, new, old)
            if m <= 6:
                pointwise = max(np.abs(fd_hessian(per_point, v, config) - h).max()
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
            fd_hessian(chain_stencil_cost(problem), values, FdConfig(1e-3))

    def test_overflowing_factor_raises_non_finite_cost(self):
        # an amplitude of 1e300 makes its factor NaN, and a NaN growth is not
        # above the limit: the kernel must raise rather than return NaN
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)
        values = np.ones(6)
        values[2] = 1e300
        with np.errstate(all="ignore"), pytest.raises(NonFiniteCost):
            hessian_of(problem, values)

    def test_overflowing_hessian_entry_raises_non_finite_cost(self):
        # every factor and prefix product is finite at w_0 = 1e154, but a
        # second-derivative term overflows: the matrix is checked where it is built
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=3)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteCost, match="Hessian"):
            hessian_of(problem, np.array([1e154, 0.0, 0.0]))


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
        problem = QhoProblem(omega_start=0.7, omega_target=2.0, duration=1.8, n_pulses=6)
        assert problem_from_dict(problem_to_dict(problem)) == problem

    def test_schema_fields(self):
        doc = problem_to_dict(LzProblem(gap=1.0, duration=2.0, n_pulses=3))
        assert doc == {"model": "lz", "delta": 1.0, "T": 2.0, "M": 3}
        doc = problem_to_dict(QhoProblem(omega_start=1.0, omega_target=1.0,
                                         duration=1.8, n_pulses=6))
        assert set(doc) == {"model", "omega0", "omegaT", "T", "M"}

    def test_schema_defaults_and_seed_bounds(self):
        qho = problem_from_dict({"model": "qho", "T": 1.8, "M": 6})
        assert (qho.omega_start, qho.omega_target) == (1.0, 1.0)
        assert seed_bounds(qho) == (0.1, 3.0)
        assert seed_bounds(LzProblem(gap=2.0, duration=1.8, n_pulses=3)) == (-5.0, 5.0)
        with pytest.raises(ValueError, match="problem.delta"):
            problem_from_dict({"model": "lz", "T": 1.8, "M": 3})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"model": "spin-chain", "T": 1.0, "M": 2})
