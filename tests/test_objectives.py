import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.control import ControlField, FrequencySpec
from qcl.landscape import eig_sym
from qcl.models import QhoProblem
from qcl.navigation import project
from qcl.objectives import FourierObjective, compress
from qcl.optimizer import SeedSpec, minimize, polish, sample_seeds


def brute_excluded_power(values, kept):
    """Direct double-loop DFT power summed over non-kept indices."""
    m = len(values)
    total = 0.0
    for k in range(m):
        if k in kept:
            continue
        acc = 0j
        for n in range(m):
            acc += values[n] * cmath.exp(-2j * cmath.pi * k * n / m)
        total += abs(acc) ** 2
    return total


class TestPenaltyMatrix:
    def test_symmetric_and_psd(self):
        obj = FourierObjective(FrequencySpec.closure([1, 2], 12))
        q = obj.penalty_matrix
        assert np.abs(q - q.T).max() == 0.0
        assert np.linalg.eigvalsh(q).min() > -1e-10

    def test_penalty_matrix_is_the_factor_gram_matrix(self):
        # G stacks the cos and sin rows of every excluded k; Q = G^T G and
        # C = ||G w||^2, so C is a sum of squares
        m = 12
        spec = FrequencySpec.closure([1, 2], m)
        obj = FourierObjective(spec)
        g = obj.factor
        k = np.asarray(spec.excluded, dtype=float)[:, None]
        n = np.arange(m)[None, :]
        assert g.shape == (2 * len(spec.excluded), m)
        assert np.abs(g[:len(k)] - np.cos(2 * np.pi * k * n / m)).max() <= 1e-15
        assert np.abs(g[len(k):] - np.sin(2 * np.pi * k * n / m)).max() <= 1e-15
        assert np.array_equal(obj.penalty_matrix, g.T @ g)
        values = np.random.default_rng(1).normal(size=m)
        assert obj.cost_of(values) == float(np.sum((g @ values) ** 2))

    def test_keeping_everything_zeroes_the_penalty(self):
        obj = FourierObjective(FrequencySpec.closure(range(6), 6))
        assert np.abs(obj.penalty_matrix).max() == 0.0
        assert obj.cost_of(np.random.default_rng(0).normal(size=6)) == 0.0


class TestFourierCost:
    def test_three_evaluations_agree(self):
        rng = np.random.default_rng(81)
        values = rng.uniform(-5, 5, 8)
        obj = FourierObjective(FrequencySpec.closure([1, 2], 8))
        matrix_path = obj.cost_of(values)
        oracle = brute_excluded_power(values, obj.spec.kept)
        assert matrix_path == pytest.approx(oracle, abs=1e-10 * max(1, oracle))

    def test_constant_field_costs_nothing(self):
        obj = FourierObjective(FrequencySpec.closure([1], 10))
        assert obj.cost_of(np.full(10, 3.3)) == pytest.approx(0.0, abs=1e-9)

    def test_single_frequency_signal_costs_nothing(self):
        m = 16
        n = np.arange(m)
        obj = FourierObjective(FrequencySpec.closure([1], m))
        assert obj.cost_of(np.cos(2 * np.pi * n / m)) == pytest.approx(0.0, abs=1e-9)

    def test_mirror_relabeling_invariance(self):
        rng = np.random.default_rng(82)
        values = rng.uniform(-2, 2, 12)
        a = FourierObjective(FrequencySpec.closure([1, 2], 12))
        b = FourierObjective(FrequencySpec.closure([11, 10], 12))
        assert a.cost_of(values) == pytest.approx(b.cost_of(values), rel=1e-12)

    def test_dimension_mismatch(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.0, n_pulses=4)
        field = ControlField(values=np.ones(4), total_time=1.0)
        obj = FourierObjective(FrequencySpec.closure([1], 8))
        with pytest.raises(ValueError, match="objective expects 8"):
            compress(problem, field, obj, h=0.01, steps=1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=32), st.integers())
    def test_cost_is_nonnegative(self, m, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        obj = FourierObjective(FrequencySpec.closure([1], m))
        assert obj.cost_of(rng.uniform(-5, 5, m)) >= -1e-9


class TestFourierGradient:
    def test_zero_gradient_at_zero_cost(self):
        obj = FourierObjective(FrequencySpec.closure([1], 8))
        assert np.abs(obj.gradient_of(np.full(8, 2.0))).max() < 1e-8

    def test_matches_central_differences(self):
        rng = np.random.default_rng(83)
        values = rng.uniform(-3, 3, 10)
        obj = FourierObjective(FrequencySpec.closure([1, 3], 10))
        grad = obj.gradient_of(values)
        step = 1e-6
        want = np.zeros(10)
        for i in range(10):
            e = np.zeros(10)
            e[i] = step
            want[i] = (obj.cost_of(values + e) - obj.cost_of(values - e)) / (2 * step)
        assert np.linalg.norm(grad - want) <= 1e-8 * np.linalg.norm(want)

    def test_projected_gradient_is_a_descent_direction(self):
        rng = np.random.default_rng(84)
        obj = FourierObjective(FrequencySpec.closure([1], 6))
        a = rng.normal(size=(6, 6))
        spectrum = eig_sym(a + a.T)
        for _ in range(20):
            grad = obj.gradient_of(rng.uniform(-4, 4, 6))
            assert project(grad, spectrum) @ grad >= -1e-12


@pytest.fixture(scope="module")
def qho_m8_solution():
    problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=8)
    seeds = sample_seeds(SeedSpec(count=10, bounds=(0.1, 3.0), rng_seed=85), problem)
    for s in seeds:
        rep = minimize(problem, s, tol=1e-6, max_iter=2000)
        if rep.converged:
            return problem, polish(problem, rep.field).field
    raise RuntimeError("no solution found")


class TestCompress:
    def test_descends_monotonically_and_keeps_fidelity(self, qho_m8_solution):
        problem, start = qho_m8_solution
        obj = FourierObjective(FrequencySpec.closure([1], 8))
        c0 = obj.cost_of(start.values)
        traj = compress(problem, start, obj, h=0.02, steps=150, hessian_mode="exact")
        assert not traj.failed
        costs = traj.secondary_costs()
        assert np.all(np.isfinite(costs))
        assert np.diff(costs).max() <= 1e-12 * max(1.0, c0)
        assert costs[-1] < c0
        assert traj.infidelities().max() < 1e-7

    def test_stationary_at_zero_cost(self):
        # the static trap solution is already a single-frequency protocol
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=8)
        start = ControlField(values=np.ones(8), total_time=1.8)
        obj = FourierObjective(FrequencySpec.closure([1], 8))
        traj = compress(problem, start, obj, h=0.02, steps=10, hessian_mode="exact")
        assert np.abs(traj.values_matrix() - start.values).max() < 1e-10
        assert traj.secondary_costs().max() < 1e-12

    def test_records_secondary_cost(self, qho_m8_solution):
        problem, start = qho_m8_solution
        obj = FourierObjective(FrequencySpec.closure([1], 8))
        traj = compress(problem, start, obj, h=0.02, steps=5, hessian_mode="exact")
        assert traj.samples[0].secondary == pytest.approx(obj.cost_of(start.values))
        assert all(s.secondary is not None for s in traj.samples)

    def test_dimension_mismatch(self, qho_m8_solution):
        problem, start = qho_m8_solution
        obj = FourierObjective(FrequencySpec.closure([1], 6))
        with pytest.raises(ValueError):
            compress(problem, start, obj, h=0.02, steps=5)

    def test_cost_stays_nonnegative_at_rounding_level(self):
        # 40 exact steps of the trap M=48 compression drive C from 1.4e3 to
        # rounding level, where the quadratic form w^T Q w can come out
        # negative (about -1e-11 here); ||G w||^2 cannot
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=48)
        seeds = sample_seeds(SeedSpec(count=20, bounds=(0.1, 3.0), rng_seed=77), problem)
        rep = next(r for r in (minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds)
                   if r.converged)
        start = polish(problem, rep.field, target=1e-16).field
        obj = FourierObjective(FrequencySpec.closure([1, 2], 48))
        traj = compress(problem, start, obj, h=0.005, steps=40, hessian_mode="exact")
        costs = traj.secondary_costs()
        assert not traj.failed and costs[0] > 1e3
        assert costs[-1] < 1e-9 * costs[0]
        assert costs.min() >= 0.0
