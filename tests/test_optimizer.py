import numpy as np
import pytest

from qcl.control import ControlField
from qcl.landscape import classify_null, eig_sym
from qcl.models import LzProblem, QhoProblem, hessian_of
from qcl.optimizer import (STOP_CODES, OptimizationReport, SeedSpec, minimize, polish,
                           sample_seeds)

from chain_oracles import reference_chain_derivatives

LZ3 = LzProblem(gap=2.0, duration=1.4 * np.pi / 2, n_pulses=3)
QHO6 = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)


def full_derivative_gradient(problem, values):
    """dI/dw through the oracle's value/gradient/Hessian sweep, Hessian discarded."""
    ket, bra = problem._cost_boundary()
    z, zg, _ = reference_chain_derivatives(*problem._interval_stacks(values), ket, bra)
    return 2.0 * np.real(np.conj(z) * zg)


def reference_descent(problem, seed, tol, max_iter):
    """Armijo descent without a stagnation exit, gradient from the Hessian pass.

    Returns (values, cost, iterations, converged) as minimize computed them
    before it learnt to stop stalled seeds.
    """
    values = seed.values.copy()
    cost = problem.infidelity_of(values)
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if cost < tol:
            iterations -= 1
            break
        grad = full_derivative_gradient(problem, values)
        slope = float(grad @ grad)
        if np.sqrt(slope) < 1e-10:
            iterations -= 1
            break
        t = min(step * 2.0, 1e6)
        accepted = False
        while t > 1e-18:
            trial = values - t * grad
            trial_cost = problem.infidelity_of(trial)
            if trial_cost <= cost - 1e-4 * t * slope:
                values, cost, step = trial, trial_cost, t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return values, cost, iterations, bool(cost < tol)


class TestSampleSeeds:
    def test_degenerate_bounds_give_constant_field(self):
        fields = sample_seeds(SeedSpec(count=1, bounds=(0.0, 0.0), rng_seed=1), LZ3)
        assert len(fields) == 1
        assert np.array_equal(fields[0].values, np.zeros(3))
        assert fields[0].total_time == LZ3.duration

    def test_determinism(self):
        a = sample_seeds(SeedSpec(count=5, bounds=(-5, 5), rng_seed=99), LZ3)
        b = sample_seeds(SeedSpec(count=5, bounds=(-5, 5), rng_seed=99), LZ3)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_uniform_statistics(self):
        fields = sample_seeds(SeedSpec(count=4000, bounds=(-5, 5), rng_seed=7), LZ3)
        draws = np.stack([f.values for f in fields])
        assert draws.min() >= -5 and draws.max() <= 5
        # per coordinate: se of the mean of U(-5,5) over 4000 draws
        se = (10 / np.sqrt(12)) / np.sqrt(4000)
        assert np.abs(draws.mean(axis=0)).max() < 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(count=0, bounds=(0, 1), rng_seed=1)
        with pytest.raises(ValueError):
            SeedSpec(count=1, bounds=(2, 1), rng_seed=1)


class TestMinimize:
    def test_solution_seed_returns_immediately(self):
        seed = ControlField(values=np.ones(6), total_time=1.8)
        report = minimize(QHO6, seed, tol=1e-6)
        assert report.converged
        assert report.iterations <= 1
        assert np.array_equal(report.field.values, seed.values)

    def test_determinism(self):
        seeds = sample_seeds(SeedSpec(count=3, bounds=(0.1, 3.0), rng_seed=41), QHO6)
        for s in seeds:
            r1 = minimize(QHO6, s, tol=1e-8)
            r2 = minimize(QHO6, s, tol=1e-8)
            assert r1.final_infidelity == r2.final_infidelity
            assert r1.iterations == r2.iterations
            assert np.array_equal(r1.field.values, r2.field.values)

    def test_monotone_descent_across_iteration_caps(self):
        # the k-th capped run reproduces the k-th iterate, so the sequence of
        # finals over increasing caps is the per-iteration cost history
        seed = sample_seeds(SeedSpec(count=1, bounds=(0.1, 3.0), rng_seed=43), QHO6)[0]
        history = [minimize(QHO6, seed, tol=1e-14, max_iter=k).final_infidelity
                   for k in range(0, 12)]
        assert np.all(np.diff(history) <= 0.0)

    def test_lz_population_converges(self):
        seeds = sample_seeds(SeedSpec(count=25, bounds=(-5, 5), rng_seed=44), LZ3)
        reports = [minimize(LZ3, s, tol=1e-6, max_iter=2000) for s in seeds]
        converged = [r for r in reports if r.converged]
        assert len(converged) > 0
        for r in converged:
            assert r.final_infidelity < 1e-6

    def test_qho_m48_converges(self):
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=48)
        seeds = sample_seeds(SeedSpec(count=3, bounds=(0.1, 3.0), rng_seed=45), problem)
        reports = [minimize(problem, s, tol=1e-6, max_iter=3000) for s in seeds]
        assert any(r.converged for r in reports)

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            OptimizationReport(field=ControlField(values=[1.0], total_time=1.0),
                               final_infidelity=float("nan"), iterations=1, converged=True)

    def test_max_iter_zero_returns_seed(self):
        seed = sample_seeds(SeedSpec(count=1, bounds=(0.1, 3.0), rng_seed=46), QHO6)[0]
        report = minimize(QHO6, seed, tol=1e-20, max_iter=0)
        assert report.iterations == 0
        assert report.stop == "MAX_ITER"
        assert np.array_equal(report.field.values, seed.values)

    def test_stop_codes_are_checked(self):
        field = ControlField(values=[1.0], total_time=1.0)
        assert OptimizationReport(field, 0.5, 3, False).stop is None
        with pytest.raises(ValueError):
            OptimizationReport(field, 0.5, 3, False, stop="stalled")
        with pytest.raises(ValueError):
            OptimizationReport(field, 0.5, 3, False, stop="TOL")
        with pytest.raises(ValueError):
            OptimizationReport(field, 1e-9, 3, True, stop="STALLED")

    @pytest.mark.parametrize("problem,bounds,rng_seed,count", [
        (LZ3, (-5.0, 5.0), 1, 50),
        (QHO6, (0.1, 3.0), 41, 6),
    ])
    def test_converged_reports_match_the_full_descent(self, problem, bounds, rng_seed, count):
        # the stagnation exit may only cut descents that would never converge:
        # converged reports equal the exit-free descent bit for bit
        seeds = sample_seeds(SeedSpec(count=count, bounds=bounds, rng_seed=rng_seed), problem)
        n_converged = 0
        for s in seeds:
            report = minimize(problem, s, tol=1e-6, max_iter=2000)
            values, cost, iterations, converged = reference_descent(problem, s, 1e-6, 2000)
            assert report.stop in STOP_CODES
            assert report.converged == converged
            if converged:
                n_converged += 1
                assert report.stop == "TOL"
                assert report.field.values.tobytes() == values.tobytes()
                assert report.final_infidelity == cost
                assert report.iterations == iterations
            else:
                assert report.final_infidelity >= cost
        assert n_converged >= count // 3

    def test_infeasible_problem_stalls_early(self):
        # gap=1 at T=1.4pi/2 sits below the minimum flip time: no seed can
        # reach the analytic floor 1 - sin^2(T/2) ~ 0.206, so every descent
        # parks at a local minimum and must be stopped there
        duration = 1.4 * np.pi / 2
        floor = 1.0 - np.sin(duration / 2.0) ** 2
        infeasible = LzProblem(gap=1.0, duration=duration, n_pulses=3)
        seeds = sample_seeds(SeedSpec(count=6, bounds=(-5.0, 5.0), rng_seed=606), infeasible)
        for s in seeds:
            report = minimize(infeasible, s, tol=1e-6, max_iter=2000)
            assert not report.converged
            assert report.stop == "STALLED"
            assert report.iterations < 200
            assert report.final_infidelity >= floor - 1e-9


class TestPolish:
    def test_deepens_solution(self):
        seeds = sample_seeds(SeedSpec(count=10, bounds=(0.1, 3.0), rng_seed=47), QHO6)
        rep = next(r for r in (minimize(QHO6, s, tol=1e-6, max_iter=2000) for s in seeds)
                   if r.converged)
        deep = polish(QHO6, rep.field, target=1e-16)
        assert deep.converged
        assert deep.stop == "TOL"
        assert deep.final_infidelity < 1e-16

    def test_converged_solutions_have_rank_two_structure(self):
        seeds = sample_seeds(SeedSpec(count=30, bounds=(-5, 5), rng_seed=48), LZ3)
        checked = 0
        for s in seeds:
            rep = minimize(LZ3, s, tol=1e-6, max_iter=2000)
            if not rep.converged:
                continue
            deep = polish(LZ3, rep.field, target=1e-18)
            if not deep.converged:
                continue
            spectrum = eig_sym(hessian_of(LZ3, deep.field.values))
            # the threshold reading agrees with the row-order premise: the
            # non-null pair is rows 0 and 1
            is_null = classify_null(spectrum, tau_rel=1e-6)
            assert list(np.flatnonzero(~is_null)) == [0, 1]
            checked += 1
            if checked >= 5:
                break
        assert checked >= 3
