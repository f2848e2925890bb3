import math

import numpy as np
import pytest

import qcl.optimizer as optimizer
from qcl.control import ControlField
from qcl.landscape import classify_null, eig_sym
from qcl.models import ChainBatch, LzProblem, QhoProblem, hessian_of
from qcl.optimizer import (STOP_CODES, OptimizationReport, SeedSpec, minimize, polish,
                           sample_seeds)

from chain_oracles import reference_gradient_and_dz, reference_z_and_dz

LZ3 = LzProblem(gap=2.0, duration=1.4 * np.pi / 2, n_pulses=3)
QHO6 = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)


def gauss_newton_trials(problem, values, cost, grad, z, dz):
    """The Gauss-Newton trial steps `minimize` tries below I = 1e-2, one cost
    call each: [(t, trial point, trial cost)] and the slope -grad I . delta."""
    delta = optimizer._gauss_newton_step(z, dz, cost)
    trials = []
    for t in (1.0, 0.5, 0.25):
        trial = values + t * delta
        trials.append((t, trial, problem.infidelity_of(trial)))
    return trials, -float(grad @ delta)


def reference_descent(problem, seed, tol, max_iter):
    """Armijo descent with the Gauss-Newton finish and without a stagnation
    exit, gradient and z from the oracle sweep.

    Returns (values, cost, iterations, converged) as minimize would compute
    them if it never stopped stalled seeds.
    """
    values = seed.values.copy()
    cost = problem.infidelity_of(values)
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if cost < tol:
            iterations -= 1
            break
        z, dz = reference_z_and_dz(problem, values)
        grad = 2.0 * np.real(np.conj(z) * dz)
        slope = float(grad @ grad)
        if np.sqrt(slope) < 1e-10:
            iterations -= 1
            break
        accepted = False
        if cost < 1e-2:
            trials, rate = gauss_newton_trials(problem, values, cost, grad, z, dz)
            for t, trial, trial_cost in trials:
                if trial_cost <= cost - 1e-4 * t * rate:
                    values, cost = trial, trial_cost
                    accepted = True
                    break
        t = min(step * 2.0, 1e6)
        while not accepted and t > 1e-18:
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


def scalar_minimize(problem, seed, tol, max_iter, trials=None):
    """`minimize` as it was before its line search ran in batches: one cost
    call per trial step and each gradient, with the z and z-gradient that the
    alignment exit and the Gauss-Newton step read, from its own sweep.

    `trials`, when given, collects per iteration the pair (Gauss-Newton batch
    tried, gradient steps tried).
    """
    values = seed.values.copy()
    cost = problem.infidelity_of(values)
    if not np.isfinite(cost):
        return OptimizationReport(field=seed, final_infidelity=float(cost),
                                  iterations=0, converged=False, stop="NONFINITE")
    accepted_steps = 0
    step = 1.0
    iterations = 0
    stop = "MAX_ITER"

    def nonfinite():
        return OptimizationReport(field=ControlField(values, seed.total_time),
                                  final_infidelity=float(cost), iterations=iterations,
                                  converged=False, stop="NONFINITE")

    for iterations in range(1, max_iter + 1):
        if cost < tol:
            iterations -= 1
            break
        z, dz = reference_z_and_dz(problem, values)
        grad = 2.0 * np.real(np.conj(z) * dz)
        slope = float(grad @ grad)
        if math.sqrt(slope) < 1e-10:
            iterations -= 1
            stop = "GRAD_FLOOR"
            break
        if (accepted_steps >= 14 and math.sqrt(slope)
                < 3e-3 * 2.0 * math.sqrt(float(np.vdot(dz, dz).real) * cost)):
            iterations -= 1
            stop = "STALLED"
            break
        accepted = False
        gauss_newton = cost < 1e-2
        if gauss_newton:
            gn_trials, rate = gauss_newton_trials(problem, values, cost, grad, z, dz)
            for t, trial, trial_cost in gn_trials:
                if not np.isfinite(trial_cost):
                    return nonfinite()
                if trial_cost <= cost - 1e-4 * t * rate:
                    values, cost = trial, trial_cost
                    accepted = True
                    break
        t = min(step * 2.0, 1e6)
        n_trials = 0
        while not accepted and t > 1e-18:
            trial = values - t * grad
            trial_cost = problem.infidelity_of(trial)
            n_trials += 1
            if not np.isfinite(trial_cost):
                return nonfinite()
            if trial_cost <= cost - 1e-4 * t * slope:
                values, cost, step = trial, trial_cost, t
                accepted = True
                break
            t *= 0.5
        if trials is not None:
            trials.append((gauss_newton, n_trials))
        if not accepted:
            stop = "LINE_SEARCH"
            break
        accepted_steps += 1
    converged = bool(cost < tol)
    return OptimizationReport(field=ControlField(values, seed.total_time),
                              final_infidelity=float(cost), iterations=iterations,
                              converged=converged, stop="TOL" if converged else stop)


def assert_same_report(got, want):
    assert got.field.values.tobytes() == want.field.values.tobytes()
    assert got.field.total_time == want.field.total_time
    assert (np.float64(got.final_infidelity).tobytes()
            == np.float64(want.final_infidelity).tobytes())
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.stop == want.stop


# gap 1 at T = 1.4 pi/2 sits below the minimum flip time: every descent stalls
LZ3_GAP1 = LzProblem(gap=1.0, duration=1.4 * np.pi / 2, n_pulses=3)
QHO48 = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=48)
# a one-pulse trap whose descent ends with no acceptable step (found by search)
QHO1_LONG = QhoProblem(omega_start=1.0, omega_target=1.0, duration=10.0, n_pulses=1)

# case -> (problem, seeds, tol, max_iter, a stop code the case must reach)
ORACLE_CASES = {
    "lz_m3": (LZ3, lambda: sample_seeds(SeedSpec(50, (-5.0, 5.0), 1), LZ3),
              1e-6, 2000, "STALLED"),
    "qho_m6": (QHO6, lambda: sample_seeds(SeedSpec(6, (0.1, 3.0), 41), QHO6),
               1e-6, 2000, "TOL"),
    # the compress start search at qho M=48: 40 seeds from config seed 5
    "qho_m48_compress": (QHO48, lambda: sample_seeds(SeedSpec(40, (0.1, 3.0), 5), QHO48),
                         1e-6, 2000, "TOL"),
    "infeasible_gap1": (LZ3_GAP1, lambda: sample_seeds(SeedSpec(6, (-5.0, 5.0), 606), LZ3_GAP1),
                        1e-6, 2000, "STALLED"),
    "grad_floor": (LZ3, lambda: sample_seeds(SeedSpec(5, (-5.0, 5.0), 3), LZ3)[4:],
                   0.0, 3000, "GRAD_FLOOR"),
    "line_search": (QHO1_LONG, lambda: [ControlField([10.52336061003243], 10.0)],
                    0.0, 600, "LINE_SEARCH"),
    # the trap's w^2 overflows at the first trial (and at the second seed itself)
    "nonfinite": (QHO6, lambda: [ControlField(np.linspace(0.5, 1.5, 6) * s, 1.8)
                                 for s in (1e150, 1e154)], 1e-6, 50, "NONFINITE"),
}


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

    @pytest.mark.parametrize("tol,max_iter", [
        (-1.0, 10), (-1e-300, 10), (float("nan"), 10), (float("inf"), 10), (1e-6, -3),
    ])
    def test_out_of_range_settings_raise(self, tol, max_iter):
        # a negative tol can never be met and a negative max_iter takes no
        # step; tol 0 stays valid (the GRAD_FLOOR and LINE_SEARCH oracle cases)
        seed = sample_seeds(SeedSpec(count=1, bounds=(-5.0, 5.0), rng_seed=47), LZ3)[0]
        with pytest.raises(ValueError, match="tol" if max_iter >= 0 else "max_iter"):
            minimize(LZ3, seed, tol=tol, max_iter=max_iter)

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
        seeds = sample_seeds(SeedSpec(count=50, bounds=(-5.0, 5.0), rng_seed=606), infeasible)
        reports = [minimize(infeasible, s, tol=1e-6, max_iter=2000) for s in seeds]
        for report in reports:
            assert not report.converged
            assert report.stop == "STALLED"
            assert report.iterations < 200
            assert report.final_infidelity >= floor - 1e-9
        # measured: 1059 iterations in all
        assert sum(r.iterations for r in reports) <= 1090

    @pytest.mark.parametrize("index", [3532, 3515])
    def test_the_alignment_exit_waits_for_a_full_stall_window(self, index):
        # these seeds start near cost 1 with an alignment of 4.4e-4 and 1.4e-3,
        # below the 3e-3 exit, and still converge: read before 14 accepted
        # steps, the exit would cut them
        seed = sample_seeds(SeedSpec(4000, (-5.0, 5.0), 1), LZ3)[index]
        cost = LZ3.infidelity_of(seed.values)
        grad, dz = reference_gradient_and_dz(LZ3, seed.values)
        assert cost > 0.99
        assert np.linalg.norm(grad) < 3e-3 * 2.0 * np.linalg.norm(dz) * math.sqrt(cost)
        report = minimize(LZ3, seed, tol=1e-6, max_iter=2000)
        values, cost, iterations, converged = reference_descent(LZ3, seed, 1e-6, 2000)
        assert converged and report.stop == "TOL"
        assert report.field.values.tobytes() == values.tobytes()
        assert report.final_infidelity == cost
        assert report.iterations == iterations

    @staticmethod
    def record_alignments(monkeypatch) -> list:
        """The alignment |grad I| / (2 ||grad z|| |z|) of every gradient
        `minimize` forms, appended in order: the k-th reading of a descent is
        taken after k accepted steps."""
        readings = []
        gradient_and_dz = ChainBatch.gradient_and_dz

        def recording(self, k):
            grad, dz = gradient_and_dz(self, k)
            readings.append(np.linalg.norm(grad) / (2.0 * np.linalg.norm(dz) * abs(self.z[k])))
            return grad, dz

        monkeypatch.setattr(ChainBatch, "gradient_and_dz", recording)
        return readings

    @pytest.mark.parametrize("problem,spec,count", [
        (LZ3, SeedSpec(200, (-5.0, 5.0), 1), 200),     # the quick optimize_lz_m3
        (LzProblem(gap=2.0, duration=1.6, n_pulses=6), SeedSpec(200, (-5.0, 5.0), 3), 100),
    ], ids=["lz_m3", "lz_m6"])
    def test_converging_descents_clear_the_alignment_exit(self, problem, spec, count,
                                                          monkeypatch):
        # past the window every converging descent reads at least four times
        # the threshold, and a stricter exit converges the same seeds to the
        # same reports
        seeds = sample_seeds(spec, problem)[:count]
        readings = self.record_alignments(monkeypatch)
        reports, lowest = [], []
        for s in seeds:
            del readings[:]
            reports.append(minimize(problem, s, tol=1e-6, max_iter=2000))
            if reports[-1].converged:
                lowest.append(min(readings[optimizer._STALL_WINDOW:], default=np.inf))
        assert lowest and min(lowest) >= 4.0 * optimizer._STALL_ALIGNMENT
        if problem is LZ3:
            assert all(r.stop == "STALLED" for r in reports if not r.converged)
        monkeypatch.setattr(optimizer, "_STALL_WINDOW", 40)
        monkeypatch.setattr(optimizer, "_STALL_ALIGNMENT", 1e-3)
        for s, report in zip(seeds, reports):
            strict = minimize(problem, s, tol=1e-6, max_iter=2000)
            assert strict.converged == report.converged
            if report.converged:
                assert_same_report(report, strict)

    def test_a_descent_that_slows_near_a_stationary_point_still_converges(self,
                                                                          monkeypatch):
        # lz M = 12 at T = 1.8: this seed reads an alignment of 4.2e-3 after
        # 144 accepted steps, near I = 1.7e-3, and then converges; an exit at
        # 1e-2 would cut it
        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=12)
        seed = sample_seeds(SeedSpec(4000, (-5.0, 5.0), 2012), problem)[1861]
        readings = self.record_alignments(monkeypatch)
        report = minimize(problem, seed, tol=1e-6, max_iter=2000)
        assert report.stop == "TOL"
        assert optimizer._STALL_ALIGNMENT < min(readings[optimizer._STALL_WINDOW:]) < 1e-2
        monkeypatch.setattr(optimizer, "_STALL_ALIGNMENT", 1e-3)
        assert_same_report(report, minimize(problem, seed, tol=1e-6, max_iter=2000))
        monkeypatch.setattr(optimizer, "_STALL_ALIGNMENT", 1e-2)
        assert minimize(problem, seed, tol=1e-6, max_iter=2000).stop == "STALLED"


class TestBatchedLineSearch:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_reports_equal_the_scalar_descent(self, case):
        # every report, converged or not, byte for byte
        problem, seeds, tol, max_iter, reached = ORACLE_CASES[case]
        stops = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for s in seeds():
                report = minimize(problem, s, tol=tol, max_iter=max_iter)
                assert_same_report(report, scalar_minimize(problem, s, tol, max_iter))
                stops.add(report.stop)
        assert reached in stops

    @staticmethod
    def poisoned(row):
        """A ChainBatch factory whose first line-search batch reads NaN at `row`."""
        sizes = []

        def make(problem, points):
            batch = ChainBatch(problem, points)
            sizes.append(len(points))
            if len(sizes) == 2:
                batch.costs[row] = float("nan")
            return batch
        return make, sizes

    def test_rows_after_the_accepted_one_are_ignored(self, monkeypatch):
        seeds = sample_seeds(SeedSpec(count=10, bounds=(-5.0, 5.0), rng_seed=1), LZ3)
        for s in seeds:
            trials = []
            want = scalar_minimize(LZ3, s, 1e-6, 2000, trials)
            if trials[0] == (False, 2):
                break
        else:
            pytest.fail("no seed accepts its second trial step first")
        for row in (2, 3):
            make, sizes = self.poisoned(row)
            monkeypatch.setattr(optimizer, "ChainBatch", make)
            assert_same_report(minimize(LZ3, s, tol=1e-6, max_iter=2000), want)
            assert sizes[:2] == [1, 4]
        for row in (0, 1):
            make, _ = self.poisoned(row)
            monkeypatch.setattr(optimizer, "ChainBatch", make)
            report = minimize(LZ3, s, tol=1e-6, max_iter=2000)
            assert report.stop == "NONFINITE" and report.iterations == 1
            assert report.field.values.tobytes() == s.values.tobytes()
            assert report.final_infidelity == LZ3.infidelity_of(s.values)

    @pytest.mark.parametrize("case", ["lz_m3", "qho_m6", "line_search"])
    def test_one_factor_build_per_trial_batch(self, case, monkeypatch):
        problem, seeds, tol, max_iter, _ = ORACLE_CASES[case]
        builds = []
        build = type(problem)._interval_stacks

        def counted(self, values, order=2):
            builds.append(np.shape(values))
            return build(self, values, order)

        monkeypatch.setattr(type(problem), "_interval_stacks", counted)
        gauss_newton = 0
        for s in seeds()[:20]:
            trials = []
            scalar_minimize(problem, s, tol, max_iter, trials)
            del builds[:]
            minimize(problem, s, tol=tol, max_iter=max_iter)
            batches = [gn + -(-n // optimizer._LINE_SEARCH_BATCH) for gn, n in trials]
            assert len(builds) == 1 + sum(batches)
            assert builds[0] == (1, problem.n_pulses)
            gauss_newton += sum(gn for gn, _ in trials)
        if case != "line_search":
            assert gauss_newton > 0


class TestGaussNewtonFinish:
    def test_the_step_solves_the_damped_normal_equations(self):
        rng = np.random.default_rng(5)
        for m in (1, 3, 48):
            dz = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            z = complex(rng.standard_normal(), rng.standard_normal()) * 1e-3
            cost = abs(z) ** 2
            J = np.stack([dz.real, dz.imag])
            r = np.array([z.real, z.imag])
            want = -J.T @ np.linalg.solve(J @ J.T + cost * np.eye(2), r)
            got = optimizer._gauss_newton_step(np.complex128(z), dz, cost)
            # J J^T is singular at M = 1, so the damped system's condition
            # number is about |dz|^2 / cost ~ 1e6 there
            assert np.allclose(got, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("population", ["lz_m3", "qho_m6"])
    def test_the_finish_loses_no_seed(self, population, monkeypatch):
        # the converged set with the finish equals that of descent alone
        problem, spec = {
            "lz_m3": (LZ3, SeedSpec(200, (-5.0, 5.0), 1)),
            "qho_m6": (QHO6, SeedSpec(50, (0.1, 3.0), 41)),
        }[population]
        seeds = sample_seeds(spec, problem)
        finished = [minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds]
        monkeypatch.setattr(optimizer, "_GAUSS_NEWTON_BELOW", 0.0)
        descent = [minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds]
        converged = {i for i, r in enumerate(finished) if r.converged}
        assert converged == {i for i, r in enumerate(descent) if r.converged}
        assert converged
        for i, r in enumerate(finished):
            if r.converged:
                assert problem.infidelity_of(r.field.values) < 1e-6
            elif population == "lz_m3":
                assert r.stop == "STALLED"
        # the finish takes far fewer iterations than descent alone
        assert (sum(r.iterations for r in finished)
                < 0.5 * sum(r.iterations for r in descent))


class TestPolish:
    def test_deepens_solution(self):
        seeds = sample_seeds(SeedSpec(count=10, bounds=(0.1, 3.0), rng_seed=47), QHO6)
        rep = next(r for r in (minimize(QHO6, s, tol=1e-6, max_iter=2000) for s in seeds)
                   if r.converged)
        deep = polish(QHO6, rep.field, target=1e-16)
        assert deep.converged
        assert deep.stop == "TOL"
        assert deep.final_infidelity < 1e-16

    def test_a_non_finite_start_ends_as_nonfinite(self):
        # the trap's w^2 overflows, so the start cost is NaN; the NaN Hessian
        # used to reach the eigensolver and raise
        field = ControlField(np.linspace(0.5, 1.5, 6) * 1e154, 1.8)
        with np.errstate(over="ignore", invalid="ignore"):
            report = polish(QHO6, field)
        assert not np.isfinite(report.final_infidelity)
        assert report.stop == "NONFINITE"
        assert report.iterations == 0
        assert report.field.values.tobytes() == field.values.tobytes()

    @pytest.mark.parametrize("poison", ["z", "dz"])
    def test_a_non_finite_derivative_ends_as_nonfinite(self, poison, monkeypatch):
        # the first Gauss-Newton step of a polish reads a NaN z or z-gradient
        seed = sample_seeds(SeedSpec(count=1, bounds=(0.1, 3.0), rng_seed=47), QHO6)[0]
        start = minimize(QHO6, seed, tol=1e-6, max_iter=2000)
        assert start.converged
        exact = ChainBatch.gradient_and_dz

        def poisoned(self, k):
            if poison == "z":
                self.z[k] = np.nan
                return exact(self, k)
            grad, dz = exact(self, k)
            return grad, np.full_like(dz, np.nan)

        monkeypatch.setattr(ChainBatch, "gradient_and_dz", poisoned)
        with np.errstate(invalid="ignore"):
            report = polish(QHO6, start.field, target=0.0)
        assert report.stop == "NONFINITE"
        assert report.iterations == 1
        assert report.field.values.tobytes() == start.field.values.tobytes()
        assert report.final_infidelity == start.final_infidelity

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
