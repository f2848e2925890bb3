import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl import landscape, navigation
from qcl.control import ControlField, FrequencySpec
from qcl.landscape import FdConfig, HessianSpectrum, eig_sym, rank2_ritz
from qcl.models import LzProblem, PrefixGrowth, QhoProblem, hessian_of
from qcl.navigation import (FAILURE_CODES, FixedVector, NullFollow, SecondaryGradient,
                            Trajectory, navigate, null_direction, project, rk4_integrate,
                            write_jsonl)
from qcl.objectives import FourierObjective
from qcl.optimizer import SeedSpec, minimize, polish, sample_seeds


def random_spectrum(rng, m=5):
    a = rng.normal(size=(m, m))
    return eig_sym(a + a.T)


class TestProject:
    def test_null_eigenvector_passes_through(self):
        rng = np.random.default_rng(61)
        spec = random_spectrum(rng)
        v_null = spec.vectors[2]
        assert np.abs(project(v_null, spec) - v_null).max() < 1e-12

    def test_nonnull_eigenvector_is_removed(self):
        rng = np.random.default_rng(62)
        spec = random_spectrum(rng)
        v = spec.vectors[0]
        assert np.abs(project(v, spec)).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers())
    def test_idempotent_and_orthogonal(self, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        spec = random_spectrum(rng)
        a = rng.normal(size=5)
        pa = project(a, spec)
        assert np.abs(project(pa, spec) - pa).max() <= 1e-12 * max(1, np.abs(a).max())
        for i in (0, 1):
            assert abs(pa @ spec.vectors[i]) <= 1e-12 * max(1, np.linalg.norm(a))

    def test_operator_symmetry(self):
        rng = np.random.default_rng(63)
        spec = random_spectrum(rng)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert a @ project(b, spec) == pytest.approx(project(a, spec) @ b, abs=1e-12)

    def test_basis_independence(self):
        # flipping signs and reordering eigenvectors must not change P
        rng = np.random.default_rng(64)
        spec = random_spectrum(rng)
        a = rng.normal(size=5)
        flipped = HessianSpectrum(
            eigenvalues=spec.eigenvalues.copy(),
            vectors=np.array([-1, 1, -1, 1, -1])[:, None] * spec.vectors,
        )
        order = [1, 0, 2, 3, 4]  # swap the two non-null rows
        swapped = HessianSpectrum(
            eigenvalues=spec.eigenvalues[order],
            vectors=spec.vectors[order],
        )
        pa = project(a, spec)
        assert np.abs(project(a, flipped) - pa).max() < 1e-10
        assert np.abs(project(a, swapped) - pa).max() < 1e-10

    def test_dimension_check(self):
        rng = np.random.default_rng(65)
        spec = random_spectrum(rng)
        with pytest.raises(ValueError):
            project(np.ones(4), spec)


class TestNullDirection:
    def _one_null_spectrum(self, rng):
        return random_spectrum(rng, m=3)

    def test_sign_continuity(self):
        rng = np.random.default_rng(66)
        spec = self._one_null_spectrum(rng)
        v = null_direction(spec, previous=None)
        again = null_direction(spec, previous=-v)
        assert np.abs(again + v).max() < 1e-14  # flipped to match previous

    def test_first_step_returns_solver_vector(self):
        rng = np.random.default_rng(67)
        spec = self._one_null_spectrum(rng)
        v = null_direction(spec, previous=None)
        assert np.abs(v - spec.vectors[2]).max() < 1e-15

    def test_requires_one_dimensional_null_space(self):
        rng = np.random.default_rng(68)
        spec = random_spectrum(rng, m=5)  # null dim 3
        with pytest.raises(ValueError, match="dimension"):
            null_direction(spec)


class TestRk4:
    def test_fourth_order_on_linear_flow(self):
        rng = np.random.default_rng(69)
        a = rng.normal(size=(4, 4))
        a = 0.4 * (a + a.T)
        x0 = rng.normal(size=4)
        lam, vec = np.linalg.eigh(a)
        total = 1.0

        def exact_at(t):
            return vec @ (np.exp(lam * t) * (vec.T @ x0))

        errors = []
        for h in (0.1, 0.05, 0.025):
            steps = int(round(total / h))
            states = rk4_integrate(lambda x: a @ x, x0, h, steps)
            errors.append(np.linalg.norm(states[-1] - exact_at(total)))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        # fourth order: each halving divides the error by ~16, within factor 2
        assert 8.0 <= r1 <= 32.0
        assert 8.0 <= r2 <= 32.0

    def test_records_all_states(self):
        states = rk4_integrate(lambda x: -x, np.array([1.0]), 0.1, 7)
        assert len(states) == 8


@pytest.fixture(scope="module")
def qho48_solution():
    problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=48)
    seeds = sample_seeds(SeedSpec(count=20, bounds=(0.1, 3.0), rng_seed=77), problem)
    rep = next(r for r in (minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds)
               if r.converged)
    return problem, polish(problem, rep.field, target=1e-16).field


@pytest.fixture(scope="module")
def qho_solution():
    problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)
    seeds = sample_seeds(SeedSpec(count=10, bounds=(0.1, 3.0), rng_seed=71), problem)
    for s in seeds:
        rep = minimize(problem, s, tol=1e-6, max_iter=2000)
        if rep.converged:
            return problem, polish(problem, rep.field).field
    raise RuntimeError("no solution found")


class TestNavigate:
    def test_rejects_non_solution_start(self, qho_solution):
        problem, _ = qho_solution
        bad = ControlField(values=np.full(6, 2.0), total_time=1.8)
        with pytest.raises(ValueError, match="entry"):
            navigate(problem, bad, FixedVector(np.ones(6)), h=0.1, steps=1)

    def test_rejects_start_of_another_duration_or_length(self, qho_solution):
        # the values are a solution, so only the field check can refuse them;
        # a run would otherwise carry T = 99 into every sample
        problem, field = qho_solution
        for start, what in [(ControlField(field.values, 99.0), "duration"),
                            (ControlField(np.append(field.values, 1.0), 1.8), "pulses")]:
            with pytest.raises(ValueError, match=what):
                navigate(problem, start, FixedVector(np.ones(6)), h=0.1, steps=1)

    def test_validates_h_and_steps(self, qho_solution):
        problem, field = qho_solution
        with pytest.raises(ValueError):
            navigate(problem, field, FixedVector(np.ones(6)), h=0.0, steps=1)
        with pytest.raises(ValueError):
            navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=-1)

    def test_zero_steps_returns_the_start_sample(self, qho_solution):
        problem, field = qho_solution
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=0)
        assert not traj.failed and traj.failure_code is None
        assert len(traj.samples) == 1
        start = traj.samples[0]
        assert start.zeta == 0.0 and start.field is field
        assert start.infidelity == problem.infidelity_of(field.values)

    def test_wrong_shape_direction_raises(self, qho_solution):
        # a programming error propagates; it is not a failed trajectory
        problem, field = qho_solution
        with pytest.raises(ValueError, match="shape"):
            navigate(problem, field, FixedVector(np.ones(5)), h=0.1, steps=1)

    def test_direction_orthogonal_to_null_space_freezes(self, qho_solution):
        problem, field = qho_solution
        a = eig_sym(hessian_of(problem, field.values)).vectors[0]
        traj = navigate(problem, field, FixedVector(a), h=0.1, steps=5, hessian_mode="exact")
        drift = np.abs(traj.values_matrix() - field.values).max()
        assert drift < 1e-10

    def test_fixed_vector_run_preserves_fidelity(self, qho_solution):
        problem, field = qho_solution
        rng = np.random.default_rng(72)
        a = rng.normal(size=6)
        a /= np.linalg.norm(a)
        traj = navigate(problem, field, FixedVector(a), h=0.1, steps=100,
                        hessian_mode=FdConfig(1e-2))
        assert not traj.failed
        assert traj.infidelities().max() < 1e-6
        assert np.diff(traj.infidelities()).max() <= 1e-8  # soft per-step monitor
        zetas = [s.zeta for s in traj.samples]
        assert np.all(np.diff(zetas) > 0)
        # the walk actually moved
        assert np.linalg.norm(traj.values_matrix()[-1] - field.values) > 1e-3

    def test_exact_and_fd_modes_agree(self, qho_solution):
        problem, field = qho_solution
        rng = np.random.default_rng(73)
        a = rng.normal(size=6)
        t_exact = navigate(problem, field, FixedVector(a), h=0.1, steps=30,
                           hessian_mode="exact")
        t_fd = navigate(problem, field, FixedVector(a), h=0.1, steps=30,
                        hessian_mode=FdConfig(1e-3))
        diff = np.abs(t_exact.values_matrix() - t_fd.values_matrix()).max()
        assert diff < 1e-5

    def test_abort_ceiling_flags_failure(self, qho_solution, monkeypatch):
        # the rank guard stops this run at its first stage (see
        # test_rank_collapse_preempts_the_ceiling); with it off, the ceiling
        # is what catches the wandering run
        monkeypatch.setattr(navigation, "RANK_COLLAPSE_RATIO", np.inf)
        problem, field = qho_solution
        rng = np.random.default_rng(74)
        a = rng.normal(size=6)
        # a nonsense finite-difference step makes the projector noise, so the
        # run wanders off the level set and must be flagged, not truncated
        traj = navigate(problem, field, FixedVector(a), h=0.5, steps=400,
                        hessian_mode=FdConfig(1e-12), abort_ceiling=1e-3)
        assert traj.failed
        assert "ceiling" in traj.failure_reason or "finite" in traj.failure_reason
        assert len(traj.samples) >= 1

    def test_ceiling_failure_code(self, qho_solution):
        problem, field = qho_solution
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=5,
                        abort_ceiling=0.0)
        assert traj.failed and traj.failure_code == "CEILING"
        assert len(traj.samples) == 2 and traj.samples[-1].infidelity > 0.0

    def test_failed_follows_the_failure_code(self):
        for code in (None,) + FAILURE_CODES:
            traj = Trajectory(samples=(), failure_code=code)
            assert traj.failed == (code is not None)
        with pytest.raises(TypeError):
            Trajectory(samples=(), failed=True)

    def test_nonfinite_stencil_cost_failure_code(self, qho_solution, monkeypatch):
        problem, field = qho_solution

        def nonfinite_stencil(point, s_idx, s_val, p_val):
            m, k = np.shape(p_val)
            return float("inf"), np.zeros(len(s_idx)), np.zeros((m, k, m, k))

        monkeypatch.setattr(navigation, "chain_stencil_cost", lambda problem: nonfinite_stencil)
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=3,
                        hessian_mode=FdConfig(1e-2))
        assert traj.failed and traj.failure_code == "NONFINITE"
        assert len(traj.samples) == 1
        assert set(FAILURE_CODES) == {"CEILING", "NONFINITE", "GROWTH", "RANK_COLLAPSE"}

    @pytest.mark.parametrize("mode", ["exact", FdConfig(1e-2)])
    def test_overflowing_stage_point_failure_code(self, qho_solution, mode):
        # the first stage point's factors overflow: the chain kernel raises on
        # their NaN growth, and the stencil costs are non-finite
        problem, field = qho_solution
        a = np.ones(6)
        a[0] = 1e300
        with np.errstate(all="ignore"):
            traj = navigate(problem, field, FixedVector(a), h=1.0, steps=2, hessian_mode=mode)
        assert traj.failed and traj.failure_code == "NONFINITE"
        assert len(traj.samples) == 1

    @pytest.mark.parametrize("mode", ["exact", FdConfig(1e-2)])
    def test_growth_failure_code(self, qho_solution, monkeypatch, mode):
        # the chain kernel refusing a Hessian ends the run; the samples stay
        problem, field = qho_solution
        calls = []

        def refuse(*args, **kwargs):
            calls.append(1)
            if len(calls) > 4:   # one full RK4 step first
                raise PrefixGrowth("prefix products grow to 2e+04")
            return real(*args, **kwargs)

        if mode == "exact":
            real = navigation.hessian_of
            monkeypatch.setattr(navigation, "hessian_of", refuse)
        else:
            real = navigation.fd_hessian
            monkeypatch.setattr(navigation, "fd_hessian", refuse)
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=3,
                        hessian_mode=mode)
        assert traj.failed and traj.failure_code == "GROWTH"
        assert "grow" in traj.failure_reason
        assert len(traj.samples) == 2

    def test_rank_collapse_preempts_the_ceiling(self, qho_solution):
        # a noise-floor stencil has no rank-2 structure: the guard ends the run
        # in its first step, before it can wander
        problem, field = qho_solution
        a = np.random.default_rng(74).normal(size=6)
        traj = navigate(problem, field, FixedVector(a), h=0.5, steps=400,
                        hessian_mode=FdConfig(1e-12), abort_ceiling=1e-3)
        assert traj.failed and traj.failure_code == "RANK_COLLAPSE"
        assert "lambda3/lambda2" in traj.failure_reason
        assert len(traj.samples) == 1

    @pytest.mark.parametrize("factor, code", [(0.99, None), (1.01, "RANK_COLLAPSE")])
    def test_rank_collapse_threshold(self, qho_solution, monkeypatch, factor, code):
        # the guard compares |lambda_3| with RANK_COLLAPSE_RATIO |lambda_2|
        problem, field = qho_solution

        def third_value_at(hess):
            spec = rank2_ritz(hess)
            spec.eigenvalues[2] = (-factor * navigation.RANK_COLLAPSE_RATIO
                                   * abs(spec.eigenvalues[1]))
            return spec

        monkeypatch.setattr(navigation, "rank2_ritz", third_value_at)
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=3)
        assert traj.failure_code == code
        assert len(traj.samples) == (4 if code is None else 1)

    def test_null_rank_must_be_two(self, qho_solution):
        problem, field = qho_solution
        for rank in (1, 3, None):
            with pytest.raises(ValueError, match="null_rank"):
                navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=1,
                         null_rank=rank)
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=1, null_rank=2)
        assert not traj.failed

    def test_null_follow_needs_a_curve(self, qho_solution, qho48_solution):
        # the solution set has dimension M - 2, whether the spectrum is full
        # (M = 6) or four Ritz pairs (M = 48)
        for (problem, field), dim in ((qho_solution, 4), (qho48_solution, 46)):
            with pytest.raises(ValueError, match=f"dimension {dim};"):
                navigate(problem, field, NullFollow(), h=0.1, steps=1)

    @pytest.mark.parametrize("m", [6, 48])
    def test_no_full_eigendecomposition(self, qho_solution, qho48_solution, monkeypatch, m):
        problem, field = qho_solution if m == 6 else qho48_solution

        def refuse(*args, **kwargs):
            raise AssertionError("navigate called a full-spectrum routine")

        monkeypatch.setattr(landscape, "eig_sym", refuse)
        monkeypatch.setattr(landscape, "classify_null", refuse)
        for mode in ("exact", FdConfig(1e-2)):
            traj = navigate(problem, field, FixedVector(np.ones(m)), h=0.01, steps=2,
                            hessian_mode=mode)
            assert not traj.failed

    @pytest.mark.parametrize("mode", ["exact", FdConfig(1e-2)])
    def test_chunked_runs_match_one_call(self, qho48_solution, mode):
        # every stage depends on its own point alone (the Ritz start block is
        # fixed), so a run restarted from its last sample continues exactly as
        # one long call
        problem, field = qho48_solution
        objective = FourierObjective(FrequencySpec.closure([1, 2], 48))
        provider = SecondaryGradient(objective)
        whole = navigate(problem, field, provider, h=0.005, steps=20, hessian_mode=mode)
        first = navigate(problem, field, provider, h=0.005, steps=10, hessian_mode=mode)
        second = navigate(problem, first.samples[-1].field, provider, h=0.005,
                          steps=10, hessian_mode=mode)
        chunked = first.samples + second.samples[1:]
        assert not whole.failed and len(chunked) == len(whole.samples) == 21
        assert np.array_equal(np.stack([s.field.values for s in chunked]),
                              whole.values_matrix())
        assert [s.infidelity for s in chunked] == list(whole.infidelities())

    def test_three_pulse_drive_equals_the_full_spectrum_path(self, monkeypatch):
        # at M <= 4 the Ritz block is the whole space: the NullFollow loop is
        # bit for bit the one driven by eig_sym
        problem = LzProblem(gap=2.0, duration=1.4 * np.pi / 2, n_pulses=3)
        seeds = sample_seeds(SeedSpec(count=40, bounds=(-5.0, 5.0), rng_seed=75), problem)
        rep = next(r for r in (minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds)
                   if r.converged)
        field = polish(problem, rep.field).field
        ritz = navigate(problem, field, NullFollow(), h=0.01, steps=100,
                        hessian_mode=FdConfig(1e-2))
        monkeypatch.setattr(navigation, "rank2_ritz", eig_sym)
        full = navigate(problem, field, NullFollow(), h=0.01, steps=100,
                        hessian_mode=FdConfig(1e-2))
        assert not ritz.failed
        assert np.array_equal(ritz.values_matrix(), full.values_matrix())

    def test_projector_along_a_compression(self, qho48_solution):
        # 200 exact steps of the trap M=48 compression: at every sample the
        # Ritz projector is the full eigendecomposition's to 1e-8
        problem, start = qho48_solution
        objective = FourierObjective(FrequencySpec.closure([1, 2], 48))
        traj = navigate(problem, start, SecondaryGradient(objective), h=0.005, steps=200)
        assert not traj.failed and len(traj.samples) == 201
        assert traj.secondary_costs()[-1] < 0.5 * traj.secondary_costs()[0]
        worst = 0.0
        for values in traj.values_matrix():
            hess = hessian_of(problem, values)
            full = eig_sym(hess).vectors[:2]
            ritz = rank2_ritz(hess).vectors[:2]
            worst = max(worst, np.abs(ritz.T @ ritz - full.T @ full).max())
        assert worst <= 1e-8

    def test_consecutive_null_directions_stay_aligned(self):
        problem = LzProblem(gap=2.0, duration=1.4 * np.pi / 2, n_pulses=3)
        seeds = sample_seeds(SeedSpec(count=40, bounds=(-5.0, 5.0), rng_seed=75), problem)
        field = None
        for s in seeds:
            rep = minimize(problem, s, tol=1e-6, max_iter=2000)
            if rep.converged:
                field = polish(problem, rep.field).field
                break
        provider = NullFollow()
        directions = []

        class Recorder:
            def direction(self, values, spectrum):
                d = provider.direction(values, spectrum)
                directions.append(d.copy())
                return d

            def secondary_cost(self, values):
                return None

        traj = navigate(problem, field, Recorder(), h=0.01, steps=200,
                        hessian_mode=FdConfig(1e-2))
        assert not traj.failed
        dots = [float(directions[i] @ directions[i + 1]) for i in range(len(directions) - 1)]
        assert min(dots) > 0.0

    def test_unknown_hessian_mode(self, qho_solution):
        problem, field = qho_solution
        with pytest.raises(ValueError, match="hessian_mode"):
            navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=1,
                     hessian_mode="magic")


class TestTrajectoryIo:
    def test_jsonl_round_trip(self, qho_solution):
        problem, field = qho_solution
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=3,
                        hessian_mode="exact")
        buf = io.StringIO()
        write_jsonl(traj, buf, header={"seed": 1})
        lines = buf.getvalue().strip().split("\n")
        assert json.loads(lines[0]) == {"header": {"seed": 1}}
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == len(traj.samples)
        for rec, sample in zip(records, traj.samples):
            assert rec["zeta"] == sample.zeta
            assert rec["infidelity"] == sample.infidelity
            assert np.allclose(rec["values"], sample.field.values)

    def test_samples_share_duration(self, qho_solution):
        problem, field = qho_solution
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=3,
                        hessian_mode="exact")
        for s in traj.samples:
            assert s.field.total_time == field.total_time
            assert s.field.n_pulses == field.n_pulses
