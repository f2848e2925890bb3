import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracles import reference_z_and_dz
from qcl import landscape, navigation
from qcl.control import ControlField, FrequencySpec
from qcl.landscape import FdConfig, HessianSpectrum, eig_sym, fd_hessian, rank2_ritz
from qcl.models import LzProblem, PrefixGrowth, QhoProblem, chain_stencil_cost, hessian_of
from qcl.navigation import (FAILURE_CODES, FixedVector, NullFollow, SecondaryGradient,
                            Trajectory, _rk4_step, navigate, null_direction, project,
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
            x = x0
            for _ in range(int(round(total / h))):
                x = _rk4_step(lambda s: a @ s, x, h)
            errors.append(np.linalg.norm(x - exact_at(total)))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        # fourth order: each halving divides the error by ~16, within factor 2
        assert 8.0 <= r1 <= 32.0
        assert 8.0 <= r2 <= 32.0


@pytest.fixture(scope="module")
def qho48_solution():
    problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=48)
    seeds = sample_seeds(SeedSpec(count=20, bounds=(0.1, 3.0), rng_seed=77), problem)
    rep = next(r for r in (minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds)
               if r.converged)
    return problem, polish(problem, rep.field, target=1e-16).field


@pytest.fixture(scope="module")
def lz3_solution():
    problem = LzProblem(gap=2.0, duration=1.4 * np.pi / 2, n_pulses=3)
    seeds = sample_seeds(SeedSpec(count=40, bounds=(-5.0, 5.0), rng_seed=75), problem)
    rep = next(r for r in (minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds)
               if r.converged)
    return problem, polish(problem, rep.field).field


@pytest.fixture(scope="module")
def lz7_solution():
    problem = LzProblem(gap=2.0, duration=1.8, n_pulses=7)
    seeds = sample_seeds(SeedSpec(count=40, bounds=(-5.0, 5.0), rng_seed=76), problem)
    rep = next(r for r in (minimize(problem, s, tol=1e-6, max_iter=2000) for s in seeds)
               if r.converged)
    return problem, polish(problem, rep.field).field


def reference_run(problem, start, provider, h, steps, mode):
    """The projected flow's RK4 with a Hessian, a Ritz step and a projection
    at every stage point: `navigate` without its stage memo.

    Returns the states, their infidelities and every stage point in order.
    """
    stencil = chain_stencil_cost(problem)
    points = []

    def flow(x):
        points.append(x)
        hess = hessian_of(problem, x) if mode == "exact" else fd_hessian(stencil, x, mode)
        spec = rank2_ritz(hess)
        return project(provider.direction(x, spec), spec)

    x = start.values.copy()
    states = [x]
    for _ in range(steps):
        k1 = flow(x)
        k2 = flow(x + 0.5 * h * k1)
        k3 = flow(x + 0.5 * h * k2)
        k4 = flow(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.stack(states), [problem.infidelity_of(x) for x in states], points


def new_points(points) -> int:
    """Stage points whose bytes are not among the two latest distinct stage
    points before them."""
    keys = [p.tobytes() for p in points]
    count = 0
    for i, key in enumerate(keys):
        latest = []
        for j in range(i - 1, -1, -1):
            if len(latest) == 2:
                break
            if keys[j] not in latest:
                latest.append(keys[j])
        count += key not in latest
    return count


def count_hessians(monkeypatch, mode) -> list:
    """Route navigate's stage Hessian through a wrapper that logs each call."""
    name = "hessian_of" if mode == "exact" else "fd_hessian"
    real, calls = getattr(navigation, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(navigation, name, counted)
    return calls


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
        # a NaN or infinite step would end the run as a NONFINITE trajectory
        for h in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                navigate(problem, field, FixedVector(np.ones(6)), h=h, steps=1)
        # a NaN ceiling would switch the ceiling off and a negative one fail
        # every run; np.inf (no ceiling) stays valid
        for ceiling in (np.nan, -1e-3, -np.inf):
            with pytest.raises(ValueError, match="abort_ceiling"):
                navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=1,
                         abort_ceiling=ceiling)
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=1,
                        abort_ceiling=np.inf)
        assert len(traj.samples) == 2

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_fixed_direction_raises(self, bad):
        # a caller's error, refused before navigate can record it as NONFINITE
        with pytest.raises(ValueError, match="finite"):
            FixedVector([bad, 1.0, 0.0])
        assert FixedVector([1e300, 1.0, 0.0]).a[0] == 1e300

    def test_fixed_direction_is_a_read_only_copy(self):
        # a later write to the caller's array cannot slip a NaN past the check
        a = np.ones(6)
        provider = FixedVector(a)
        a[0] = np.nan
        assert provider.a[0] == 1.0
        assert provider.direction(None, None) is not a
        with pytest.raises(ValueError, match="read-only"):
            provider.a[0] = 2.0

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
            return float("inf"), np.zeros(len(s_idx)), np.zeros((m * (m - 1) // 2, k, k))

        monkeypatch.setattr(navigation, "chain_stencil_cost", lambda problem: nonfinite_stencil)
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=3,
                        hessian_mode=FdConfig(1e-2))
        assert traj.failed and traj.failure_code == "NONFINITE"
        assert len(traj.samples) == 1
        assert set(FAILURE_CODES) == {"CEILING", "NONFINITE", "GROWTH", "RANK_COLLAPSE"}

    def test_nonfinite_exact_hessian_failure_code(self, qho_solution, monkeypatch):
        # the stage trusts hessian_of to raise on a non-finite entry; a matrix
        # that still has one gives a NaN spectrum, which the rank guard reports
        problem, field = qho_solution

        def nonfinite_hessian(problem, values):
            hess = np.eye(values.size)
            hess[0, 1] = hess[1, 0] = np.inf
            return hess

        monkeypatch.setattr(navigation, "hessian_of", nonfinite_hessian)
        traj = navigate(problem, field, FixedVector(np.ones(6)), h=0.1, steps=3)
        assert traj.failed and traj.failure_code == "NONFINITE"
        assert "non-finite" in traj.failure_reason
        assert len(traj.samples) == 1

    def test_nonfinite_hessian_in_the_ritz_branch_failure_code(self, qho48_solution,
                                                                monkeypatch):
        # at M >= 32 the same matrix makes the Ritz step's LAPACK call fail
        # instead of giving NaN eigenvalues; the run still ends as NONFINITE
        problem, field = qho48_solution

        def nonfinite_hessian(problem, values):
            hess = np.eye(values.size)
            hess[0, 1] = hess[1, 0] = np.inf
            return hess

        monkeypatch.setattr(navigation, "hessian_of", nonfinite_hessian)
        traj = navigate(problem, field, FixedVector(np.ones(48)), h=0.1, steps=3)
        assert traj.failed and traj.failure_code == "NONFINITE"
        assert "non-finite" in traj.failure_reason
        assert len(traj.samples) == 1

    def test_a_ritz_failure_on_a_finite_hessian_propagates(self, qho48_solution,
                                                           monkeypatch):
        # only a non-finite matrix turns the kernel's error into a failed run
        problem, field = qho48_solution

        def no_convergence(hess):
            raise RuntimeError("eigendecomposition did not converge")

        monkeypatch.setattr(navigation, "_rank2_ritz", no_convergence)
        with pytest.raises(RuntimeError, match="did not converge"):
            navigate(problem, field, FixedVector(np.ones(48)), h=0.1, steps=3)

    def test_traced_entry_points_run_at_every_stage(self, lz3_solution, monkeypatch):
        # the benchmark's tracer wraps these `navigation` attributes: a drive
        # reaches each of them through the module, once per RK4 stage
        problem, field = lz3_solution
        counts = dict.fromkeys(("fd_hessian", "stencil", "project"), 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        make_stencil = navigation.chain_stencil_cost
        monkeypatch.setattr(navigation, "fd_hessian", counted("fd_hessian", navigation.fd_hessian))
        monkeypatch.setattr(navigation, "project", counted("project", navigation.project))
        monkeypatch.setattr(navigation, "chain_stencil_cost",
                            lambda problem: counted("stencil", make_stencil(problem)))
        traj = navigate(problem, field, NullFollow(), h=0.01, steps=25,
                        hessian_mode=FdConfig(1e-2))
        assert not traj.failed and len(traj.samples) == 26
        assert counts == {"fd_hessian": 100, "stencil": 100, "project": 100}

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

        monkeypatch.setattr(navigation, "_rank2_ritz", third_value_at)
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
        # one long call, also once the samples that start the chunks are
        # shared by the steps that returned them
        problem, field = qho48_solution
        objective = FourierObjective(FrequencySpec.closure([1, 2], 48))
        provider = SecondaryGradient(objective)
        whole = navigate(problem, field, provider, h=0.005, steps=150, hessian_mode=mode)
        chunked, current = [], field
        for _ in range(15):
            part = navigate(problem, current, provider, h=0.005, steps=10,
                            hessian_mode=mode)
            assert not part.failed
            chunked.extend(part.samples[1:] if chunked else part.samples)
            current = part.samples[-1].field
        assert not whole.failed and len(chunked) == len(whole.samples) == 151
        assert np.array_equal(np.stack([s.field.values for s in chunked]),
                              whole.values_matrix())
        assert [s.infidelity for s in chunked] == list(whole.infidelities())
        assert np.array_equal([s.secondary for s in chunked], whole.secondary_costs())

    @pytest.mark.parametrize("mode", ["exact", FdConfig(1e-2)])
    def test_repeated_stage_points_reuse_the_spectrum(self, qho48_solution, monkeypatch,
                                                      mode):
        # the compress stands still within its first steps, and its stage
        # points then alternate between two points; reusing the spectrum of
        # either leaves every output bit for bit the per-stage recomputation's
        problem, field = qho48_solution
        provider = SecondaryGradient(FourierObjective(FrequencySpec.closure([1, 2], 48)))
        steps = 150
        states, infidelities, points = reference_run(problem, field, provider, 0.005,
                                                     steps, mode)
        calls = count_hessians(monkeypatch, mode)
        traj = navigate(problem, field, provider, h=0.005, steps=steps, hessian_mode=mode)
        assert not traj.failed
        assert np.array_equal(traj.values_matrix(), states)
        assert list(traj.infidelities()) == infidelities
        assert len(calls) == new_points(points) < 4 * steps

    def test_moving_stage_points_recompute_the_spectrum(self, lz3_solution, monkeypatch):
        # a NullFollow drive never repeats a stage point or a sample: one
        # Hessian per stage and one field per sample
        problem, field = lz3_solution
        mode, steps = FdConfig(1e-2), 100
        states, _, points = reference_run(problem, field, NullFollow(), 0.01, steps, mode)
        calls = count_hessians(monkeypatch, mode)
        traj = navigate(problem, field, NullFollow(), h=0.01, steps=steps, hessian_mode=mode)
        assert not traj.failed
        assert np.array_equal(traj.values_matrix(), states)
        assert len(calls) == new_points(points) == 4 * steps
        fields = [s.field for s in traj.samples]
        assert not any(a is b for a, b in zip(fields, fields[1:]))

    @pytest.mark.parametrize("mode", ["exact", FdConfig(1e-2)])
    def test_a_step_that_returns_its_start_shares_its_sample(self, qho48_solution,
                                                             monkeypatch, mode):
        # once the compress stands still a step returns its start bit for bit;
        # its sample reuses the field and infidelity of the sample before, and
        # every output stays the per-sample recomputation's
        problem, field = qho48_solution
        objective = FourierObjective(FrequencySpec.closure([1, 2], 48))
        provider = SecondaryGradient(objective)
        steps = 150
        states, infidelities, _ = reference_run(problem, field, provider, 0.005, steps, mode)
        real, calls = type(problem).infidelity_of, []

        def counted(self, values):
            calls.append(1)
            return real(self, values)

        monkeypatch.setattr(type(problem), "infidelity_of", counted)
        traj = navigate(problem, field, provider, h=0.005, steps=steps, hessian_mode=mode)
        assert not traj.failed
        assert np.array_equal(traj.values_matrix(), states)
        assert list(traj.infidelities()) == infidelities
        assert np.array_equal(traj.secondary_costs(),
                              [objective.cost_of(x) for x in states])
        repeats = [states[i].tobytes() == states[i - 1].tobytes()
                   for i in range(1, steps + 1)]
        assert sum(repeats) > 0
        for before, after, repeat in zip(traj.samples, traj.samples[1:], repeats):
            assert (after.field is before.field) == repeat
            if repeat:
                assert after.infidelity == before.infidelity
        # the entry check, then one call per sample that moved
        assert len(calls) == 1 + steps - sum(repeats)

    def test_three_pulse_drive_equals_the_full_spectrum_path(self, lz3_solution, monkeypatch):
        # at M <= 4 the Ritz block is the whole space: the NullFollow loop is
        # bit for bit the one driven by eig_sym
        problem, field = lz3_solution
        ritz = navigate(problem, field, NullFollow(), h=0.01, steps=100,
                        hessian_mode=FdConfig(1e-2))
        monkeypatch.setattr(navigation, "_rank2_ritz", eig_sym)
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

    def test_consecutive_null_directions_stay_aligned(self, lz3_solution):
        problem, field = lz3_solution
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


class TestLzSignSymmetry:
    """I(-w) = I(w) bit for bit on the crossing, and its Hessian is unchanged,
    so a drive from -w along -a is the negation of the drive from w along a:
    an oracle-free check of the stencil or exact Hessian, the Ritz step, the
    projection and RK4 together.  M = 7 lies above `_DIRECT_STENCIL_MAX_M`,
    so its FD stencil runs the pair kernel, which takes the mirrored points
    in another order; exact mode is bitwise.  Time reversal is the second
    symmetry: I(reversed w) = I(w) to rounding (about 1e-26), and the Hessian
    is the reversed one, so a drive from reversed w along reversed a is the
    reversed drive.  That holds only to rounding: the largest state gap over
    three solutions per M (rng 75 and 76) was 8.9e-15 exact and 4.8e-14 FD."""

    @staticmethod
    def drive_pair(request, solution, mode, image):
        """300-step drives from the solution along a and from its image along a's image."""
        problem, field = request.getfixturevalue(solution)
        a = np.random.default_rng(15).normal(size=problem.n_pulses)
        mirrored = ControlField(values=image(field.values), total_time=field.total_time)
        runs = [navigate(problem, start, FixedVector(v), h=0.01, steps=300, hessian_mode=mode)
                for start, v in ((field, a), (mirrored, image(a)))]
        assert not any(run.failed for run in runs)
        assert [len(run.samples) for run in runs] == [301, 301]
        return runs

    @pytest.mark.parametrize("solution", ["lz3_solution", "lz7_solution"])
    @pytest.mark.parametrize("mode,tol", [("exact", 0.0), (FdConfig(1e-2), 1e-12)],
                             ids=["exact", "fd"])
    def test_negated_start_and_direction_negate_the_run(self, request, solution, mode, tol):
        pos, neg = self.drive_pair(request, solution, mode, np.negative)
        # at tol 0 both hold only bit for bit
        assert np.abs(neg.values_matrix() + pos.values_matrix()).max() <= tol
        assert np.abs(neg.infidelities() - pos.infidelities()).max() <= tol

    @pytest.mark.parametrize("solution", ["lz3_solution", "lz7_solution"])
    @pytest.mark.parametrize("mode", ["exact", FdConfig(1e-2)], ids=["exact", "fd"])
    def test_reversed_start_and_direction_reverse_the_run(self, request, solution, mode):
        run, rev = self.drive_pair(request, solution, mode, lambda v: v[::-1])
        assert np.abs(rev.values_matrix()[:, ::-1] - run.values_matrix()).max() <= 1e-12
        assert np.abs(rev.infidelities() - run.infidelities()).max() <= 1e-12


def curve_residual_and_jacobian(problem, x):
    """(Re z, Im z) and J = [Re grad z; Im grad z] at x, from the tests' own sweep."""
    z, dz = reference_z_and_dz(problem, x)
    return np.array([z.real, z.imag]), np.array([dz.real, dz.imag])


def onto_curve(problem, x):
    """x carried onto the solution set z = 0 by minimum-norm Newton steps; the
    steps converge quadratically, so after one below 1e-10 the next is rounding."""
    for _ in range(30):
        r, jac = curve_residual_and_jacobian(problem, x)
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        x = x + step
        if np.linalg.norm(step) < 1e-10:
            return x
    raise AssertionError("the Newton corrector did not converge")


def curve_tangent(problem, x, along):
    """Unit tangent Re grad z x Im grad z of an M = 3 solution curve, signed along `along`."""
    _, jac = curve_residual_and_jacobian(problem, x)
    t = np.cross(jac[0], jac[1])
    t /= np.linalg.norm(t)
    return t if t @ along > 0 else -t


def loop_polygon(problem, start, chord):
    """Perimeter of a polygon inscribed in the closed solution curve through
    `start`: predictor steps of length `chord` along the tangent, each
    corrected onto the curve, and a last chord that closes on `start`."""
    x = start
    t = curve_tangent(problem, x, np.ones(3))
    total = 0.0
    for _ in range(100_000):
        gap = start - x
        if np.linalg.norm(gap) <= chord and gap @ t > 0:
            return total + np.linalg.norm(gap)
        y = onto_curve(problem, x + chord * t)
        total += np.linalg.norm(y - x)
        x, t = y, curve_tangent(problem, y, t)
    raise AssertionError("the curve through the start did not close")


def loop_length(problem, start):
    """The loop's length L by Richardson extrapolation of inscribed polygons.

    A chord of length l falls short of its arc by kappa^2 l^3 / 24, so n
    equal chords fall short of L by O(n^-2) and two Richardson steps leave
    O(n^-6).  Equal chords need a first estimate of L, from a coarse polygon.
    """
    rough = loop_polygon(problem, start, 2e-2)
    p1, p2, p4 = (loop_polygon(problem, start, rough / n) for n in (100, 200, 400))
    r1, r2 = (4.0 * p2 - p1) / 3.0, (4.0 * p4 - p2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def return_zeta(traj):
    """The zeta at which a drive around a loop crosses back through the plane
    through its start normal to its first step, from a cubic in the four
    samples about the crossing."""
    xs = traj.values_matrix()
    zeta = np.array([s.zeta for s in traj.samples])
    t = (xs[1] - xs[0]) / np.linalg.norm(xs[1] - xs[0])
    s = (xs - xs[0]) @ t
    k = np.flatnonzero((s[1:-2] < 0.0) & (s[2:-1] >= 0.0))[-1] + 1
    window = slice(k - 1, k + 3)
    return float(np.polyval(np.polyfit(s[window], zeta[window], 3), 0.0))


class TestDriveReturn:
    """Where the drive goes along the solution set, which infidelity cannot see.

    The lz M = 3 solution curve through `lz3_solution` is a closed loop, and
    NullFollow moves at unit speed, so a drive should cross back through its
    start at zeta = L.  L comes from the tests' own sweep by continuation
    (`loop_length`): 1.20438324, to about 1e-9.  The drive starts from the solution carried
    onto the curve: the polished solution (I = 8e-19) sits 3.1e-8 off it, in
    the weak direction of a Hessian with lambda_2 / lambda_1 = 1.5e-3, and
    follows a neighbouring loop 1.5e-7 longer.

    The FD drive's error is the four-point stencil's O(eps^2) bias.  Measured
    at h = 0.01, zeta - L reads -7.50e-4, -1.87e-4 and -4.67e-5 at eps = 1e-2,
    5e-3 and 2.5e-3 (ratios 4.00 and 4.01), and +2.4e-7 in exact mode, which
    is RK4's error (1.2e-8 at h = 0.005).  Each drive takes 0.05-0.07 s, and L
    0.26 s.
    """

    def test_fd_return_error_falls_as_epsilon_squared(self, lz3_solution):
        problem, field = lz3_solution
        start = onto_curve(problem, field.values)
        length = loop_length(problem, start)
        begin = ControlField(values=start, total_time=field.total_time)

        def return_error(mode):
            traj = navigate(problem, begin, NullFollow(), h=0.01,
                            steps=int(length / 0.01) + 5, hessian_mode=mode)
            assert not traj.failed
            return return_zeta(traj) - length

        fd = [return_error(FdConfig(eps)) for eps in (1e-2, 5e-3, 2.5e-3)]
        for coarse, fine in zip(fd, fd[1:]):
            assert 3.5 <= coarse / fine <= 4.5, fd
        assert abs(return_error("exact")) < min(map(abs, fd)) / 10.0, fd


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
