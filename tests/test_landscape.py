import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.control import ControlField
from qcl.landscape import (FdConfig, HessianSpectrum, classify_null, eig_sym, eigvec_error,
                           fd_hessian)
from qcl.models import LzProblem, QhoProblem, chain_stencil_cost, hessian_of
from qcl.navigation import calibrate_epsilon
from qcl.optimizer import SeedSpec, minimize, polish, sample_seeds


class TestFdHessian:
    def test_exact_on_diagonal_quadratic(self):
        # the four-point stencil is exact on quadratics; remaining error is
        # cost round-off (~eps_mach) amplified by the 1/(4 eps^2) divisor
        a = np.array([0.5, -1.5, 2.0])
        cost = lambda w: float(np.sum(a * w * w))
        for eps in (1e-4, 1e-2, 0.5):
            h = fd_hessian(cost, np.array([0.3, -0.7, 1.1]), FdConfig(eps))
            assert np.abs(h - np.diag(2 * a)).max() < 5e-15 / eps**2 + 1e-12

    def test_exact_on_bilinear(self):
        cost = lambda w: float(w[0] * w[1])
        h = fd_hessian(cost, np.array([2.0, -3.0]), FdConfig(1e-2))
        assert h[0, 1] == pytest.approx(1.0, abs=1e-10)
        assert h[1, 0] == pytest.approx(1.0, abs=1e-10)
        assert abs(h[0, 0]) < 1e-9 and abs(h[1, 1]) < 1e-9

    def test_matches_exact_hessian_on_models(self):
        rng = np.random.default_rng(31)
        for problem, lo, hi in [
            (LzProblem(gap=2.0, duration=1.8, n_pulses=6), -5.0, 5.0),
            (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6),
             0.1, 3.0),
        ]:
            values = rng.uniform(lo, hi, 6)
            fd = fd_hessian(problem.infidelity_of, values, FdConfig(1e-3))
            assert np.abs(fd - hessian_of(problem, values)).max() <= 1e-6

    def test_all_three_paths_agree(self):
        rng = np.random.default_rng(32)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=5)
        values = rng.uniform(0.1, 3.0, 5)
        config = FdConfig(1e-2)
        scalar = fd_hessian(problem.infidelity_of, values, config)
        structured = fd_hessian(problem.infidelity_of, values, config,
                                stencil_cost=chain_stencil_cost(problem))
        assert np.abs(scalar - structured).max() < 1e-9

    def test_nonfinite_cost_rejected(self):
        cost = lambda w: float("nan") if w[0] > 1.0 else 0.0
        with pytest.raises(ValueError, match="non-finite"):
            fd_hessian(cost, np.array([0.999, 0.0]), FdConfig(0.1))

    def test_fd_agreement_window(self):
        # the entrywise error follows C (eps^2 + u / eps^2): quadratic
        # truncation everywhere (measured C <= 0.8 over both models' seed
        # ranges), with the hard 1e-5 bound holding on the lower part of the
        # window where C eps^2 stays under it
        rng = np.random.default_rng(33)
        problems = [
            (LzProblem(gap=2.0, duration=1.8, n_pulses=6), -5.0, 5.0),
            (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6),
             0.1, 3.0),
        ]
        for problem, lo, hi in problems:
            stencil = chain_stencil_cost(problem)
            for _ in range(20):
                values = rng.uniform(lo, hi, 6)
                exact = hessian_of(problem, values)
                for eps in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
                    fd = fd_hessian(problem.infidelity_of, values, FdConfig(eps),
                                    stencil_cost=stencil)
                    err = np.abs(fd - exact).max()
                    assert err <= 1.0 * eps**2 + 1e-13 / eps**2
                    if eps <= 3e-3:
                        assert err <= 1e-5

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            FdConfig(0.0)
        with pytest.raises(ValueError):
            FdConfig(-1e-3)


class TestEigSym:
    def test_identity(self):
        spec = eig_sym(np.eye(4))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert np.abs(spec.vectors @ spec.vectors.T - np.eye(4)).max() < 1e-12

    def test_known_diagonal_ordering(self):
        spec = eig_sym(np.diag([3.0, -2.0, 0.0]))
        assert np.allclose(spec.eigenvalues, [3.0, -2.0, 0.0])
        for i, axis in enumerate([0, 1, 2]):
            assert abs(abs(spec.vectors[i][axis]) - 1.0) < 1e-12

    def test_reconstruction_and_residuals(self):
        rng = np.random.default_rng(35)
        a = rng.normal(size=(6, 6))
        a = 0.5 * (a + a.T)
        spec = eig_sym(a)
        recon = spec.vectors.T @ np.diag(spec.eigenvalues) @ spec.vectors
        norm = np.linalg.norm(a)
        assert np.linalg.norm(recon - a) <= 1e-10 * norm
        gram = spec.vectors @ spec.vectors.T
        assert np.abs(gram - np.eye(6)).max() <= 1e-9
        lam_max = np.abs(spec.eigenvalues).max()
        for lam, v in zip(spec.eigenvalues, spec.vectors):
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * max(1.0, lam_max)

    def test_sorted_by_descending_magnitude(self):
        rng = np.random.default_rng(36)
        a = rng.normal(size=(8, 8))
        a = a + a.T
        spec = eig_sym(a)
        mags = np.abs(spec.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_rejects_asymmetric(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_sym(np.zeros((2, 3)))


class TestClassifyNull:
    def test_threshold_example(self):
        spec = HessianSpectrum(eigenvalues=np.array([1.0, 0.5, 1e-12]),
                               vectors=np.eye(3))
        out = classify_null(spec, tau_rel=1e-6)
        assert list(out.nonnull_indices()) == [0, 1]
        assert list(out.null_indices()) == [2]

    def test_rank_mode(self):
        spec = HessianSpectrum(eigenvalues=np.array([1.0, 0.5, 0.3]), vectors=np.eye(3))
        out = classify_null(spec, rank=2)
        assert list(out.nonnull_indices()) == [0, 1]

    def test_all_zero_matrix_is_all_null(self):
        out = classify_null(eig_sym(np.zeros((4, 4))))
        assert out.null_mask.all()

    def test_rank_exceeding_dimension(self):
        spec = HessianSpectrum(eigenvalues=np.zeros(3), vectors=np.eye(3))
        with pytest.raises(ValueError):
            classify_null(spec, rank=4)

    def test_mutually_exclusive_rules(self):
        spec = HessianSpectrum(eigenvalues=np.zeros(3), vectors=np.eye(3))
        with pytest.raises(ValueError):
            classify_null(spec, tau_rel=1e-6, rank=2)

    def test_default_is_threshold(self):
        spec = HessianSpectrum(eigenvalues=np.array([2.0, 1e-7, 1e-12]), vectors=np.eye(3))
        out = classify_null(spec)
        assert list(out.nonnull_indices()) == [0]


class TestEigvecError:
    def _classified(self, eigenvalues, vectors):
        return classify_null(HessianSpectrum(eigenvalues=np.asarray(eigenvalues, float),
                                             vectors=np.asarray(vectors, float)),
                             tau_rel=1e-6)

    def test_identical_spectra_have_zero_error(self):
        spec = self._classified([2.0, 1.0, 1e-12], np.eye(3))
        assert eigvec_error(spec, spec, 0) == pytest.approx(0.0, abs=1e-15)
        assert eigvec_error(spec, spec, 1) == pytest.approx(0.0, abs=1e-15)

    def test_sign_flip_invariance(self):
        exact = self._classified([2.0, 1.0, 1e-12], np.eye(3))
        flipped = self._classified([2.0, 1.0, 1e-12], np.diag([1.0, -1.0, 1.0]))
        assert eigvec_error(exact, flipped, 1) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers())
    def test_independent_sign_flips(self, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        exact = classify_null(eig_sym(a), rank=4)
        signs = rng.choice([-1.0, 1.0], size=4)
        approx = HessianSpectrum(eigenvalues=exact.eigenvalues,
                                 vectors=signs[:, None] * exact.vectors)
        i = int(rng.integers(0, 4))
        try:
            assert eigvec_error(exact, approx, i) == pytest.approx(0.0, abs=1e-12)
        except ValueError:
            pass  # a random matrix may trip the degeneracy guard

    def test_null_index_rejected(self):
        spec = self._classified([2.0, 1.0, 1e-12], np.eye(3))
        with pytest.raises(ValueError, match="null"):
            eigvec_error(spec, spec, 2)

    def test_degenerate_pair_rejected(self):
        spec = self._classified([1.0, 1.0 + 1e-12, 1e-12], np.eye(3))
        with pytest.raises(ValueError, match="degenerate"):
            eigvec_error(spec, spec, 0)

    def test_unclassified_rejected(self):
        spec = HessianSpectrum(eigenvalues=np.array([1.0, 0.5]), vectors=np.eye(2))
        with pytest.raises(ValueError):
            eigvec_error(spec, spec, 0)


@pytest.fixture(scope="module")
def solution():
    problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)
    seeds = sample_seeds(SeedSpec(count=8, bounds=(0.1, 3.0), rng_seed=51), problem)
    for s in seeds:
        rep = minimize(problem, s, tol=1e-6, max_iter=2000)
        if rep.converged:
            return problem, polish(problem, rep.field).field
    raise RuntimeError("no solution found")


class TestCalibration:
    def test_zero_direction_rejected(self, solution):
        problem, field = solution
        with pytest.raises(ValueError, match="non-zero"):
            calibrate_epsilon(problem, field, np.zeros(6), [1e-2], steps=1, h=0.1)

    def test_non_solution_rejected(self, solution):
        problem, _ = solution
        bad = ControlField(values=np.full(6, 2.5), total_time=1.8)
        with pytest.raises(ValueError, match="infidelity"):
            calibrate_epsilon(problem, bad, np.ones(6), [1e-2], steps=1, h=0.1)

    def test_u_shape(self, solution):
        problem, field = solution
        rng = np.random.default_rng(52)
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        rows = calibrate_epsilon(problem, field, direction,
                                 [1e-10, 1e-4, 1e-2, 0.5], steps=150, h=0.1)
        final = dict((f"{e:.0e}", v) for e, v in rows)
        assert final["1e-04"] < 1e-6
        assert final["1e-02"] < 1e-6
        assert final["1e-10"] > 1e-3  # round-off dominated step degrades the run
        assert len(rows) == 4 and all(np.isfinite(e) for e, _ in rows)
