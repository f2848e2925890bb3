import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.control import ControlField
from qcl import landscape
from qcl.landscape import (FdConfig, HessianSpectrum, NonFiniteCost, _eigh, _orthonormal,
                           _symmetrised, classify_null, eig_sym, eigvec_error, fd_hessian,
                           pointwise_stencil, rank2_ritz)
from qcl.models import LzProblem, QhoProblem, chain_stencil_cost, hessian_of
from qcl.navigation import FixedVector, calibrate_epsilon, navigate, project
from qcl.optimizer import SeedSpec, minimize, polish, sample_seeds


class TestFdHessian:
    def test_exact_on_diagonal_quadratic(self):
        # the four-point stencil is exact on quadratics; remaining error is
        # cost round-off (~eps_mach) amplified by the 1/(4 eps^2) divisor
        a = np.array([0.5, -1.5, 2.0])
        cost = lambda w: float(np.sum(a * w * w))
        for eps in (1e-4, 1e-2, 0.5):
            h = fd_hessian(pointwise_stencil(cost), np.array([0.3, -0.7, 1.1]), FdConfig(eps))
            assert np.abs(h - np.diag(2 * a)).max() < 5e-15 / eps**2 + 1e-12

    def test_exact_on_bilinear(self):
        cost = lambda w: float(w[0] * w[1])
        h = fd_hessian(pointwise_stencil(cost), np.array([2.0, -3.0]), FdConfig(1e-2))
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
            fd = fd_hessian(pointwise_stencil(problem.infidelity_of), values, FdConfig(1e-3))
            assert np.abs(fd - hessian_of(problem, values)).max() <= 1e-6

    def test_all_three_paths_agree(self):
        rng = np.random.default_rng(32)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=5)
        values = rng.uniform(0.1, 3.0, 5)
        config = FdConfig(1e-2)
        scalar = fd_hessian(pointwise_stencil(problem.infidelity_of), values, config)
        structured = fd_hessian(chain_stencil_cost(problem), values, config)
        assert np.abs(scalar - structured).max() < 1e-9

    def test_nonfinite_cost_rejected(self):
        cost = lambda w: float("nan") if w[0] > 1.0 else 0.0
        with pytest.raises(ValueError, match="non-finite"):
            fd_hessian(pointwise_stencil(cost), np.array([0.999, 0.0]), FdConfig(0.1))

    @staticmethod
    def stub_stencil(m, bad=None, where=None):
        """A stencil evaluator with random finite costs, its pairs packed as
        (P, 2, 2), and `bad` in the centre, in single 3 or in the cost
        (s, t) = (0, 1) of the pair (1, 2)."""
        rng = np.random.default_rng(34)
        center, singles = rng.random(), rng.random(2 * m)
        pairs = rng.random((m * (m - 1) // 2, 2, 2))
        if where == "center":
            center = bad
        elif where == "single":
            singles[3] = bad
        elif where == "pair":
            pairs[m - 1, 0, 1] = bad   # after the pairs (0, 1) ... (0, m - 1)
        return lambda point, s_idx, s_val, p_val: (center, singles, pairs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["center", "single", "pair"])
    def test_one_non_finite_cost_raises(self, bad, where):
        stencil = self.stub_stencil(4, bad, where)
        with pytest.raises(NonFiniteCost):
            fd_hessian(stencil, np.zeros(4), FdConfig(0.1))

    def test_packed_pairs_assemble_as_an_explicit_loop(self):
        m, eps = 4, 0.1
        stencil = self.stub_stencil(m)
        center, singles, pairs = stencil(None, None, None, None)
        h = fd_hessian(stencil, np.zeros(m), FdConfig(eps))
        inv = 1.0 / (4.0 * eps * eps)
        want = np.zeros((m, m))
        p = 0
        for i in range(m):
            want[i, i] = (singles[2 * i] - 2.0 * center + singles[2 * i + 1]) * inv
            for j in range(i + 1, m):
                c = pairs[p]
                want[i, j] = want[j, i] = (c[0, 0] - c[0, 1] - c[1, 0] + c[1, 1]) * inv
                p += 1
        assert np.array_equal(h, want)

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
                    fd = fd_hessian(stencil, values, FdConfig(eps))
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


class TestSymmetrised:
    def test_symmetric_input_gives_the_bits_of_the_average(self):
        rng = np.random.default_rng(38)
        problem = QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=6)
        a = rng.normal(size=(7, 7))
        values = rng.uniform(0.1, 3.0, 6)
        for sym in (a + a.T, hessian_of(problem, values),
                    fd_hessian(chain_stencil_cost(problem), values, FdConfig(1e-3))):
            assert (0.5 * (sym + sym.T)).tobytes() == _symmetrised(sym).tobytes()

    def test_near_symmetric_input_is_averaged(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
        assert np.array_equal(_symmetrised(a), 0.5 * (a + a.T))

    def test_still_rejects_a_defect_of_1e_minus_7(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-7, 3.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            _symmetrised(a)

    @pytest.mark.parametrize("m", [4, 48])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["pair", "diagonal"])
    def test_a_non_finite_matrix_is_rejected(self, m, bad, where):
        # eigh gave [1, 1, nan, nan] for a 4x4 identity with a NaN pair: a
        # fake non-null pair; a symmetric inf pair gave all NaN
        a = np.eye(m)
        if where == "pair":
            a[2, 3] = a[3, 2] = bad
        else:
            a[m - 1, m - 1] = bad
        for decompose in (eig_sym, rank2_ritz):
            with pytest.raises(ValueError, match="non-finite"):
                decompose(a)


def _projector(spectrum):
    v = spectrum.vectors[:2]
    return v.T @ v


@pytest.fixture(scope="module")
def ritz_solutions():
    """One deep solution per model at M in {3, 6, 48, 96}."""
    out = []
    for m in (3, 6, 48, 96):
        for problem, bounds in [
            (LzProblem(gap=2.0, duration=1.8, n_pulses=m), (-5.0, 5.0)),
            (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8, n_pulses=m),
             (0.1, 3.0)),
        ]:
            for s in sample_seeds(SeedSpec(count=20, bounds=bounds, rng_seed=81), problem):
                rep = minimize(problem, s, tol=1e-6, max_iter=2000)
                deep = polish(problem, rep.field) if rep.converged else None
                if deep is not None and deep.converged:
                    out.append((problem, deep.field.values))
                    break
            else:
                raise RuntimeError(f"no solution found for {problem}")
    return out


class TestRank2Ritz:
    def test_projector_matches_eig_sym_at_solutions(self, ritz_solutions):
        rng = np.random.default_rng(37)
        for problem, values in ritz_solutions:
            m = values.size
            for hess in (hessian_of(problem, values),
                         fd_hessian(chain_stencil_cost(problem), values, FdConfig(1e-2))):
                full = eig_sym(hess)
                ritz = rank2_ritz(hess)
                assert ritz.vectors.shape == ((m, m) if m < 32 else (4, m))
                assert np.abs(_projector(ritz) - _projector(full)).max() <= 1e-8
                a = rng.normal(size=m)
                assert np.abs(project(a, ritz) - project(a, full)).max() <= 1e-8
                assert np.allclose(ritz.eigenvalues[:2], full.eigenvalues[:2],
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 31])
    def test_small_dimension_is_eig_sym_bit_for_bit(self, m):
        # below M = 32 rank2_ritz takes one full eigh
        rng = np.random.default_rng(38 + m)
        for _ in range(20):
            a = rng.normal(size=(m, m))
            a = a + a.T
            full = eig_sym(a)
            ritz = rank2_ritz(a)
            assert np.array_equal(ritz.eigenvalues, full.eigenvalues)
            assert np.array_equal(ritz.vectors, full.vectors)
            x = rng.normal(size=m)
            assert np.array_equal(project(x, ritz), project(x, full))

    def test_ritz_pairs_of_a_large_matrix(self):
        # an exactly rank-2 matrix plus a small remainder: orthonormal rows,
        # the two dominant pairs in rows 0 and 1, the third value below lambda_3
        rng = np.random.default_rng(39)
        m = 48
        basis = np.linalg.qr(rng.normal(size=(m, m)))[0]
        lam = np.concatenate([[3.0, -1.5], 1e-3 * rng.uniform(0.0, 1.0, m - 2)])
        a = basis @ np.diag(lam) @ basis.T
        spec = rank2_ritz(a)
        assert rank2_ritz(a[:32, :32]).vectors.shape == (4, 32)
        assert spec.vectors.shape == (4, m)
        assert np.abs(spec.vectors @ spec.vectors.T - np.eye(4)).max() <= 1e-12
        assert np.abs(spec.eigenvalues[:2] - [3.0, -1.5]).max() <= 1e-12
        assert abs(spec.eigenvalues[2]) <= np.sort(lam[2:])[-1] * (1 + 1e-12)
        assert np.abs(_projector(spec) - basis[:, :2] @ basis[:, :2].T).max() <= 1e-8

    def test_depends_on_the_matrix_alone(self):
        rng = np.random.default_rng(40)
        a = rng.normal(size=(40, 40))
        a = a + a.T
        first = rank2_ritz(a)
        for m in (6, 40, 60):
            b = rng.normal(size=(m, m))
            rank2_ritz(b + b.T)
        again = rank2_ritz(a.copy())
        assert np.array_equal(first.eigenvalues, again.eigenvalues)
        assert np.array_equal(first.vectors, again.vectors)

    def test_rejects_asymmetric_and_too_small(self):
        a = np.zeros((6, 6))
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            rank2_ritz(a)
        with pytest.raises(ValueError, match="exceeds dimension"):
            rank2_ritz(np.ones((1, 1)))
        with pytest.raises(ValueError):
            rank2_ritz(np.zeros((2, 3)))


def _rank2(m, seed):
    """B diag(3, -1.5, 0, ..., 0) B^T for a random orthogonal B: rank two."""
    basis = np.linalg.qr(np.random.default_rng(seed).normal(size=(m, m)))[0]
    return (basis[:, :2] * [3.0, -1.5]) @ basis[:, :2].T


def _public_eigh(sym):
    try:
        return np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigendecomposition did not converge") from exc


class TestLapackHelpers:
    """`_orthonormal` and `_eigh` call numpy's LAPACK gufuncs directly; they
    must give the bits of `np.linalg.qr(y)[0]` and `np.linalg.eigh`."""

    @pytest.mark.parametrize("m", [32, 48, 96])
    def test_orthonormal_is_the_q_of_np_linalg_qr(self, m):
        rng = np.random.default_rng(50 + m)
        omega = rng.normal(size=(m, 4))
        for y in (omega, _rank2(m, m) @ omega, np.zeros((m, 4))):
            q = _orthonormal(y)
            assert np.array_equal(q, np.linalg.qr(y)[0])

    def test_orthonormal_at_solution_hessians(self, ritz_solutions):
        for problem, values in ritz_solutions:
            if values.size >= 32:
                hess = hessian_of(problem, values)
                y = hess @ np.random.default_rng(values.size).normal(size=(values.size, 4))
                assert np.array_equal(_orthonormal(y), np.linalg.qr(y)[0])

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 31, 48])
    def test_eigh_is_np_linalg_eigh(self, m):
        rng = np.random.default_rng(60 + m)
        a = rng.normal(size=(m, m))
        cases = [a + a.T, _rank2(m, m)]
        if m == 4:
            # the 4x4 q^T H q of `rank2_ritz` at a rank-2 H: two values at rounding level
            hess = _rank2(48, 1)
            q = _orthonormal(hess @ np.random.default_rng(2).normal(size=(48, 4)))
            small = q.T @ hess @ q
            cases.append(0.5 * (small + small.T))
        for sym in cases:
            vals, vecs = _eigh(sym)
            ref_vals, ref_vecs = np.linalg.eigh(sym)
            assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)

    def test_arguments_are_left_alone(self):
        # geqrf works in place, and an exactly symmetric matrix reaches the
        # factorisations as the caller's own array
        rng = np.random.default_rng(70)
        y = rng.normal(size=(48, 4))
        kept = y.copy()
        _orthonormal(y)
        assert np.array_equal(y, kept)
        for m in (6, 48):
            a = rng.normal(size=(m, m))
            a = a + a.T
            assert _symmetrised(a) is a
            kept = a.copy()
            for decompose in (eig_sym, rank2_ritz, _eigh):
                decompose(a)
                assert np.array_equal(a, kept)

    @pytest.mark.parametrize("caller", ["ignore", "warn", "raise"])
    def test_nan_matrix_raises_did_not_converge_without_warning(self, caller):
        with warnings.catch_warnings(record=True) as caught, np.errstate(all=caller):
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="did not converge"):
                _eigh(np.full((4, 4), np.nan))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("fill", ["zero", "tiny", "huge_identity"])
    def test_extreme_scales_give_the_public_routines_spectra(self, fill, monkeypatch):
        m = 48
        a = {"zero": np.zeros((m, m)), "tiny": np.full((m, m), 1e-300),
             "huge_identity": 1e300 * np.eye(m)}[fill]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = [eig_sym(a), rank2_ritz(a)]
        monkeypatch.setattr(landscape, "_orthonormal", lambda y: np.linalg.qr(y)[0])
        monkeypatch.setattr(landscape, "_eigh", _public_eigh)
        for got, want in zip(fast, [eig_sym(a), rank2_ritz(a)]):
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.vectors, want.vectors)

    def test_no_public_linalg_call_on_the_projector_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("public np.linalg wrapper called")

        a = _rank2(48, 3)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert rank2_ritz(a).vectors.shape == (4, 48)
        assert eig_sym(a[:6, :6]).size == 6


class TestClassifyNull:
    def test_threshold_example(self):
        spec = HessianSpectrum(eigenvalues=np.array([1.0, 0.5, 1e-12]),
                               vectors=np.eye(3))
        out = classify_null(spec, tau_rel=1e-6)
        assert list(out) == [False, False, True]

    def test_all_zero_matrix_is_all_null(self):
        out = classify_null(eig_sym(np.zeros((4, 4))))
        assert out.all()

    def test_default_is_threshold(self):
        spec = HessianSpectrum(eigenvalues=np.array([2.0, 1e-7, 1e-12]), vectors=np.eye(3))
        out = classify_null(spec)
        assert list(out) == [False, True, True]

    def test_rank_exceeding_dimension(self):
        # the threshold reading has no rank, so a 1x1 spectrum is read as is;
        # the rank-2 premise, which rank2_ritz encodes, cannot fit in it
        spec = HessianSpectrum(eigenvalues=np.array([1.0]), vectors=np.eye(1))
        assert list(classify_null(spec)) == [False]
        with pytest.raises(ValueError, match="exceeds dimension"):
            rank2_ritz(np.ones((1, 1)))

    def test_threshold_is_the_only_rule(self):
        spec = HessianSpectrum(eigenvalues=np.array([1.0, 0.5, 0.3]), vectors=np.eye(3))
        with pytest.raises(TypeError):
            classify_null(spec, rank=2)


class TestEigvecError:
    def _spectrum(self, eigenvalues, vectors):
        return HessianSpectrum(eigenvalues=np.asarray(eigenvalues, float),
                               vectors=np.asarray(vectors, float))

    def test_identical_spectra_have_zero_error(self):
        spec = self._spectrum([2.0, 1.0, 1e-12], np.eye(3))
        assert eigvec_error(spec, spec, 0) == pytest.approx(0.0, abs=1e-15)
        assert eigvec_error(spec, spec, 1) == pytest.approx(0.0, abs=1e-15)

    def test_sign_flip_invariance(self):
        exact = self._spectrum([2.0, 1.0, 1e-12], np.eye(3))
        flipped = self._spectrum([2.0, 1.0, 1e-12], np.diag([1.0, -1.0, 1.0]))
        assert eigvec_error(exact, flipped, 1) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers())
    def test_independent_sign_flips(self, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        exact = eig_sym(a)
        signs = rng.choice([-1.0, 1.0], size=4)
        approx = HessianSpectrum(eigenvalues=exact.eigenvalues,
                                 vectors=signs[:, None] * exact.vectors)
        i = int(rng.integers(0, 2))
        try:
            assert eigvec_error(exact, approx, i) == pytest.approx(0.0, abs=1e-12)
        except ValueError:
            pass  # a random matrix may trip the degeneracy guard

    def test_null_index_rejected(self):
        # rows 0 and 1 are the non-null pair; every other index is null
        spec = self._spectrum([2.0, 1.0, 0.5], np.eye(3))
        for i in (2, -1):
            with pytest.raises(ValueError, match="null"):
                eigvec_error(spec, spec, i)

    def test_unclassified_rejected(self):
        # a spectrum of fewer than two rows holds no non-null pair
        one = self._spectrum([1.0], np.eye(1))
        two = self._spectrum([1.0, 0.5], np.eye(2))
        for exact, approx in ((one, one), (two, one), (one, two)):
            for i in (0, 1):
                with pytest.raises(ValueError, match="exceeds dimension"):
                    eigvec_error(exact, approx, i)

    def test_degenerate_pair_rejected(self):
        spec = self._spectrum([1.0, 1.0 + 1e-12, 1e-12], np.eye(3))
        with pytest.raises(ValueError, match="degenerate"):
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

    def test_rank_collapse_is_recorded_as_infinite(self, solution):
        # at eps = 1e-10 the stencil is rounding noise, so the Hessian loses its
        # rank-2 structure and the run ends with RANK_COLLAPSE
        problem, field = solution
        direction = np.random.default_rng(52).normal(size=6)
        direction /= np.linalg.norm(direction)
        traj = navigate(problem, field, FixedVector(direction), h=0.1, steps=150,
                        hessian_mode=FdConfig(1e-10), abort_ceiling=np.inf)
        assert traj.failed and traj.failure_code == "RANK_COLLAPSE"
        rows = calibrate_epsilon(problem, field, direction, [1e-10], steps=150, h=0.1)
        assert rows == [(1e-10, np.inf)]
