import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.control import ControlField, FrequencySpec
from qcl.models import LzProblem
from qcl.objectives import FourierObjective


def brute_dft(values):
    """Independent double-loop oracle for the unnormalized DFT."""
    m = len(values)
    out = []
    for k in range(m):
        acc = 0j
        for n in range(m):
            acc += values[n] * cmath.exp(-2j * cmath.pi * k * n / m)
        out.append(acc)
    return np.array(out)


class TestControlField:
    def test_dt_is_derived(self):
        # a field stores only its amplitudes and T; the interval length T/M is
        # computed by the problem on every access, never stored
        f = ControlField(values=[1.0, 2.0, 3.0], total_time=1.8)
        assert ControlField.__slots__ == ("values", "total_time")
        problem = LzProblem(gap=1.0, duration=f.total_time, n_pulses=f.n_pulses)
        assert problem.dt == f.total_time / f.n_pulses

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ControlField(values=[], total_time=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ControlField(values=[1.0, np.inf], total_time=1.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            ControlField(values=[1.0], total_time=0.0)
        with pytest.raises(ValueError):
            ControlField(values=[1.0], total_time=-2.0)
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="total_time must be positive and finite"):
                ControlField(values=[1.0], total_time=t)

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError, match="at least one amplitude"):
            ControlField(values=np.ones((2, 3)), total_time=1.0)

    def test_scalar_value_is_one_amplitude(self):
        f = ControlField(values=np.float64(0.7), total_time=1.0)
        assert f.values.shape == (1,) and f.values[0] == 0.7

    def test_values_are_read_only(self):
        f = ControlField(values=[1.0, 2.0], total_time=1.0)
        with pytest.raises(ValueError):
            f.values[0] = 9.0

    def test_values_do_not_alias_the_callers_array(self):
        caller = np.array([1.0, 2.0])
        f = ControlField(values=caller, total_time=1.0)
        assert not np.shares_memory(f.values, caller)
        caller[0] = 9.0
        assert f.values[0] == 1.0 and caller.flags.writeable


def excluded_spectrum(values):
    """X_1 .. X_{M-1} from the factor G of the objective that keeps only index 0.

    G stacks the rows cos(2 pi k n / M), then sin(2 pi k n / M), of every
    excluded k, so X_k = (G w)_k - i (G w)_{M-1+k}.
    """
    m = len(values)
    r = FourierObjective(FrequencySpec.closure([], m)).factor @ np.asarray(values, dtype=float)
    return r[:m - 1] - 1j * r[m - 1:]


class TestDft:
    # the transform behind the spectral penalty, read off FourierObjective.factor
    def test_constant_field_concentrates_at_zero(self):
        for m in (1, 4, 9):
            assert np.all(np.abs(excluded_spectrum(np.full(m, 2.5))) < 1e-10 * m)

    def test_delta_input_is_flat(self):
        vals = np.zeros(8)
        vals[0] = 1.0
        assert np.allclose(excluded_spectrum(vals), 1.0, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        vals = rng.uniform(-5, 5, 8)
        got = excluded_spectrum(vals)
        want = brute_dft(vals)[1:]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_parseval(self, m, seed):
        # ||G w||^2 is the power outside index 0, and |X_0|^2 = (sum w)^2
        rng = np.random.default_rng(abs(seed) % 2**32)
        vals = rng.uniform(-5, 5, m)
        obj = FourierObjective(FrequencySpec.closure([], m))
        lhs = obj.cost_of(vals) + float(np.sum(vals)) ** 2
        rhs = m * float(np.sum(vals**2))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=32), st.integers())
    def test_conjugate_symmetry(self, m, seed):
        # X_k = conj(X_{M-k}), so |X_k| = |X_{M-k}|: FrequencySpec's mirror closure
        rng = np.random.default_rng(abs(seed) % 2**32)
        comps = np.concatenate(([0.0], excluded_spectrum(rng.uniform(-3, 3, m))))
        for k in range(1, m):
            assert comps[k] == pytest.approx(np.conj(comps[m - k]), abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=12), rng.normal(size=12)
        a, b = 1.7, -0.3
        g = FourierObjective(FrequencySpec.closure([], 12)).factor
        lhs = g @ (a * u + b * v)
        rhs = a * (g @ u) + b * (g @ v)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


class TestPower:
    def test_matches_oracle(self):
        # |X_k|^2 of each excluded k is the sum of squares of its cos and sin rows of G
        rng = np.random.default_rng(8)
        vals = rng.uniform(-2, 2, 8)
        got = np.abs(excluded_spectrum(vals)) ** 2
        want = np.abs(brute_dft(vals)) ** 2
        for k in range(1, 8):
            assert got[k - 1] == pytest.approx(want[k], rel=1e-11, abs=1e-12)


class TestFrequencySpec:
    def test_closure_adds_zero_and_mirror(self):
        spec = FrequencySpec.closure([1, 2], 48)
        assert spec.kept == frozenset({0, 1, 2, 46, 47})

    def test_closure_is_idempotent_under_mirror_relabeling(self):
        a = FrequencySpec.closure([1, 2], 16)
        b = FrequencySpec.closure([15, 2], 16)
        assert a.kept == b.kept

    def test_single_frequency(self):
        spec = FrequencySpec.closure([1], 8)
        assert spec.kept == frozenset({0, 1, 7})
        assert spec.excluded == (2, 3, 4, 5, 6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FrequencySpec.closure([8], 8)
        with pytest.raises(ValueError):
            FrequencySpec.closure([-1], 8)

    def test_direct_constructor_enforces_invariants(self):
        with pytest.raises(ValueError):
            FrequencySpec(m=8, kept=frozenset({1}))  # no 0
        with pytest.raises(ValueError):
            FrequencySpec(m=8, kept=frozenset({0, 1}))  # not mirror-closed

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=64),
           st.lists(st.integers(min_value=0, max_value=63), min_size=0, max_size=5))
    def test_closure_invariants(self, m, raw):
        raw = [k % m for k in raw]
        spec = FrequencySpec.closure(raw, m)
        assert 0 in spec.kept
        assert {(m - k) % m for k in spec.kept} == set(spec.kept)
