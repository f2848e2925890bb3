import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.control import ControlField, FrequencySpec, Spectrum, dft, power


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
        # dt is computed from T and M on every access, never stored, so the
        # pair (T, M) fully determines it
        f = ControlField(values=[1.0, 2.0, 3.0], total_time=1.8)
        assert f.dt == f.total_time / f.n_pulses
        assert ControlField.__slots__ == ("values", "total_time")
        assert isinstance(ControlField.dt, property)
        assert f.dt * f.n_pulses == pytest.approx(f.total_time, rel=1e-15)

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


class TestDft:
    def test_constant_field_concentrates_at_zero(self):
        for m in (1, 4, 9):
            spec = dft(ControlField(values=np.full(m, 2.5), total_time=1.0))
            assert spec.components[0] == pytest.approx(m * 2.5, rel=1e-12)
            assert np.all(np.abs(spec.components[1:]) < 1e-10 * m)

    def test_delta_input_is_flat(self):
        vals = np.zeros(8)
        vals[0] = 1.0
        spec = dft(ControlField(values=vals, total_time=1.0))
        assert np.allclose(spec.components, 1.0, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        vals = rng.uniform(-5, 5, 8)
        got = dft(ControlField(values=vals, total_time=1.0)).components
        want = brute_dft(vals)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_parseval(self, m, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        vals = rng.uniform(-5, 5, m)
        comps = dft(ControlField(values=vals, total_time=1.0)).components
        lhs = float(np.sum(np.abs(comps) ** 2))
        rhs = m * float(np.sum(vals**2))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=32), st.integers())
    def test_conjugate_symmetry(self, m, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        comps = dft(ControlField(values=rng.uniform(-3, 3, m), total_time=1.0)).components
        for k in range(m):
            assert comps[k] == pytest.approx(np.conj(comps[(m - k) % m]), abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=12), rng.normal(size=12)
        a, b = 1.7, -0.3
        lhs = dft(ControlField(values=a * u + b * v, total_time=1.0)).components
        rhs = (a * dft(ControlField(values=u, total_time=1.0)).components
               + b * dft(ControlField(values=v, total_time=1.0)).components)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


class TestPower:
    def test_constant_field(self):
        spec = dft(ControlField(values=np.full(5, 3.0), total_time=1.0))
        assert power(spec, 1) == pytest.approx(0.0, abs=1e-18)
        assert power(spec, 0) == pytest.approx(25.0 * 9.0, rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(-2, 2, 8)
        spec = dft(ControlField(values=vals, total_time=1.0))
        want = np.abs(brute_dft(vals)) ** 2
        for k in range(8):
            assert power(spec, k) == pytest.approx(want[k], rel=1e-11, abs=1e-12)

    def test_index_out_of_range(self):
        spec = Spectrum(components=np.ones(4, dtype=complex))
        with pytest.raises(IndexError):
            power(spec, 4)
        with pytest.raises(IndexError):
            power(spec, -1)


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
