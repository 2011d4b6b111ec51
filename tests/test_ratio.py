import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortblock import (
    ConfigError,
    MissingDataError,
    Polynomial,
    RatioPolicy,
    evaluate_ratio,
    fit_ratio_policy,
    load_policy,
    measure_l1_curve,
    poly_eval,
    save_policy,
)
from sortblock.ratio import fit_residual
from sortblock.trace import RunTrace, StepRecord


def _synthetic_trace(outputs, timesteps=None):
    n = len(outputs)
    timesteps = timesteps if timesteps is not None else [1000 - 10 * i for i in range(n)]
    steps = [
        StepRecord(step=i, timestep=timesteps[i], phase="full", flags=[1], scores=None,
                   delta_l1=[0.0], delta_l2=[0.0], evals=1, eval_total=i + 1)
        for i in range(n)
    ]
    return RunTrace(steps=steps, total_evals=n, outputs=[np.asarray(o, dtype=np.float32) for o in outputs])


class TestMeasureL1Curve:
    def test_constant_outputs_give_zeros(self):
        trace = _synthetic_trace([np.full((2, 2), 3.0)] * 6)
        _, values = measure_l1_curve(trace)
        assert values == [0.0] * 5

    def test_step_index_outputs_give_ones(self):
        trace = _synthetic_trace([np.full((1, 1), float(i)) for i in range(8)])
        _, values = measure_l1_curve(trace)
        assert values == [1.0] * 7

    def test_pairs_labeled_with_later_timestep(self):
        trace = _synthetic_trace([np.zeros((1, 1))] * 4, timesteps=[900, 700, 500, 300])
        timesteps, _ = measure_l1_curve(trace)
        assert timesteps == [700.0, 500.0, 300.0]

    def test_missing_outputs_raise(self):
        trace = _synthetic_trace([np.zeros((1, 1))] * 3)
        trace.outputs = None
        with pytest.raises(MissingDataError):
            measure_l1_curve(trace)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8),
           st.sampled_from([(1,), (3, 5), (64, 64), (70, 80)]), st.integers(-30, 30))
    def test_bit_exact_against_per_pair_formula(self, seed, n, shape, exponent):
        """Each output widened once gives the per-pair formula's bits:
        both outputs of a pair widened, subtracted, abs, mean."""
        rng = np.random.default_rng(seed)
        outputs = [rng.standard_normal(shape) * 10.0**exponent for _ in range(n)]
        trace = _synthetic_trace(outputs)
        expected = [float(np.mean(np.abs(b.astype(np.float64) - a.astype(np.float64))))
                    for a, b in zip(trace.outputs, trace.outputs[1:])]
        _, values = measure_l1_curve(trace)
        assert list(map(float.hex, values)) == list(map(float.hex, expected))

    def test_real_curve_shape_at_default_seed(self, baseline_factory):
        # toy-scale analog of the qualitative published shape: endpoints above
        # the middle-70% median (deterministic at the default seed)
        trace = baseline_factory(0)
        _, values = measure_l1_curve(trace)
        lo = int(0.15 * len(values))
        middle = sorted(values[lo : len(values) - lo])
        median = middle[len(middle) // 2]
        print(f"l1 shape: first={values[0]:.5f} last={values[-1]:.5f} middle70_median={median:.5f}")
        assert values[0] > median and values[-1] > median


class TestFitRatioPolicy:
    def test_flat_curve_falls_back_to_constant_beta(self):
        policy = fit_ratio_policy([0, 10, 20, 30, 40, 50], [0.5] * 6, degree=3, beta=0.7)
        for t in (0, 25, 50):
            assert evaluate_ratio(policy, t) == pytest.approx(0.7)

    def test_exact_polynomial_recovery(self):
        ts = np.linspace(100, 900, 24)
        us = (ts - 100) / 800
        target = 0.1 + 0.5 * us + 0.4 * us**3  # already in [0, 1]
        policy = fit_ratio_policy(ts, target, degree=3, beta=1.0)
        span = target.max() - target.min()
        for t, y in zip(ts, target):
            normalized = (y - target.min()) / span
            u = (t - policy.t_min) / (policy.t_max - policy.t_min)
            assert abs(poly_eval(policy.poly, u) - normalized) < 1e-6

    def test_degree_five_residual_not_worse_than_degree_three(self, baseline_factory):
        ts, values = measure_l1_curve(baseline_factory(0))
        p3 = fit_ratio_policy(ts, values, degree=3)
        p5 = fit_ratio_policy(ts, values, degree=5)
        assert fit_residual(p5, ts, values) <= fit_residual(p3, ts, values) + 1e-12

    def test_degree_validation(self):
        with pytest.raises(ConfigError):
            fit_ratio_policy([0, 1, 2], [0, 1, 2], degree=2)
        with pytest.raises(ConfigError):
            fit_ratio_policy([0, 1, 2], [0, 1, 2], degree=6)

    def test_sample_count_validation(self):
        with pytest.raises(ConfigError):
            fit_ratio_policy([0, 1, 2], [0.1, 0.2, 0.3], degree=3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_raises(self, bad):
        """A non-finite sample would fit non-finite coefficients (a raise,
        so it holds under -O)."""
        with pytest.raises(ConfigError, match="finite"):
            fit_ratio_policy([0, 10, 20, 30, 40], [0.1, 0.9, bad, 0.8, 0.2], degree=3)

    def test_fit_determinism(self):
        ts = np.linspace(0, 100, 12)
        ys = np.sin(ts / 30.0) ** 2
        a = fit_ratio_policy(ts, ys, degree=4)
        b = fit_ratio_policy(ts, ys, degree=4)
        assert a.poly.coefficients == b.poly.coefficients


class TestEvaluateRatio:
    @pytest.mark.parametrize("coefficient", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficient_rejected(self, coefficient):
        """evaluate_ratio would clamp a NaN ratio to 0 and so recompute no
        block: a policy with a non-finite coefficient cannot be made."""
        with pytest.raises(ConfigError, match="finite"):
            RatioPolicy(poly=Polynomial(3, (0.5, coefficient, 0.0, 0.0)), beta=1.0, t_min=0, t_max=100)

    @pytest.mark.parametrize("t_min, t_max", [(0.0, float("inf")), (float("-inf"), 100.0), (float("nan"), 100.0)])
    def test_non_finite_range_rejected(self, t_min, t_max):
        with pytest.raises(ConfigError):
            RatioPolicy(poly=Polynomial(3, (0.5, 0.0, 0.0, 0.0)), beta=1.0, t_min=t_min, t_max=t_max)

    def test_beta_zero(self):
        policy = fit_ratio_policy([0, 10, 20, 30, 40], [0.1, 0.9, 0.3, 0.8, 0.2], degree=3, beta=0.0)
        for t in (-100, 0, 20, 40, 1000):
            assert evaluate_ratio(policy, t) == 0.0

    def test_beta_one_constant_poly(self):
        policy = RatioPolicy(poly=Polynomial(3, (1.0, 0.0, 0.0, 0.0)), beta=1.0, t_min=0, t_max=100)
        for t in (0, 50, 100):
            assert evaluate_ratio(policy, t) == pytest.approx(1.0)

    def test_direct_product(self):
        policy = RatioPolicy(poly=Polynomial(3, (0.8, 0.0, 0.0, 0.0)), beta=0.5, t_min=0, t_max=10)
        assert evaluate_ratio(policy, 5) == pytest.approx(0.4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
        st.floats(0, 1, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_output_always_in_unit_interval(self, coeffs, beta, t):
        policy = RatioPolicy(poly=Polynomial(3, tuple(coeffs)), beta=beta, t_min=0.0, t_max=100.0)
        value = evaluate_ratio(policy, t)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
    )
    def test_monotone_in_beta(self, coeffs, beta_a, beta_b, t):
        lo, hi = sorted((beta_a, beta_b))
        poly = Polynomial(3, tuple(coeffs))
        p_lo = RatioPolicy(poly=poly, beta=lo, t_min=0.0, t_max=100.0)
        p_hi = RatioPolicy(poly=poly, beta=hi, t_min=0.0, t_max=100.0)
        assert evaluate_ratio(p_lo, t) <= evaluate_ratio(p_hi, t) + 1e-12


class TestPolicySerialization:
    def test_json_round_trip(self, tmp_path, baseline_factory):
        ts, values = measure_l1_curve(baseline_factory(0))
        policy = fit_ratio_policy(ts, values, degree=5, beta=0.6)
        path = tmp_path / "ratio_policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded == policy

    def test_integer_numbers_load_as_floats_and_round_trip(self, tmp_path):
        path = tmp_path / "ratio_policy.json"
        path.write_text('{"degree": 3, "coefficients": [1, 0, 2, 0], "beta": 1, "t_min": 0, "t_max": 900}')
        policy = load_policy(path)
        assert policy == RatioPolicy(poly=Polynomial(3, (1.0, 0.0, 2.0, 0.0)), beta=1.0, t_min=0.0, t_max=900.0)
        assert all(type(v) is float for v in (*policy.poly.coefficients, policy.beta, policy.t_min, policy.t_max))
        save_policy(policy, tmp_path / "again.json")
        assert load_policy(tmp_path / "again.json") == policy

    def test_write_failing_part_way_keeps_old_file(self, tmp_path, monkeypatch, write_failing_part_way):
        path = tmp_path / "ratio_policy.json"
        policy = RatioPolicy(poly=Polynomial(3, (0.2, 0.1, 0.0, 0.3)), beta=1.0, t_min=0, t_max=50)
        save_policy(policy, path)
        old = path.read_bytes()
        with monkeypatch.context() as m:
            m.setattr(os, "write", write_failing_part_way)
            with pytest.raises(OSError, match="No space left"):
                save_policy(dataclasses.replace(policy, beta=0.5), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ratio_policy.json"]
        assert load_policy(path) == policy

    def test_beta_replacement(self, tmp_path):
        policy = RatioPolicy(poly=Polynomial(4, (0.2, 0.1, 0.0, 0.0, 0.3)), beta=1.0, t_min=0, t_max=50)
        replaced = dataclasses.replace(policy, beta=0.25)
        assert evaluate_ratio(replaced, 0) == pytest.approx(0.25 * 0.2)
