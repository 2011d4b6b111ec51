import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortblock import (
    FitError,
    Polynomial,
    Rng,
    ShapeError,
    as_matrix,
    gelu,
    layer_norm,
    make_run,
    make_schedule,
    matmul,
    poly_eval,
    polyfit,
    softmax_rows,
    standard_normal,
)


class TestMatmul:
    def test_identity(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert np.array_equal(matmul(as_matrix(np.eye(2)), m), m)

    def test_hand_computed_product(self):
        a = as_matrix([[1, 2], [3, 4]])
        b = as_matrix([[5, 6], [7, 8]])
        assert np.allclose(matmul(a, b), [[19, 22], [43, 50]])

    def test_zero_case(self):
        assert np.array_equal(matmul(as_matrix([[0, 0]]), as_matrix([[1], [1]])), [[0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(as_matrix([[1, 2]]), as_matrix([[1, 2]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32))
    def test_associativity_on_random_triples(self, seed):
        rng = Rng(seed)
        a, b, c = (standard_normal(rng, 4, 4) for _ in range(3))
        left = matmul(matmul(a, b), c).astype(np.float64)
        right = matmul(a, matmul(b, c)).astype(np.float64)
        scale = max(np.abs(left).max(), 1e-6)
        assert np.abs(left - right).max() / scale < 1e-4


class TestLayerNorm:
    def test_constant_row_maps_to_zeros(self):
        out = layer_norm(as_matrix([[1, 1, 1]]), eps=1e-5)
        assert np.allclose(out, 0.0)

    def test_two_point_row(self):
        assert np.allclose(layer_norm(as_matrix([[0, 2]]), eps=0.0), [[-1, 1]])

    def test_symmetric_row(self):
        assert np.allclose(layer_norm(as_matrix([[-3, 3]]), eps=0.0), [[-1, 1]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32))
    def test_row_statistics(self, seed):
        x = standard_normal(Rng(seed), 5, 64) * np.float32(3.0)
        out = layer_norm(x, eps=1e-5).astype(np.float64)
        assert np.abs(out.mean(axis=1)).max() < 1e-6
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(as_matrix([[0, 0]])), [[0.5, 0.5]])

    def test_stability_under_large_values(self):
        out = softmax_rows(as_matrix([[1000, 1000]]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_one_to_three_ratio(self):
        out = softmax_rows(as_matrix([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.floats(-50, 50))
    def test_rows_sum_to_one_and_shift_invariance(self, seed, shift):
        x = standard_normal(Rng(seed), 4, 16)
        out = softmax_rows(x)
        assert np.abs(out.sum(axis=1, dtype=np.float64) - 1.0).max() < 1e-6
        shifted = softmax_rows(x + np.float32(shift))
        assert np.abs(out - shifted).max() < 1e-6


class TestGelu:
    def test_zero(self):
        assert float(gelu(as_matrix([[0.0]]))[0, 0]) == 0.0

    def test_positive_asymptote(self):
        assert abs(float(gelu(as_matrix([[10.0]]))[0, 0]) - 10.0) < 1e-3

    def test_negative_asymptote(self):
        assert abs(float(gelu(as_matrix([[-10.0]]))[0, 0])) < 1e-3

    def test_monotone_on_grid(self):
        # gelu has its minimum near x = -0.75; monotone from there up
        grid = np.linspace(-0.5, 5, 101, dtype=np.float32).reshape(1, -1)
        out = gelu(grid)[0]
        assert np.all(np.diff(out) >= 0)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = standard_normal(Rng(1234), 10, 10)
        b = standard_normal(Rng(1234), 10, 10)
        assert np.array_equal(a, b)

    def test_adjacent_seeds_differ(self):
        a = [Rng(42).next_u64() for _ in range(1)]  # noqa: F841 - construct once
        ra, rb = Rng(42), Rng(43)
        draws_a = [ra.next_u64() for _ in range(100)]
        draws_b = [rb.next_u64() for _ in range(100)]
        assert draws_a != draws_b

    def test_sample_mean_near_zero(self):
        z = standard_normal(Rng(7), 1000, 100).astype(np.float64)
        assert -0.05 <= z.mean() <= 0.05

    def test_sample_variance_near_one(self):
        z = standard_normal(Rng(8), 1000, 100).astype(np.float64)
        assert 0.9 <= z.var() <= 1.1

    def test_uniform_range(self):
        r = Rng(5)
        vals = [r.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)


def _reference_fill_u64(rng: Rng, count: int) -> np.ndarray:
    """The one-draw-at-a-time fill_u64 that the lane version replaced."""
    nxt = rng.next_u64
    return np.array([nxt() for _ in range(count)], dtype=np.uint64)


# lane edges (a lane is 16 draws), chunk edges (1024 lanes) and the fill sizes
# of the default network's weights
EDGE_COUNTS = (0, 1, 15, 16, 17, 4096, 16383, 16384, 16385, 32768 + 5)


class TestFillU64:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(0, 40_000)))
    def test_matches_sequential_stream(self, seed, count):
        lanes, sequential = Rng(seed), Rng(seed)
        got = lanes.fill_u64(count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert np.array_equal(got, _reference_fill_u64(sequential, count))
        assert lanes.next_u64() == sequential.next_u64()

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    @pytest.mark.parametrize("count", EDGE_COUNTS)
    def test_edge_counts(self, seed, count):
        assert np.array_equal(Rng(seed).fill_u64(count), _reference_fill_u64(Rng(seed), count))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 3000), st.integers(0, 3000))
    def test_state_continuity(self, seed, a, b):
        ref = _reference_fill_u64(Rng(seed), a + b + 2)
        r = Rng(seed)
        first = r.fill_u64(a)
        second = r.fill_u64(b)
        assert np.array_equal(np.concatenate([first, second]), ref[: a + b])
        assert r.next_u64() == int(ref[a + b])
        # next_u64 then fill
        r = Rng(seed)
        assert r.next_u64() == int(ref[0])
        assert np.array_equal(r.fill_u64(a), ref[1 : a + 1])

    def test_random_after_fill(self):
        r, s = Rng(11), Rng(11)
        r.fill_u64(1000)
        _reference_fill_u64(s, 1000)
        assert [r.random() for _ in range(5)] == [s.random() for _ in range(5)]

    def test_first_draws_pinned(self):
        r = Rng(0)
        assert (r.next_u64(), r.next_u64()) == (0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD)
        assert Rng(0).fill_u64(2).tolist() == [0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD]

    def test_default_weights_digest(self, default_net):
        h = hashlib.sha256()
        for w in default_net.blocks:
            for m in (w.wq, w.wk, w.wv, w.wo, w.w1, w.w2, w.wt):
                h.update(m.astype("<f4").tobytes())
        assert h.hexdigest() == "cc55f6b10356e3124caf364903dc28ddbf94d5c79fea2a39526cf7af636f419e"

    def test_default_z_init_digest(self):
        z = make_run(make_schedule(1000), 50, 0, (64, 64)).z_init
        assert hashlib.sha256(z.astype("<f4").tobytes()).hexdigest() == (
            "a6322121b2395697bf02283a75a8b2f9160aa27a4308240ff11b251947a76ec2"
        )


class TestPolyfit:
    def test_exact_quadratic_recovery(self):
        xs = [0.0, 0.25, 0.5, 0.75, 1.0]
        ys = [x * x for x in xs]
        p = polyfit(xs, ys, 2)
        assert np.allclose(p.coefficients, (0.0, 0.0, 1.0), atol=1e-8)
        assert all(abs(poly_eval(p, x) - y) < 1e-8 for x, y in zip(xs, ys))

    def test_constant_fit(self):
        p = polyfit([0.0, 0.5, 1.0], [7.0, 7.0, 7.0], 0)
        assert p.degree == 0
        assert abs(p.coefficients[0] - 7.0) < 1e-12

    def test_nested_model_residual_monotonicity(self):
        xs = np.linspace(0.0, 1.0, 12)
        ys = 2.0 * xs + 1.0

        def residual(deg):
            p = polyfit(xs, ys, deg)
            return sum((poly_eval(p, x) - y) ** 2 for x, y in zip(xs, ys))

        assert residual(3) <= residual(1) + 1e-12

    def test_singular_system_raises(self):
        with pytest.raises(FitError):
            polyfit([0.5, 0.5, 0.5], [1.0, 2.0, 3.0], 1)

    def test_length_mismatch_raises(self):
        with pytest.raises(FitError):
            polyfit([0.0, 1.0], [1.0], 1)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 5),
        st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    )
    def test_exact_recovery_degrees_0_to_5(self, degree, coeff_ints):
        coeffs = tuple(float(c) for c in coeff_ints[: degree + 1])
        truth = Polynomial(degree, coeffs)
        xs = np.linspace(0.0, 1.0, 2 * (degree + 1) + 3)
        ys = [poly_eval(truth, x) for x in xs]
        fitted = polyfit(xs, ys, degree)
        assert all(abs(poly_eval(fitted, x) - y) < 1e-8 for x, y in zip(xs, ys))


class TestPolyEval:
    def test_constant_term(self):
        assert poly_eval(Polynomial(2, (1.0, 2.0, 3.0)), 0.0) == 1.0

    def test_sum_at_one(self):
        assert abs(poly_eval(Polynomial(2, (1.0, 2.0, 3.0)), 1.0) - 6.0) < 1e-12

    def test_square_at_half(self):
        assert abs(poly_eval(Polynomial(2, (0.0, 0.0, 1.0)), 0.5) - 0.25) < 1e-12

    def test_polynomial_length_invariant(self):
        with pytest.raises(FitError):
            Polynomial(2, (1.0, 2.0))
