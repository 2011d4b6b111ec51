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
    gelu,
    layer_norm,
    make_run,
    make_schedule,
    poly_eval,
    polyfit,
    softmax_rows,
    standard_normal,
)
from sortblock.numerics import _jump_table


class TestLayerNorm:
    def test_constant_row_maps_to_zeros(self):
        out = layer_norm(np.array([[1, 1, 1]], dtype=np.float32), eps=1e-5)
        assert np.allclose(out, 0.0)

    def test_two_point_row(self):
        assert np.allclose(layer_norm(np.array([[0, 2]], dtype=np.float32), eps=0.0), [[-1, 1]])

    def test_symmetric_row(self):
        assert np.allclose(layer_norm(np.array([[-3, 3]], dtype=np.float32), eps=0.0), [[-1, 1]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32))
    def test_row_statistics(self, seed):
        x = standard_normal(Rng(seed), 5, 64) * np.float32(3.0)
        out = layer_norm(x, eps=1e-5).astype(np.float64)
        assert np.abs(out.mean(axis=1)).max() < 1e-6
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(np.array([[0, 0]], dtype=np.float32)), [[0.5, 0.5]])

    def test_stability_under_large_values(self):
        out = softmax_rows(np.array([[1000, 1000]], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_one_to_three_ratio(self):
        out = softmax_rows(np.array([[0.0, math.log(3.0)]], dtype=np.float32))
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
        assert float(gelu(np.array([[0.0]], dtype=np.float32))[0, 0]) == 0.0

    def test_positive_asymptote(self):
        assert abs(float(gelu(np.array([[10.0]], dtype=np.float32))[0, 0]) - 10.0) < 1e-3

    def test_negative_asymptote(self):
        assert abs(float(gelu(np.array([[-10.0]], dtype=np.float32))[0, 0])) < 1e-3

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


def _reference_fill_u64(rng: Rng, count: int) -> np.ndarray:
    """The one-draw-at-a-time fill_u64 that the lane version replaced."""
    nxt = rng.next_u64
    return np.array([nxt() for _ in range(count)], dtype=np.uint64)


def _reference_standard_normal(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Box-Muller as ``standard_normal`` documents it, on the sequential
    stream, in whole-array numpy operations."""
    n = rows * cols
    pairs = (n + 1) // 2
    raw = _reference_fill_u64(rng, 2 * pairs)
    scale = float(1 << 53)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) / scale
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) / scale
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n].astype(np.float32).reshape(rows, cols)


def _reference_jump_table() -> np.ndarray:
    """The jump table built one bit position at a time: the doubling build
    the byte-table build replaced, operation for operation."""

    def gf2_apply(images, v, out):
        out[...] = 0
        bit = np.empty_like(v)
        for b in range(64):
            np.right_shift(v, b, out=bit)
            bit &= 1
            bit *= images[b]
            out ^= bit

    columns = np.empty((64, 1024), dtype=np.uint64)
    columns[:, 0] = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    jump = columns[:, 0].copy()
    for _ in range(16):  # T^16, one xorshift64 step at a time
        jump ^= jump >> np.uint64(12)
        jump ^= jump << np.uint64(25)
        jump ^= jump >> np.uint64(27)
    n = 1
    while n < 1024:
        rows = min(64, max(1, 8192 // n))
        for r in range(0, 64, rows):
            gf2_apply(jump, columns[r : r + rows, :n], columns[r : r + rows, n : 2 * n])
        square = jump.copy()
        gf2_apply(square, square, jump)
        n *= 2
    return columns


class TestJumpTable:
    def test_matches_per_bit_build(self):
        table = _jump_table()
        assert table.dtype == np.uint64 and table.shape == (64, 1024)
        assert np.array_equal(table, _reference_jump_table())

    def test_read_only(self):
        with pytest.raises(ValueError):
            _jump_table()[0, 0] = 0


class TestStandardNormal:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=4))
    def test_matches_reference_box_muller(self, seed, shapes):
        """Odd sizes, empty matrices and several draws in a row, which
        start mid-lane, give the reference's bits and leave its state."""
        fast, slow = Rng(seed), Rng(seed)
        for rows, cols in shapes:
            got = standard_normal(fast, rows, cols)
            want = _reference_standard_normal(slow, rows, cols)
            assert got.dtype == np.float32 and got.shape == (rows, cols)
            assert got.tobytes() == want.tobytes()
        assert fast.next_u64() == slow.next_u64()

    @pytest.mark.parametrize("shape", [(1, 16383), (2, 8192), (1, 16385), (3, 11000)])
    def test_chunk_edges(self, shape):
        """Fills that end just before, at and after a 16,384-draw chunk."""
        got = standard_normal(Rng(99), *shape)
        assert got.tobytes() == _reference_standard_normal(Rng(99), *shape).tobytes()


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
        assert [r.next_u64() for _ in range(5)] == [s.next_u64() for _ in range(5)]

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
