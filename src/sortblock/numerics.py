"""Deterministic numeric kernel: float32 matrix ops, a seeded PRNG, and
polynomial least squares.

Matrices are plain 2-D C-contiguous ``numpy.float32`` arrays (row-major), which
is exactly the storage contract the rest of the package assumes.

Precision rule: features run in float32, and so do the block forward's GELU
and attention softmax (``gelu``, ``softmax_rows``).  Statistics run in
float64: layer norm's row mean and variance (a float32 row sum of 64 values
overflows at |x| ~ 5e36, and a float32 square at |x - mean| ~ 1.8e19, so a
finite input would give NaN), and the polynomial normal equations, to keep
conditioning under control.  Where a float32 kernel overflows on purpose (the
GELU cube, a softmax difference below the float32 range), the limit it
reaches is the right answer and the overflow is silenced.

The block forward's kernels (``layer_norm``, ``softmax_rows``, ``gelu``) each
have one body, ``*_into``, which works in place (``out=`` ufuncs and
reductions) on buffers its caller passes: ``dit.Network`` passes buffers from
its workspace, allocated once per Network, so a block eval allocates only its
output and delta.  The single-argument forms, for standalone calls, allocate
the buffers themselves.  The rounding is that of the plain formula in each
kernel's docstring, operation for operation; any reordering of the
arithmetic changes latents, except that a float32 operand casts to float64
exactly and scaling by a power of two is exact.  Layer norm's float64
buffers follow one more rule: nothing of 128 KiB or more is allocated or
freed per block eval or per run.  128 KiB is glibc's mmap and trim
threshold: a chain of float64 temporaries of that size (one 64x256
activation) made the allocator return pages to the kernel and fault them in
again on every block eval, which cost more than the arithmetic.

The generator (``Rng``) is xorshift64*, whose state step is linear over GF(2).
``Rng.fill_u64`` uses that to jump lanes ahead and draw 16 values per lane in
parallel numpy arithmetic; the stream, every weight byte and every latent
are those of the one-draw-at-a-time loop (see the class docstring).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ShapeError

Matrix = np.ndarray  # 2-D float32, row-major

_MASK64 = (1 << 64) - 1

# splitmix64 constants (Steele, Lea & Flood); used for seeding and seed-splitting
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MUL1 = 0xBF58476D1CE4E5B9
_SM64_MUL2 = 0x94D049BB133111EB

# xorshift64* output multiplier (Vigna)
_XS64_MUL = 0x2545F4914F6CDD1D


def mix64(x: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective mixing function.

    Used to derive decorrelated sub-seeds (e.g. one seed per network block).
    """
    z = (x + _SM64_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SM64_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM64_MUL2) & _MASK64
    return z ^ (z >> 31)


# fill_u64 lanes: lane l makes draws _LANE_RUN*l .. _LANE_RUN*l + _LANE_RUN-1;
# longer fills run in chunks of _MAX_LANES lanes, which bounds the jump table
_LANE_RUN = 16
_MAX_LANES = 1024


def _xorshift_step(s: np.ndarray, tmp: np.ndarray) -> None:
    """One xorshift64 state step T, in place on a uint64 array."""
    np.right_shift(s, 12, out=tmp)
    s ^= tmp
    np.left_shift(s, 25, out=tmp)
    s ^= tmp
    np.right_shift(s, 27, out=tmp)
    s ^= tmp


def _gf2_apply(images: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the GF(2) linear map with basis images ``images`` (64,)
    applied to every element of the uint64 array ``v``, one bit position at a
    time."""
    out[...] = 0
    bit = np.empty_like(v)
    for b in range(64):
        np.right_shift(v, b, out=bit)
        bit &= 1
        bit *= images[b]
        out ^= bit


@functools.cache
def _jump_table() -> np.ndarray:
    """(64, _MAX_LANES) uint64: column l holds the images of the basis vectors
    1 << b (row b) under T^(_LANE_RUN*l).  Built by doubling: with the first
    n columns and the images under T^(R*n) known, T^(R*(n+l)) =
    T^(R*n) o T^(R*l) gives the next n columns, and T^(R*n) squares.  The
    columns are mapped a few rows at a time: a freed temporary of 128 KiB or
    more would raise glibc's dynamic mmap and trim thresholds for the rest of
    the process (see the module docstring)."""
    columns = np.empty((64, _MAX_LANES), dtype=np.uint64)
    columns[:, 0] = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    jump = columns[:, 0].copy()
    tmp = np.empty_like(jump)
    for _ in range(_LANE_RUN):
        _xorshift_step(jump, tmp)
    n = 1
    while n < _MAX_LANES:
        rows = min(64, max(1, 8192 // n))
        for r in range(0, 64, rows):
            _gf2_apply(jump, columns[r : r + rows, :n], columns[r : r + rows, n : 2 * n])
        square = jump.copy()
        _gf2_apply(square, square, jump)
        n *= 2
    columns.flags.writeable = False
    return columns


class Rng:
    """xorshift64* generator seeded through splitmix64.

    Identical seeds produce identical streams.  The exact constants are fixed
    above so any run is reproducible within this implementation; bit-exactness
    across other implementations is not a goal.

    ``fill_u64`` returns the same draws as ``count`` calls of ``next_u64`` and
    leaves the same state behind, but generates them in numpy lanes: lane l
    makes draws ``16*l .. 16*l + 15`` from its own start state, and all lanes
    step together as uint64 arrays.  The state step T (three shift-xors) is
    linear over GF(2), so T^(16*l) is a 64x64 bit matrix: lane l starts at the
    XOR of the images of the current state's set bits under it, read from a
    cached jump table.  The output multiply acts on each stepped state and
    never feeds back into the state, so it is applied afterwards to all
    draws at once.  The table holds 1024 lanes (64 x 1024 uint64, 512 KiB,
    built once per process); longer fills run in chunks of 16,384 draws.
    """

    def __init__(self, seed: int):
        state = mix64(seed & _MASK64)
        # xorshift state must never be zero
        self._state = state if state != 0 else _SM64_GAMMA

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XS64_MUL) & _MASK64

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def fill_u64(self, count: int) -> np.ndarray:
        """Next `count` raw draws as a uint64 array (exact; see the class
        docstring for the lane layout)."""
        count = max(count, 0)
        lanes = -(-count // _LANE_RUN)
        raw = np.empty((lanes, _LANE_RUN), dtype=np.uint64)
        for first in range(0, lanes, _MAX_LANES):
            chunk = raw[first : first + _MAX_LANES]
            state_bits = np.unpackbits(
                np.array([self._state], dtype="<u8").view(np.uint8), bitorder="little"
            ).view(bool)
            s = np.bitwise_xor.reduce(
                _jump_table()[:, : len(chunk)], axis=0, where=state_bits[:, None]
            )
            tmp = np.empty_like(s)
            for j in range(_LANE_RUN):
                _xorshift_step(s, tmp)
                chunk[:, j] = s
            self._state = int(chunk[-1, -1])
        draws = raw.reshape(-1)[:count]
        if count:
            self._state = int(draws[-1])  # the last lane may run past `count`
        raw *= np.uint64(_XS64_MUL)
        return draws


def standard_normal(rng: Rng, rows: int, cols: int) -> Matrix:
    """(rows x cols) float32 matrix of i.i.d. N(0,1) draws via Box-Muller.

    Consumes two uniforms per pair of outputs, in a fixed order, so the
    sequence is fully determined by the generator state.
    """
    n = rows * cols
    pairs = (n + 1) // 2
    raw = rng.fill_u64(2 * pairs)
    scale = float(1 << 53)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) / scale  # (0, 1]
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) / scale  # [0, 1)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n].astype(np.float32).reshape(rows, cols)


def as_matrix(values) -> Matrix:
    """Coerce nested lists / arrays to a 2-D float32 matrix."""
    m = np.asarray(values, dtype=np.float32)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return np.ascontiguousarray(m)


def _require_2d(name: str, m: np.ndarray) -> None:
    if not isinstance(m, np.ndarray) or m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array")


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product with a shape check."""
    _require_2d("a", a)
    _require_2d("b", b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ ({a.shape} x {b.shape})")
    return a @ b


def layer_norm(x: Matrix, eps: float = 1e-5) -> Matrix:
    """Row-wise normalization to mean 0 / variance 1 (population variance).

    No learned scale or shift; any affine conditioning is folded into the
    adjacent projections by the caller.  Computes, in float64,
    ``c = x - mean(x)``, ``var = mean(c * c)`` and ``c / sqrt(var + eps)``.
    """
    _require_2d("x", x)
    if eps < 0:
        raise ShapeError("layer_norm: eps must be non-negative")
    out = np.empty(x.shape, dtype=np.float32)
    work, square = np.empty((2,) + x.shape, dtype=np.float64)
    layer_norm_into(x, eps, out, work, square, np.empty((x.shape[0], 1), dtype=np.float64))
    return out


def layer_norm_into(
    x: Matrix, eps: float, out: Matrix, work: np.ndarray, square: np.ndarray, stat: np.ndarray
) -> None:
    """``layer_norm`` written to ``out`` (float32, may be ``x``), with float64
    buffers ``work`` and ``square`` of x's shape and ``stat`` of (rows, 1).

    ``np.mean`` is ``add.reduce`` followed by ``true_divide`` by the count;
    the calls below are those, so the bits are the same.
    """
    count = x.shape[1]
    np.add.reduce(x, axis=1, dtype=np.float64, keepdims=True, out=stat)
    stat /= count
    work[...] = x
    work -= stat
    np.multiply(work, work, out=square)
    np.add.reduce(square, axis=1, keepdims=True, out=stat)
    stat /= count
    stat += eps
    np.sqrt(stat, out=stat)
    work /= stat
    out[...] = work


def softmax_rows(x: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction for numerical stability, in
    float32: ``e = exp(x - max(x))``, then ``e / sum(e)``."""
    _require_2d("x", x)
    out = np.empty(x.shape, dtype=np.float32)
    softmax_rows_into(x, out, np.empty((x.shape[0], 1), dtype=np.float32))
    return out


def softmax_rows_into(x: Matrix, out: Matrix, stat: np.ndarray) -> None:
    """``softmax_rows`` written to ``out`` (float32, may be ``x``), with a
    float32 row statistic ``stat`` of (rows, 1).

    ``x - max`` overflows to -inf only where the float64 difference is below
    the float32 range, and exp of it is 0 either way, so the overflow is
    silenced.
    """
    np.maximum.reduce(x, axis=1, keepdims=True, out=stat)
    with np.errstate(over="ignore"):
        np.subtract(x, stat, out=out)
    np.exp(out, out=out)
    np.add.reduce(out, axis=1, keepdims=True, out=stat)
    out /= stat


_GELU_C1 = np.float32(math.sqrt(2.0 / math.pi))
_GELU_C2 = np.float32(0.044715)


def gelu(x: Matrix) -> Matrix:
    """Elementwise GELU, tanh approximation, in float32, with the constants
    rounded to float32: ``h = 0.5 * x``, then
    ``h * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * ((x * x) * x))))``."""
    out = np.empty(np.shape(x), dtype=np.float32)
    gelu_into(x, out, np.empty_like(out))
    return out


def gelu_into(x: Matrix, out: Matrix, work: Matrix) -> None:
    """``gelu`` written to ``out`` (float32, may be ``x``), with a float32
    buffer ``work`` of x's shape.

    ``0.5 * x`` is formed first, so ``(1 + tanh) * x`` cannot overflow near
    the float32 maximum.  The cube overflows to +-inf for |x| above about
    7e12; tanh then gives +-1 and the result is x or -0, the limits of GELU,
    so the overflow is silenced.
    """
    with np.errstate(over="ignore"):
        np.multiply(x, x, out=work)
        work *= x
        work *= _GELU_C2
    work += x
    work *= _GELU_C1
    np.tanh(work, out=work)
    work += 1.0
    np.multiply(x, 0.5, out=out)
    out *= work


@dataclass(frozen=True)
class Polynomial:
    """Coefficients ordered constant-term first; len == degree + 1."""

    degree: int
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise FitError("polynomial degree must be >= 0")
        if len(self.coefficients) != self.degree + 1:
            raise FitError(
                f"expected {self.degree + 1} coefficients, got {len(self.coefficients)}"
            )


def polyfit(xs, ys, degree: int) -> Polynomial:
    """Least-squares polynomial fit via normal equations.

    Solves (V^T V) c = V^T y in float64 with Gaussian elimination and partial
    pivoting.  Callers are expected to pre-normalize xs to [0, 1] so the
    Vandermonde system stays well conditioned.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.shape != ys.shape:
        raise FitError(f"polyfit: xs and ys lengths differ ({len(xs)} vs {len(ys)})")
    if len(xs) < degree + 1:
        raise FitError(f"polyfit: need at least {degree + 1} samples, got {len(xs)}")
    vander = np.vander(xs, degree + 1, increasing=True)
    gram = vander.T @ vander
    rhs = vander.T @ ys
    coeffs = _solve_gaussian(gram, rhs)
    return Polynomial(degree, tuple(float(c) for c in coeffs))


def _solve_gaussian(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b (square, float64) by Gaussian elimination, partial pivoting."""
    a = a.astype(np.float64).copy()
    b = b.astype(np.float64).copy()
    n = len(b)
    ref = max(float(np.abs(a).max()), 1.0)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= 1e-13 * ref:
            raise FitError("singular normal-equation system (rank-deficient fit)")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        b[col + 1 :] -= factors * b[col]
    x = np.empty(n, dtype=np.float64)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def poly_eval(p: Polynomial, x: float) -> float:
    """Horner evaluation."""
    acc = 0.0
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc
