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
its workspace, allocated once per Network, so a block eval whose caller
passes rows for its output and delta allocates nothing.  ``softmax_rows_into``
and ``gelu_into`` leave silencing their overflow to the caller, which runs
them under ``np.errstate(over="ignore")``: the block forward enters one for
both, per eval.  The single-argument forms, for standalone calls, allocate
the buffers and enter the errstate themselves.  The rounding is that of the
plain formula in each kernel's docstring, operation for operation; any
reordering of the arithmetic changes latents, except that a float32 operand
casts to float64 exactly, scaling by a power of two is exact, and a max is
exact in any order: ``softmax_rows_into`` takes its row max along the fast
axis of a transposed copy, which can flip only the sign of a zero maximum,
and ``exp(x - (+-0))`` is the same either way.

Layer norm's float64 buffers follow one more rule: nothing of 128 KiB or
more is allocated or freed per block eval or per run.  128 KiB is glibc's
default mmap threshold and the floor of its dynamic one, so a request below
it never comes from mmap, whatever the heap history.  It is not the
threshold in force here: interpreter start-up and ``import numpy`` free
blocks of up to about 212 KiB, which raises the dynamic mmap threshold to
about 212 KiB and the trim threshold to twice that, about 424 KiB (glibc
2.36, numpy 2.4), before this package is imported.  The limit stays at the
floor so that it holds in any process.  The rule exists because a chain of
128 KiB float64 temporaries (one 64x256 activation) made the allocator
return pages to the kernel and fault them in again on every block eval,
which cost more than the arithmetic.  The weight
init, which every process runs before it times anything, frees no
temporary larger than 128 KiB (one 16,384-element uint64 or float64 work
buffer), so it leaves glibc's dynamic mmap and trim thresholds where
start-up left them: freeing a larger mmapped block would raise them for the
rest of the process.  Only what it keeps, the weights, is larger.

The generator (``Rng``) is xorshift64*, whose state step is linear over GF(2).
``standard_normal`` uses that to jump lanes ahead and draw 16 values per
lane in parallel numpy arithmetic (``_lane_chunks``), the lane starts
doubled with byte lookup tables ("four Russians") of the jumps, built once
per process (``_lane_jumps``); the stream, every weight byte and every
latent are those of the one-draw-at-a-time ``Rng.next_u64`` (see the class
docstring).
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


# lanes: lane l makes draws _LANE_RUN*l .. _LANE_RUN*l + _LANE_RUN-1; fills
# run in chunks of at most _MAX_LANES lanes (16,384 draws), which keeps every
# uint64 or float64 work buffer at 128 KiB
_LANE_RUN = 16
_MAX_LANES = 1024

_SHIFT_12, _SHIFT_25, _SHIFT_27 = np.uint64(12), np.uint64(25), np.uint64(27)


def _xorshift_step(s: np.ndarray, tmp: np.ndarray) -> None:
    """One xorshift64 state step T, in place on a uint64 array."""
    np.right_shift(s, _SHIFT_12, tmp)
    s ^= tmp
    np.left_shift(s, _SHIFT_25, tmp)
    s ^= tmp
    np.right_shift(s, _SHIFT_27, tmp)
    s ^= tmp


# the row of an (8, 256) byte table, flattened, that each byte of a uint64
# indexes, in memory order: byte k, least significant first, reads row k
_BYTE_ROWS = 256 * (np.arange(8) if np.little_endian else np.arange(7, -1, -1)).reshape(8, 1)


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """(8, 256) uint64 for the GF(2) linear map with basis images ``images``
    (64,): entry [k, v] is the image of ``v << 8k``, the XOR of the images of
    byte k's set bits, built by doubling over the bits of v."""
    tables = np.zeros((8, 256), dtype=np.uint64)
    per_byte = images.reshape(8, 8)
    for i in range(8):
        np.bitwise_xor(tables[:, : 1 << i], per_byte[:, i : i + 1], out=tables[:, 1 << i : 2 << i])
    return tables


def _gf2_apply(tables: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` (which may be ``v``) the linear map with byte tables
    ``tables`` (see ``_byte_tables``) applied to every element of the 1-D
    contiguous uint64 array ``v``: one gather of all eight bytes' images,
    then their XOR (the "four Russians" method)."""
    octets = v.view(np.uint8).reshape(-1, 8).T + _BYTE_ROWS
    np.bitwise_xor.reduce(tables.reshape(-1).take(octets), axis=0, out=out)


@functools.cache
def _lane_jumps() -> tuple[np.ndarray, ...]:
    """The byte tables of the lane jumps T^(_LANE_RUN * 2^k), k = 0 .. 10
    (up to _MAX_LANES lanes): eleven read-only (8, 256) uint64 arrays of
    16 KiB.  T^16 is stepped from the basis vectors, and each later jump
    squares the one before by mapping its own images."""
    jump = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    tmp = np.empty_like(jump)
    for _ in range(_LANE_RUN):
        _xorshift_step(jump, tmp)
    tables = []
    for _ in range(_MAX_LANES.bit_length()):
        tables.append(_byte_tables(jump))
        tables[-1].flags.writeable = False
        _gf2_apply(tables[-1], jump, jump)
    return tuple(tables)


class Rng:
    """xorshift64* generator seeded through splitmix64.

    Identical seeds produce identical streams.  The exact constants are fixed
    above so any run is reproducible within this implementation; bit-exactness
    across other implementations is not a goal.

    ``next_u64`` is the reference stream, one draw per call.  Bulk draws
    (``standard_normal``, through ``_lane_chunks``) are the draws of
    ``next_u64`` calls and leave the same state behind, but are generated in
    numpy lanes: lane l makes draws ``16*l .. 16*l + 15`` from its own start
    state, and all lanes step together as uint64 arrays, one array per
    step.  The state step T (three shift-xors) is linear over GF(2), so
    T^(16*n) is a 64x64 bit matrix: lanes n .. 2n - 1 start at the starts of
    lanes 0 .. n - 1 mapped by it, through byte lookup tables built once per
    process (``_lane_jumps``, 176 KiB).  The output multiply acts on each
    stepped state and never feeds back into the state, so it is applied
    afterwards to all draws at once.  Fills run in chunks of 1024 lanes
    (16,384 draws), each starting one jump after the one before, so no work
    buffer, the weight init's included, outgrows 128 KiB (the allocator rule
    in the module docstring).
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


def _lane_chunks(rng: Rng, count: int):
    """Generate the next ``count`` states of ``rng``, padded to whole lanes,
    in chunks of at most 1024 lanes, and advance ``rng`` by ``count``.

    Yields ``(states, first)`` per chunk.  ``states`` is a (2, 8, lanes)
    uint64 view of one work buffer, overwritten by the next chunk:
    ``states[p, k, l]`` is the state of draw ``first + 16*l + 2*k + p``,
    before the output multiply, so each step writes one contiguous row and
    the first and second draws of all pairs are contiguous halves.  States
    past ``count`` are scratch.

    In the first chunk lane 0 starts at the generator's state, and lanes
    n .. 2n - 1 at the starts of lanes 0 .. n - 1 jumped by T^(16*n); each
    later chunk's lanes start 16,384 draws after the previous chunk's, one
    more jump.  ``starts`` keeps them, since stepping overwrites ``states``.
    """
    total = -(-max(count, 0) // _LANE_RUN)
    if not total:
        return
    jumps = _lane_jumps()
    buf = np.empty(min(total, _MAX_LANES) * _LANE_RUN, dtype=np.uint64)
    starts = np.empty(min(total, _MAX_LANES), dtype=np.uint64)
    step = np.empty_like(starts)
    starts[0] = rng._state
    for k in range((len(starts) - 1).bit_length()):  # lanes n .. 2n - 1 from lanes 0 .. n - 1
        n = 1 << k
        _gf2_apply(jumps[k], starts[: min(n, len(starts) - n)], starts[n : 2 * n])
    for chunk_first in range(0, total, _MAX_LANES):
        lanes = min(_MAX_LANES, total - chunk_first)
        states = buf[: _LANE_RUN * lanes].reshape(2, _LANE_RUN // 2, lanes)
        if chunk_first:
            _gf2_apply(jumps[-1], starts[:lanes], starts[:lanes])
        prev = states[0, 0]
        prev[...] = starts[:lanes]
        tmp = step[:lanes]
        _xorshift_step(prev, tmp)
        for j in range(1, _LANE_RUN):
            row = states[j % 2, j // 2]
            np.right_shift(prev, _SHIFT_12, tmp)
            np.bitwise_xor(prev, tmp, row)
            np.left_shift(row, _SHIFT_25, tmp)
            row ^= tmp
            np.right_shift(row, _SHIFT_27, tmp)
            row ^= tmp
            prev = row
        first = _LANE_RUN * chunk_first
        j = min(states.size, count - first) - 1  # the chunk's last draw
        rng._state = int(states[j % 2, j % _LANE_RUN // 2, j // _LANE_RUN])
        yield states, first


_TWO_PI = 2.0 * math.pi


def _standard_normal_into(rng: Rng, out: np.ndarray, count: int) -> None:
    """Write ``count`` (even) N(0,1) draws of ``rng`` to ``out[:count]``, a
    1-D float32 array of at least ``count`` rounded up to a multiple of 16
    (the slack is scratch), consuming ``count`` draws.

    Box-Muller per pair of draws, with the rounding ``standard_normal``
    documents, one chunk of up to 16,384 draws at a time (``_lane_chunks``),
    in work buffers of at most 128 KiB: u1 and u2 are contiguous float64
    halves, each of log/sqrt/cos/sin runs on a contiguous array, and the
    float64 products are rounded to float32 as they are written to ``out``.
    """
    work = cos = None
    for states, first in _lane_chunks(rng, count):
        if work is None:
            work = np.empty(states.size, dtype=np.float64)
            cos = np.empty(states.size // 2, dtype=np.float64)
        states *= np.uint64(_XS64_MUL)
        states >>= np.uint64(11)
        states[0] += np.uint64(1)
        # at most 2^53, so exact as int64 and as float64; scaling by 2^-53 is
        # exact too, the same bits as dividing by 2^53
        u = work[: states.size].reshape(states.shape)
        np.multiply(states.view(np.int64), 2.0**-53, out=u)
        u1, u2 = u  # (0, 1] and [0, 1)
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)  # r
        u2 *= _TWO_PI  # theta
        c = cos[: u2.size].reshape(u2.shape)
        np.cos(u2, out=c)
        np.sin(u2, out=u2)
        pairs = out[first : first + states.size].reshape(-1, _LANE_RUN // 2, 2).T
        np.multiply(u1, c, out=pairs[0])
        np.multiply(u1, u2, out=pairs[1])


def standard_normal(rng: Rng, rows: int, cols: int) -> Matrix:
    """(rows x cols) float32 matrix of i.i.d. N(0,1) draws via Box-Muller.

    Consumes two uniforms per pair of outputs, in a fixed order, so the
    sequence is fully determined by the generator state.  From the draws
    (a, b) of a pair, ``u1 = ((a >> 11) + 1) / 2^53`` and
    ``u2 = (b >> 11) / 2^53``, ``r = sqrt(-2 * log(u1))`` and
    ``theta = 2*pi * u2`` in float64; the pair is ``r * cos(theta)``,
    ``r * sin(theta)``, each rounded to float32.  An odd count drops the
    last sine.
    """
    n = rows * cols
    count = 2 * ((n + 1) // 2)
    out = np.empty(-(-count // _LANE_RUN) * _LANE_RUN, dtype=np.float32)
    _standard_normal_into(rng, out, count)
    return out[:n].reshape(rows, cols)


def _require_2d(name: str, m: np.ndarray) -> None:
    if not isinstance(m, np.ndarray) or m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array")


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
    the calls below are those, so the bits are the same.  The row sum
    reduces x widened into ``work``, which gives the bits of reducing x with
    ``dtype=np.float64``.  Row statistics are spread over ``square`` by
    assignment before they meet a full matrix: a ufunc that broadcasts one
    operand makes numpy allocate iterator buffers on every call.
    """
    count = x.shape[1]
    work[...] = x
    np.add.reduce(work, axis=1, keepdims=True, out=stat)
    stat /= count
    square[...] = stat
    work -= square
    np.multiply(work, work, out=square)
    np.add.reduce(square, axis=1, keepdims=True, out=stat)
    stat /= count
    stat += eps
    np.sqrt(stat, out=stat)
    square[...] = stat
    work /= square
    out[...] = work


def softmax_rows(x: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction for numerical stability, in
    float32: ``e = exp(x - max(x))``, then ``e / sum(e)``."""
    _require_2d("x", x)
    out = np.empty(x.shape, dtype=np.float32)
    with np.errstate(over="ignore"):
        softmax_rows_into(x, out, np.empty((x.shape[0], 1), dtype=np.float32), np.empty_like(out))
    return out


def softmax_rows_into(x: Matrix, out: Matrix, stat: np.ndarray, work: Matrix) -> None:
    """``softmax_rows`` written to ``out`` (float32, may be ``x``), with a
    float32 row statistic ``stat`` of (rows, 1) and a C-contiguous float32
    buffer ``work`` of x's shape, over which the statistic is spread by
    assignment (as in ``layer_norm_into``).

    The row max is taken over a transposed copy of x in ``work``, viewed as
    (cols, rows), along axis 0: an elementwise max down contiguous rows,
    which runs faster than a reduction along each row of x.  A max is
    exact, so its order of evaluation leaves every bit of the output alone:
    it can only pick the other sign of a zero maximum where a row ties 0.0
    with -0.0, and ``x - (+-0)`` then differs only in the sign of a zero,
    which exp maps to 1 either way.  A NaN anywhere in a row still gives a
    NaN max.

    ``x - max`` overflows to -inf only where the float64 difference is below
    the float32 range, and exp of it is 0 either way, so the caller runs this
    under ``np.errstate(over="ignore")``.
    """
    rows, cols = x.shape
    xt = work.reshape(cols, rows)
    xt[...] = x.T
    np.maximum.reduce(xt, axis=0, keepdims=True, out=stat.T)
    work[...] = stat
    np.subtract(x, work, out=out)
    np.exp(out, out=out)
    np.add.reduce(out, axis=1, keepdims=True, out=stat)
    work[...] = stat
    out /= work


_GELU_C1 = np.float32(math.sqrt(2.0 / math.pi))
_GELU_C2 = np.float32(0.044715)


def gelu(x: Matrix) -> Matrix:
    """Elementwise GELU, tanh approximation, in float32, with the constants
    rounded to float32: ``h = 0.5 * x``, then
    ``h * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * ((x * x) * x))))``."""
    out = np.empty(np.shape(x), dtype=np.float32)
    with np.errstate(over="ignore"):
        gelu_into(x, out, np.empty_like(out))
    return out


def gelu_into(x: Matrix, out: Matrix, work: Matrix) -> None:
    """``gelu`` written to ``out`` (float32, may be ``x``), with a float32
    buffer ``work`` of x's shape.

    ``0.5 * x`` is formed first, so ``(1 + tanh) * x`` cannot overflow near
    the float32 maximum.  The cube overflows to +-inf for |x| above about
    7e12; tanh then gives +-1 and the result is x or -0, the limits of GELU,
    so the caller runs this under ``np.errstate(over="ignore")``.
    """
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
    """Least-squares polynomial fit: ``np.linalg.lstsq`` on the float64
    Vandermonde matrix, which raises FitError when its rank is below
    degree + 1.  Callers are expected to pre-normalize xs to [0, 1] so the
    system stays well conditioned.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.shape != ys.shape:
        raise FitError(f"polyfit: xs and ys lengths differ ({len(xs)} vs {len(ys)})")
    if len(xs) < degree + 1:
        raise FitError(f"polyfit: need at least {degree + 1} samples, got {len(xs)}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise FitError("polyfit: xs and ys must be finite")
    coeffs, _, rank, _ = np.linalg.lstsq(np.vander(xs, degree + 1, increasing=True), ys, rcond=None)
    if rank < degree + 1:
        raise FitError(f"polyfit: rank-deficient fit (rank {rank} < {degree + 1})")
    return Polynomial(degree, tuple(float(c) for c in coeffs))


def poly_eval(p: Polynomial, x: float) -> float:
    """Horner evaluation."""
    acc = 0.0
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc
