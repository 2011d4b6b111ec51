"""Toy denoising transformer: a stack of deterministic pre-norm blocks over a
token grid, with a per-block interception hook.

The network exists to give the caching engine realistic block-boundary
features at desk scale.  Weights are random but fixed by seed; everything a
run produces is a pure function of (config seed, input, timestep).

Hook protocol
-------------
``forward(z, t, hook)`` calls ``hook(block_index, x, compute)`` once per block.
Block i's ``x`` is the very array the hook returned for block i - 1 (``z``
for block 0); the caching engine relies on it.
``compute(out=None)`` is a thunk that actually evaluates the block (and
increments the network's eval counter), returning its output; the hook either
invokes it or serves a replacement output of the same shape without paying
for the block.  ``out`` is the row of ``Network.block_forward``: a
C-contiguous float32 array of x's shape, owned by the hook and not aliasing
x, that the eval writes its output into instead of allocating it; the hook
decides how long what it served stays valid.  Called with no row,
``compute`` allocates the output, as a standalone eval does.  The residual
delta ``out - x`` is the hook's to form.  ``hook.begin_step``, when present,
is invoked by the sampler once per timestep before the forward pass.

Without a hook, ``forward`` writes blocks 0..N-2 into two ping-pong rows of
the Network's workspace; the last block's output, which it returns, is a
fresh array.

One ``np.errstate(over="ignore")`` per eval covers the two kernels that
overflow on purpose (the softmax difference and the GELU cube) and what lies
between them.  Of that, only the residual add after attention,
``x + (attention @ wo)``, can overflow (for |x| near the float32 maximum);
it gives +-inf, but does not warn.  The conditioning add and the MLP
residual add still warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import (
    Matrix,
    Rng,
    _standard_normal_into,
    gelu_into,
    layer_norm_into,
    mix64,
    softmax_rows_into,
)

LN_EPS = 1e-5

# Residual-branch output projections are damped so the 12-block stack stays a
# mild perturbation of the identity; without this, random (untrained) weights
# amplify step-to-step input changes and the feature trajectories lose the
# temporal coherence the whole caching premise rests on.
BRANCH_GAIN = 0.05

# The conditioning projection low-passes the embedding: row j is scaled by
# 1 / (1 + (f_j * TEMPORAL_SMOOTHING)^2), so the network's response varies on
# a >= ~20-timestep scale.  Trained backbones respond smoothly to adjacent
# timesteps; a random projection of the fastest sinusoid components (period
# ~6 timesteps) would instead decorrelate adjacent sampler steps entirely.
TEMPORAL_SMOOTHING = 20.0

BlockHook = Callable[[int, Matrix, Callable[..., Matrix]], Matrix]


@dataclass(frozen=True)
class DitConfig:
    num_blocks: int = 12
    num_tokens: int = 64
    channels: int = 64
    mlp_ratio: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.num_blocks < 2:
            raise ConfigError("num_blocks must be >= 2")
        if min(self.num_tokens, self.channels, self.mlp_ratio) < 1:
            raise ConfigError("num_tokens, channels and mlp_ratio must be >= 1")


@dataclass(frozen=True)
class BlockWeights:
    """One block's parameters; attention and MLP projections plus the
    timestep-conditioning projection.

    The query, key and value projections are stored together as ``wqkv``,
    ``[wq | wk | wv]`` of (d, 3d): one matmul against it gives q, k and v as
    its column blocks, with the bits of the three separate matmuls.  ``wq``,
    ``wk`` and ``wv`` are its column views (not contiguous)."""

    wqkv: Matrix
    wo: Matrix
    w1: Matrix
    w2: Matrix
    wt: Matrix

    @property
    def wq(self) -> Matrix:
        return self.wqkv[:, : len(self.wqkv)]

    @property
    def wk(self) -> Matrix:
        return self.wqkv[:, len(self.wqkv) : 2 * len(self.wqkv)]

    @property
    def wv(self) -> Matrix:
        return self.wqkv[:, 2 * len(self.wqkv) :]


@lru_cache(maxsize=8)
def _embedding_freqs(d_emb: int) -> np.ndarray:
    """Frequencies of the sinusoidal embedding, (d_emb // 2,) float64,
    computed once per d_emb; read-only."""
    half = d_emb // 2
    if half >= 2:
        exponents = np.arange(half, dtype=np.float64) / (half - 1)
        freqs = 10000.0 ** (-exponents)
    else:
        freqs = np.ones(max(half, 0), dtype=np.float64)
    freqs.flags.writeable = False
    return freqs


def timestep_embedding(t: float, d_emb: int) -> Matrix:
    """Sinusoidal embedding, shape (1, d_emb).

    Frequencies are geometrically spaced from 1 down to 1/10000 across the
    first half (sin) and mirrored in the second half (cos); an odd trailing
    slot is zero-padded.
    """
    if t < 0:
        raise ConfigError("timestep must be >= 0")
    half = d_emb // 2
    freqs = _embedding_freqs(d_emb)
    angles = float(t) * freqs
    emb = np.zeros(d_emb, dtype=np.float64)
    emb[:half] = np.sin(angles)
    emb[half : 2 * half] = np.cos(angles)
    return emb.astype(np.float32).reshape(1, d_emb)


@lru_cache(maxsize=8)
def _conditioning_lowpass(d_emb: int) -> np.ndarray:
    """Per-row damping of the conditioning projection (column vector),
    computed once per d_emb; read-only."""
    freqs = _embedding_freqs(d_emb)
    weights = 1.0 / (1.0 + (freqs * TEMPORAL_SMOOTHING) ** 2)
    row = np.ones(d_emb, dtype=np.float64)
    half = d_emb // 2
    row[:half] = weights
    row[half : 2 * half] = weights
    column = row.astype(np.float32).reshape(d_emb, 1)
    column.flags.writeable = False
    return column


def _init_block_weights(
    storage: np.ndarray, shapes: tuple[tuple[int, int], ...], d: int, d_emb: int
) -> BlockWeights:
    """One block's weights as views of ``storage``, which holds the block's
    normal draws: each matrix's ``standard_normal`` draws in turn (an
    odd-sized matrix draws and drops one more), scaled by 1/sqrt(d) in
    float32, then wo and w2 by the branch gain and wt by the conditioning
    low-pass, in place.  wq, wk and wv are then laid out again, side by
    side, as ``wqkv`` at the head of ``storage``, which their draws cover."""
    storage *= np.float32(1.0 / math.sqrt(d))
    views, offset = [], 0
    for rows, cols in shapes:
        views.append(storage[offset : offset + rows * cols].reshape(rows, cols))
        offset += 2 * ((rows * cols + 1) // 2)
    wq, wk, wv, wo, w1, w2, wt = views
    gain = np.float32(BRANCH_GAIN)
    wo *= gain
    w2 *= gain
    wt *= _conditioning_lowpass(d_emb)
    wqkv = storage[: 3 * d * d].reshape(d, 3 * d)
    wqkv[...] = np.concatenate((wq, wk, wv), axis=1)
    return BlockWeights(wqkv=wqkv, wo=wo, w1=w1, w2=w2, wt=wt)


@lru_cache(maxsize=8)
def _weights_for_config(cfg: DitConfig) -> tuple[BlockWeights, ...]:
    # block i draws from Rng(cfg.seed XOR mix64(i + 1)), as one stream into one
    # float32 buffer; the blocks' streams are generated together, so the lane
    # chunks are full across block boundaries.  Weights are immutable and
    # shared between Network instances for the same config
    d = d_emb = cfg.channels
    h = cfg.mlp_ratio * d
    shapes = ((d, d), (d, d), (d, d), (d, d), (d, h), (h, d), (d_emb, d))  # wq .. wt
    count = sum(2 * ((rows * cols + 1) // 2) for rows, cols in shapes)
    storages = [np.empty(-(-count // 16) * 16, dtype=np.float32) for _ in range(cfg.num_blocks)]
    _standard_normal_into(
        [(Rng(cfg.seed ^ mix64(i + 1)), storage, count) for i, storage in enumerate(storages)]
    )
    return tuple(_init_block_weights(storage, shapes, d, d_emb) for storage in storages)


class _BlockWorkspace:
    """Every intermediate of one block eval, allocated once per Network.

    float32: the conditioning row, ``x + c``, the normalized input of either
    branch, q, k and v (the column blocks of one (n, 3d) product), ``kt``,
    a contiguous copy of k transposed (d, n) that the score matmul reads, the
    scores (softmaxed in place, with a float32 row statistic and work), the
    attention output, the residual after attention, the MLP activation (GELU
    in place) and GELU's work, and the two rows the hook-free forward
    alternates block outputs between.  float64: the layer norms' work, square
    and row statistics.
    """

    def __init__(self, cfg: DitConfig):
        n, d, h = cfg.num_tokens, cfg.channels, cfg.mlp_ratio * cfg.channels
        f32 = lambda *shape: np.empty(shape, dtype=np.float32)
        f64 = lambda *shape: np.empty(shape, dtype=np.float64)
        self.cond = f32(1, d)
        self.xc = f32(n, d)
        self.hn = f32(n, d)
        self.qkv = f32(n, 3 * d)
        self.q, self.k, self.v = self.qkv[:, :d], self.qkv[:, d : 2 * d], self.qkv[:, 2 * d :]
        self.kt = f32(d, n)
        self.rows = f32(2, n, d)
        self.scores, self.softmax_work = f32(n, n), f32(n, n)
        self.attn = f32(n, d)
        self.a = f32(n, d)
        self.act, self.gelu_work = f32(n, h), f32(n, h)
        self.softmax_stat = f32(n, 1)
        self.ln_work, self.ln_square, self.row_stat = f64(n, d), f64(n, d), f64(n, 1)


class Network:
    """Immutable weights plus a mutable block-evaluation counter.

    A Network serves one caller at a time: every block eval writes its
    intermediates into the Network's one workspace (``_BlockWorkspace``), so
    two evals may not run on the same Network concurrently.  An eval's output
    goes to its caller's row or to a fresh array, never to the workspace;
    only the hook-free ``forward`` keeps block outputs there, in two rows,
    and it returns a fresh array.
    """

    def __init__(self, cfg: DitConfig, blocks: tuple[BlockWeights, ...]):
        self.cfg = cfg
        self.blocks = blocks
        self.d_emb = cfg.channels
        self.eval_count = 0
        self._ws = _BlockWorkspace(cfg)
        self._score_scale = np.float32(1.0 / math.sqrt(cfg.channels))

    @property
    def num_blocks(self) -> int:
        return self.cfg.num_blocks

    def block_forward(
        self,
        index: int,
        x: Matrix,
        t_emb: Matrix,
        out: Optional[Matrix] = None,
    ) -> Matrix:
        """Evaluate one block: additive timestep conditioning, then pre-norm
        single-head attention and a pre-norm GELU MLP, both residual.

        ``out`` is the caller's row (see the hook protocol in the module
        docstring): given, the eval writes its output there and allocates
        nothing; with no row it allocates the output.  Either way it returns
        the output.  Every intermediate lives in the workspace.
        """
        cfg = self.cfg
        if x.shape != (cfg.num_tokens, cfg.channels):
            raise ShapeError(
                f"block input shape {x.shape} != ({cfg.num_tokens}, {cfg.channels})"
            )
        w = self.blocks[index]
        ws = self._ws
        self.eval_count += 1

        # conditioning enters through the attention branch's norm only; the
        # residual stream itself carries x plus the two branch outputs, added
        # in place (a = mm; a += x): float addition commutes, so the bits are
        # those of x + mm
        np.matmul(t_emb, w.wt, out=ws.cond)
        ws.xc[...] = ws.cond  # spread by assignment (see layer_norm_into)
        ws.xc += x
        layer_norm_into(ws.xc, LN_EPS, ws.hn, ws.ln_work, ws.ln_square, ws.row_stat)
        np.matmul(ws.hn, w.wqkv, out=ws.qkv)
        # q @ k.T from a contiguous copy of k.T: the copy plus BLAS's NN sgemm
        # cost less than its NT path on the strided view.  On OpenBLAS the two
        # paths give the same bits, which the golden digests pin
        ws.kt[...] = ws.k.T
        np.matmul(ws.q, ws.kt, out=ws.scores)
        ws.scores *= self._score_scale
        with np.errstate(over="ignore"):  # the softmax difference, the GELU cube
            softmax_rows_into(ws.scores, ws.scores, ws.softmax_stat, ws.softmax_work)
            np.matmul(ws.scores, ws.v, out=ws.attn)
            np.matmul(ws.attn, w.wo, out=ws.a)
            ws.a += x
            layer_norm_into(ws.a, LN_EPS, ws.hn, ws.ln_work, ws.ln_square, ws.row_stat)
            np.matmul(ws.hn, w.w1, out=ws.act)
            gelu_into(ws.act, ws.act, ws.gelu_work)
        # with out=None, matmul allocates after every temporary has been freed,
        # so the allocating call peaks at its output
        out = np.matmul(ws.act, w.w2, out=out)
        out += ws.a
        return out

    def forward(self, z: Matrix, t: float, hook: Optional[BlockHook] = None) -> Matrix:
        """Run all blocks in order; the final output is the noise prediction.

        With a hook installed, each block's served output is whatever the hook
        returns (same shape enforced), which may bypass computation entirely.
        """
        cfg = self.cfg
        if z.shape != (cfg.num_tokens, cfg.channels):
            raise ShapeError(f"input shape {z.shape} != ({cfg.num_tokens}, {cfg.channels})")
        t_emb = timestep_embedding(t, self.d_emb)
        x = z
        if hook is None:
            last = cfg.num_blocks - 1
            rows = self._ws.rows
            for i in range(last):
                x = self.block_forward(i, x, t_emb, rows[i % 2])
            return self.block_forward(last, x, t_emb)
        for i in range(cfg.num_blocks):
            def compute(out=None, i=i, x=x):
                return self.block_forward(i, x, t_emb, out)

            served = hook(i, x, compute)
            if not isinstance(served, np.ndarray) or served.shape != x.shape:
                raise ShapeError(f"hook returned wrong shape for block {i}")
            x = served
        return x


def init_network(cfg: DitConfig) -> Network:
    """Build the network for a config; weights are derived from cfg.seed only."""
    return Network(cfg, _weights_for_config(cfg))


def network_forward(net, z: Matrix, t: float, hooks: Optional[BlockHook] = None) -> Matrix:
    """Module-level forwarding entry point (duck-typed: any object exposing
    ``forward(z, t, hook)`` works, e.g. synthetic test networks)."""
    return net.forward(z, t, hooks)
