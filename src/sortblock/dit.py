"""Toy denoising transformer: a stack of deterministic pre-norm blocks over a
token grid, with a per-block interception hook.

The network exists to give the caching engine realistic block-boundary
features at desk scale.  Weights are random but fixed by seed; everything a
run produces is a pure function of (config seed, input, timestep).

Hook protocol
-------------
``forward(z, t, hook)`` calls ``hook(block_index, x, compute)`` once per block.
``compute`` is a zero-argument thunk that actually evaluates the block (and
increments the network's eval counter) returning a :class:`BlockIO`; the hook
either invokes it or serves a replacement output of the same shape without
paying for the block.  ``hook.begin_step``, when present, is invoked by the
sampler once per timestep before the forward pass.
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
    gelu_into,
    layer_norm_into,
    mix64,
    softmax_rows_into,
    standard_normal,
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

BlockHook = Callable[[int, Matrix, Callable[[], "BlockIO"]], Matrix]


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
    timestep-conditioning projection."""

    wq: Matrix
    wk: Matrix
    wv: Matrix
    wo: Matrix
    w1: Matrix
    w2: Matrix
    wt: Matrix


@dataclass(frozen=True)
class BlockIO:
    """A block evaluation: input, output, and their residual delta."""

    input: Matrix
    output: Matrix
    delta: Matrix  # output - input, computed in the same float32 arithmetic


def _embedding_freqs(d_emb: int) -> np.ndarray:
    half = d_emb // 2
    if half >= 2:
        exponents = np.arange(half, dtype=np.float64) / (half - 1)
        return 10000.0 ** (-exponents)
    return np.ones(max(half, 0), dtype=np.float64)


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


def _conditioning_lowpass(d_emb: int) -> np.ndarray:
    """Per-row damping of the conditioning projection (column vector)."""
    freqs = _embedding_freqs(d_emb)
    weights = 1.0 / (1.0 + (freqs * TEMPORAL_SMOOTHING) ** 2)
    row = np.ones(d_emb, dtype=np.float64)
    half = d_emb // 2
    row[:half] = weights
    row[half : 2 * half] = weights
    return row.astype(np.float32).reshape(d_emb, 1)


def _init_block_weights(seed: int, d: int, mlp_ratio: int, d_emb: int) -> BlockWeights:
    # draw order is fixed: wq, wk, wv, wo, w1, w2, wt
    rng = Rng(seed)
    scale = np.float32(1.0 / math.sqrt(d))
    gain = np.float32(BRANCH_GAIN)
    draw = lambda r, c: standard_normal(rng, r, c) * scale
    return BlockWeights(
        wq=draw(d, d),
        wk=draw(d, d),
        wv=draw(d, d),
        wo=draw(d, d) * gain,
        w1=draw(d, mlp_ratio * d),
        w2=draw(mlp_ratio * d, d) * gain,
        wt=draw(d_emb, d) * _conditioning_lowpass(d_emb),
    )


@lru_cache(maxsize=8)
def _weights_for_config(cfg: DitConfig) -> tuple[BlockWeights, ...]:
    # block i gets the sub-seed cfg.seed XOR mix64(i + 1); weights are immutable
    # and shared between Network instances for the same config
    return tuple(
        _init_block_weights(cfg.seed ^ mix64(i + 1), cfg.channels, cfg.mlp_ratio, cfg.channels)
        for i in range(cfg.num_blocks)
    )


class _BlockWorkspace:
    """Every intermediate of one block eval, allocated once per Network.

    float32: the conditioning row, ``x + c``, the normalized input of either
    branch, q, k, v, the scores (softmaxed in place, with a float32 row
    statistic), the attention output, the residual after attention, the MLP
    activation (GELU in place) and GELU's work.  float64: the layer norms'
    work, square and row statistics.
    """

    def __init__(self, cfg: DitConfig):
        n, d, h = cfg.num_tokens, cfg.channels, cfg.mlp_ratio * cfg.channels
        f32 = lambda *shape: np.empty(shape, dtype=np.float32)
        f64 = lambda *shape: np.empty(shape, dtype=np.float64)
        self.cond = f32(1, d)
        self.xc = f32(n, d)
        self.hn = f32(n, d)
        self.q, self.k, self.v = f32(n, d), f32(n, d), f32(n, d)
        self.scores = f32(n, n)
        self.attn = f32(n, d)
        self.a = f32(n, d)
        self.act, self.gelu_work = f32(n, h), f32(n, h)
        self.softmax_stat = f32(n, 1)
        self.ln_work, self.ln_square, self.row_stat = f64(n, d), f64(n, d), f64(n, 1)


class Network:
    """Immutable weights plus a mutable block-evaluation counter.

    A Network serves one caller at a time: every block eval writes its
    intermediates into the Network's one workspace (``_BlockWorkspace``), so
    two evals may not run on the same Network concurrently.  What an eval
    returns never aliases the workspace.
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

    def block_forward(self, index: int, x: Matrix, t_emb: Matrix) -> BlockIO:
        """Evaluate one block: additive timestep conditioning, then pre-norm
        single-head attention and a pre-norm GELU MLP, both residual.

        Every step writes into the workspace; the output and the delta are
        the only arrays an eval allocates.
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
        np.add(x, ws.cond, out=ws.xc)
        layer_norm_into(ws.xc, LN_EPS, ws.hn, ws.ln_work, ws.ln_square, ws.row_stat)
        np.matmul(ws.hn, w.wq, out=ws.q)
        np.matmul(ws.hn, w.wk, out=ws.k)
        np.matmul(ws.hn, w.wv, out=ws.v)
        np.matmul(ws.q, ws.k.T, out=ws.scores)
        ws.scores *= self._score_scale
        softmax_rows_into(ws.scores, ws.scores, ws.softmax_stat)
        np.matmul(ws.scores, ws.v, out=ws.attn)
        np.matmul(ws.attn, w.wo, out=ws.a)
        ws.a += x
        layer_norm_into(ws.a, LN_EPS, ws.hn, ws.ln_work, ws.ln_square, ws.row_stat)
        np.matmul(ws.hn, w.w1, out=ws.act)
        gelu_into(ws.act, ws.act, ws.gelu_work)
        out = ws.act @ w.w2
        out += ws.a

        return BlockIO(input=x, output=out, delta=out - x)

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
        for i in range(cfg.num_blocks):
            if hook is None:
                x = self.block_forward(i, x, t_emb).output
            else:
                def compute(i=i, x=x):
                    return self.block_forward(i, x, t_emb)

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
