"""Block-wise feature caching with similarity-ranked recomputation and linear
feature prediction.

The engine is a block hook driving the toy network.  Within the configured
timestep window, steps cycle through phases modulo the refresh interval K
(counted from window entry, so the cache is always warm before the first
prediction):

* phase 0 (mod K) -- "full": every block is computed; each block's residual
  delta is stored as the reference for the next ranking.
* phase 1 (mod K) -- "ranked": every block's output is first predicted by
  linear extrapolation of its cache entry; the predicted deltas (prediction
  minus the predicted input chain) are scored by cosine similarity against
  the stored reference deltas; the ceil(rho*N) lowest-scoring blocks are
  flagged for recomputation, and the serving pass recomputes exactly those,
  propagating recomputed outputs to downstream inputs sequentially.
* other phases -- "follow": flagged blocks are recomputed every step (and
  refresh their cache entries); unflagged blocks are served by prediction,
  extrapolating further from their last computed values.

Steps outside the window are computed fully and refresh the cache but do not
advance the phase counter.

Only invoked computations count as block evaluations; predictions are a few
vector ops and are accounted separately in the trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .diffusion import NoiseSchedule, SamplerRun, sample
from .errors import ConfigError, ShapeError, SortblockError
from .numerics import Matrix
from .ratio import RatioPolicy, evaluate_ratio
from .trace import RunTrace, StepRecord, served_delta_stats

# Similarity assigned when a delta has (near-)zero norm: an unchanged block is
# the safest possible reuse candidate, so it ranks as maximally similar.
ZERO_DELTA_SIMILARITY = 1.0

_NORM_FLOOR = 1e-12


def cosine_similarity(a: Matrix, b: Matrix) -> float:
    """Cosine similarity of two flattened tensors, clamped to [-1, 1].

    Either operand having norm below 1e-12 yields the zero-delta sentinel.
    """
    if a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: shapes differ ({a.shape} vs {b.shape})")
    return _cosine_float64(a.astype(np.float64).ravel(), b.astype(np.float64).ravel())


def _cosine_float64(av: np.ndarray, bv: np.ndarray) -> float:
    """``cosine_similarity`` of two float64 vectors.  The norms are
    ``sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes."""
    na = math.sqrt(av.dot(av))
    nb = math.sqrt(bv.dot(bv))
    if na < _NORM_FLOOR or nb < _NORM_FLOOR:
        return ZERO_DELTA_SIMILARITY
    c = float(av @ bv) / (na * nb)
    # the bits of float(np.clip(c, -1.0, 1.0)), NaN passing through, without
    # np.clip's per-call cost on a Python float
    return c if -1.0 <= c <= 1.0 else (math.copysign(1.0, c) if c == c else c)


@dataclass
class BlockCacheEntry:
    """Feature values from the last two full-compute steps plus the step
    interval between them (the slope basis), and the step of the block's most
    recent actual computation of any kind.

    Slope pairs anchor exclusively on full-compute steps: inside the window
    the interval is the refresh interval K, so the extrapolation slope is a
    K-step average.  Anchoring slopes on single-step recompute gaps instead
    would differentiate step-to-step noise and resonate through the sampler
    feedback loop (extrapolation amplifies a 1-step slope by up to K-1).
    Mid-interval recomputes refresh only last_compute_step; their outputs are
    served directly and the next full step supersedes them before any
    prediction would consume them.
    """

    value: Matrix
    prev_value: Optional[Matrix]
    interval: int  # steps between the two stored computations; 0 until both exist
    last_compute_step: int


def linear_predict(entry: BlockCacheEntry, k: int) -> Matrix:
    """First-order extrapolation k steps beyond the newest cached value:
    value + ((value - prev_value) / interval) * k.

    An entry holding a single computation degenerates to a plain copy
    (k-independent); callers flag that case in the trace.
    """
    if k < 0:
        raise ConfigError("extrapolation distance k must be >= 0")
    if entry.prev_value is None or entry.interval < 1:
        return entry.value
    slope = (entry.value - entry.prev_value) / np.float32(entry.interval)
    return entry.value + slope * np.float32(k)


@dataclass
class PolicySequence:
    """Per-block recompute flags (1 = recompute) plus the similarity scores
    that produced them; scores are None when the policy was replayed."""

    flags: list[int]
    scores: Optional[list[float]]
    created_at_step: int = -1


def recompute_quota(rho: float, num_blocks: int) -> int:
    """ceil(rho * N), clamped to [0, N]; tiny epsilon guards float noise."""
    return min(num_blocks, max(0, math.ceil(rho * num_blocks - 1e-9)))


def select_blocks(scores: Sequence[float], rho: float, created_at_step: int = -1) -> PolicySequence:
    """Flag the ceil(rho*N) lowest-scoring blocks for recomputation.

    Non-finite scores (NaN, +-inf) rank as least similar, so a block whose
    similarity cannot be trusted is always among the first recomputed.  Ties
    break toward the lower block index (stable sort), so traces are
    reproducible.
    """
    scores = [float(s) for s in scores]
    if not scores:
        raise ConfigError("select_blocks needs at least one score")
    if not (0.0 <= rho <= 1.0):
        raise ConfigError("rho must lie in [0, 1]")
    keys = np.asarray(scores, dtype=np.float64)
    order = np.argsort(np.where(np.isfinite(keys), keys, -np.inf), kind="stable")
    flags = [0] * len(scores)
    for idx in order[: recompute_quota(rho, len(scores))]:
        flags[int(idx)] = 1
    return PolicySequence(flags=flags, scores=scores, created_at_step=created_at_step)


@dataclass(frozen=True)
class SortblockConfig:
    """Caching hyperparameters.

    window is (t_high, t_low): caching is active for t_high >= t >= t_low.
    In fixed mode the effective ratio is beta * rho; in adaptive mode it is
    the fitted policy's beta-scaled curve evaluated at the current timestep.
    """

    refresh_interval: int = 5
    ratio_mode: str = "fixed"  # fixed | adaptive
    rho: float = 0.3
    ratio_policy: Optional[RatioPolicy] = None
    beta: float = 1.0
    window: tuple[int, int] = (900, 100)
    predict_mode: str = "linear"  # linear | copy

    def __post_init__(self):
        if self.refresh_interval < 2:
            raise ConfigError("refresh_interval K must be >= 2")
        if self.ratio_mode not in ("fixed", "adaptive"):
            raise ConfigError("ratio_mode must be 'fixed' or 'adaptive'")
        if self.predict_mode not in ("linear", "copy"):
            raise ConfigError("predict_mode must be 'linear' or 'copy'")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError("rho must lie in [0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError("beta must lie in [0, 1]")
        t_high, t_low = self.window
        if not (t_high > t_low >= 0):
            raise ConfigError("window must satisfy t_high > t_low >= 0")
        if self.ratio_mode == "adaptive" and self.ratio_policy is None:
            raise ConfigError("adaptive ratio_mode requires a ratio_policy")

    def effective_rho(self, t: int) -> float:
        if self.ratio_mode == "fixed":
            return min(1.0, max(0.0, self.beta * self.rho))
        return evaluate_ratio(self.ratio_policy, t)


def inner_window(step_list: Sequence[int], fraction: float = 0.8) -> tuple[int, int]:
    """Window covering the inner `fraction` of the step list (by step count),
    excluding equal shares of the earliest and latest steps."""
    if not (0.0 < fraction <= 1.0):
        raise ConfigError("fraction must lie in (0, 1]")
    n = len(step_list)
    excl = int(round(n * (1.0 - fraction) / 2.0))
    if n - 2 * excl < 2:
        raise ConfigError("window fraction leaves fewer than two steps inside")
    return int(step_list[excl]), int(step_list[n - excl - 1])


class SortblockEngine:
    """Stateful block hook implementing the caching lifecycle for one run.

    Single-owner state: use one engine per sampling run.  A mapping of
    step index -> flags can be supplied to replay recorded ranked-step
    decisions instead of ranking (the trace-driven policy simulator).
    """

    def __init__(
        self,
        cfg: SortblockConfig,
        num_blocks: int,
        policy_override: Optional[Mapping[int, Sequence[int]]] = None,
    ):
        self.cfg = cfg
        self.num_blocks = num_blocks
        self.policy_override = policy_override
        self.entries: list[Optional[BlockCacheEntry]] = [None] * num_blocks
        self.ref_deltas: list[Optional[Matrix]] = [None] * num_blocks
        self.policy: Optional[PolicySequence] = None
        self.phase: Optional[int] = None
        self.trace = RunTrace()
        self._step = -1
        self._t = -1
        self._label = "outside"
        self._anchor_step: Optional[int] = None  # most recent completed full-compute step
        self._preds: Optional[list[Matrix]] = None
        self._record: Optional[StepRecord] = None
        self._served: Optional[np.ndarray] = None  # this step's served deltas, one row per block
        # the ranking sweep's float64 operands: a predicted delta and its reference
        self._sweep64: Optional[np.ndarray] = None

    def begin_step(self, step_index: int, t: int) -> None:
        self._step = step_index
        self._t = int(t)
        t_high, t_low = self.cfg.window
        if not (t_low <= self._t <= t_high):
            self._label = "outside"
        else:
            # the phase counter anchors at window entry and ignores outside steps
            self.phase = 0 if self.phase is None else self.phase + 1
            r = self.phase % self.cfg.refresh_interval
            self._label = "full" if r == 0 else ("ranked" if r == 1 else "follow")
        self._preds = None
        self._record = StepRecord(
            step=step_index,
            timestep=self._t,
            phase=self._label,
            flags=[],
            scores=None,
            delta_l1=[],
            delta_l2=[],
            evals=0,
            eval_total=0,
        )
        self.trace.steps.append(self._record)

    def __call__(self, index: int, x: Matrix, compute: Callable) -> Matrix:
        label = self._label
        rec = self._record
        if rec is None:
            raise SortblockError("engine hook called before begin_step")
        if self._served is None:
            self._served = np.empty((self.num_blocks, x.size), dtype=np.float32)
        row = self._served[index]

        if label in ("outside", "full"):
            io = compute()
            self._update_cache(index, io.output, anchor=True)
            if label == "full":
                self.ref_deltas[index] = io.delta
            rec.flags.append(1)
            served = io.output
            row[:] = io.delta.reshape(-1)
        elif label == "ranked":
            if index == 0:
                self._rank_and_select(x)
            flag = self.policy.flags[index]
            if flag:
                io = compute()
                self._update_cache(index, io.output, anchor=False)
                served = io.output
                row[:] = io.delta.reshape(-1)
            else:
                served = self._preds[index]
                np.subtract(served, x, out=row.reshape(x.shape))
            rec.flags.append(flag)
        else:  # follow
            if self.policy is None:
                raise SortblockError("follow step before any ranked step")
            flag = self.policy.flags[index]
            if flag:
                io = compute()
                self._update_cache(index, io.output, anchor=False)
                served = io.output
                row[:] = io.delta.reshape(-1)
            else:
                served, degenerate = self._predict(index)
                if degenerate:
                    rec.degenerate_predictions += 1
                np.subtract(served, x, out=row.reshape(x.shape))
            rec.flags.append(flag)

        if index == self.num_blocks - 1:
            rec.delta_l1, rec.delta_l2 = served_delta_stats(self._served)
            self.trace.total_evals += rec.evals
            rec.eval_total = self.trace.total_evals
            if label in ("outside", "full"):
                self._anchor_step = self._step
        return served

    def _update_cache(self, index: int, output: Matrix, anchor: bool) -> None:
        """Record an actual computation.  Anchor computes (full/outside steps)
        roll the slope pair; mid-interval recomputes only mark the step."""
        self._record.evals += 1
        entry = self.entries[index]
        if entry is None:
            self.entries[index] = BlockCacheEntry(output, None, 0, self._step)
        elif anchor:
            prev_anchor = self._anchor_step if self._anchor_step is not None else entry.last_compute_step
            self.entries[index] = BlockCacheEntry(
                value=output,
                prev_value=entry.value,
                interval=self._step - prev_anchor,
                last_compute_step=self._step,
            )
        else:
            self.entries[index] = BlockCacheEntry(
                value=entry.value,
                prev_value=entry.prev_value,
                interval=entry.interval,
                last_compute_step=self._step,
            )

    def _predict(self, index: int) -> tuple[Matrix, bool]:
        entry = self.entries[index]
        if entry is None:
            raise SortblockError("prediction requested before the first full compute")
        if self.cfg.predict_mode == "copy":
            return entry.value, False
        if entry.prev_value is None:
            return entry.value, True  # single computation: degenerate copy
        return linear_predict(entry, self._step - entry.last_compute_step), False

    def _rank_and_select(self, z: Matrix) -> None:
        """Prediction sweep over all blocks, then build this interval's policy.

        The sweep chains predicted outputs as inputs (the only causally
        consistent choice: scores must exist before any block is selected),
        and costs no block evaluations.  The serving pass afterwards
        propagates recomputed outputs sequentially, so downstream deltas see
        partially corrected inputs.
        """
        rec = self._record
        ranking = self.policy_override is None
        if ranking:
            if self._sweep64 is None:
                self._sweep64 = np.empty((2, z.size), dtype=np.float64)
            pred64, ref64 = self._sweep64
        preds: list[Matrix] = []
        scores: list[float] = []
        x = z
        for i in range(self.num_blocks):
            p, degenerate = self._predict(i)
            if degenerate:
                rec.degenerate_predictions += 1
            preds.append(p)
            if ranking:
                ref = self.ref_deltas[i]
                if ref is None:
                    raise SortblockError("ranked step before any full step")
                # the float32 delta p - x, cast to float64 as it is written
                np.subtract(p, x, out=pred64.reshape(x.shape), dtype=np.float32)
                ref64.reshape(ref.shape)[...] = ref
                scores.append(_cosine_float64(pred64, ref64))
            x = p
        self._preds = preds

        if not ranking:
            try:
                flags = [int(f) for f in self.policy_override[self._step]]
            except KeyError:
                raise ConfigError(
                    f"policy override has no entry for ranked step {self._step}"
                ) from None
            if len(flags) != self.num_blocks:
                raise ConfigError("policy override flag count != num_blocks")
            self.policy = PolicySequence(flags=flags, scores=None, created_at_step=self._step)
        else:
            rho = self.cfg.effective_rho(self._t)
            self.policy = select_blocks(scores, rho, created_at_step=self._step)
            rec.scores = list(self.policy.scores)


def run_sortblock(
    net,
    run: SamplerRun,
    sched: NoiseSchedule,
    cfg: SortblockConfig,
    policy_override: Optional[Mapping[int, Sequence[int]]] = None,
) -> tuple[Matrix, RunTrace]:
    """Sample with the caching engine installed; returns (final latent, trace)."""
    engine = SortblockEngine(cfg, net.num_blocks, policy_override)
    evals_before = getattr(net, "eval_count", None)
    t0 = time.perf_counter()
    latent = sample(net, run, sched, hooks=engine)
    engine.trace.wall_time_s = time.perf_counter() - t0
    if evals_before is not None:
        # the trace's accounting must agree with the network's own counter
        counted = net.eval_count - evals_before
        if engine.trace.total_evals != counted:
            raise SortblockError(
                f"eval accounting mismatch: the trace counts {engine.trace.total_evals} "
                f"block evals, the network {counted}"
            )
    engine.trace.config = {
        "mode": "sortblock",
        "refresh_interval": cfg.refresh_interval,
        "ratio_mode": cfg.ratio_mode,
        "rho": cfg.rho,
        "beta": cfg.beta,
        "window": list(cfg.window),
        "predict": cfg.predict_mode,
        "steps": len(run.step_list),
        "num_blocks": net.num_blocks,
        "seed": run.seed,
        "replayed_policy": policy_override is not None,
    }
    engine.trace.final_latent = latent
    return latent, engine.trace


def expected_eval_count(
    step_list: Sequence[int],
    window: tuple[int, int],
    refresh_interval: int,
    num_blocks: int,
    rho: Optional[float] = None,
    rho_fn: Optional[Callable[[int], float]] = None,
) -> int:
    """Closed-form lifecycle accounting: the block-eval total derived from
    phase labels alone, without touching any tensors.  Full steps (outside or
    refresh) cost N; ranked and follow steps cost ceil(rho*N), with the quota
    frozen at each ranked step's timestep for the rest of its interval (the
    policy is only rebuilt there)."""
    if (rho is None) == (rho_fn is None):
        raise ConfigError("provide exactly one of rho / rho_fn")
    t_high, t_low = window
    total = 0
    phase: Optional[int] = None
    quota = 0
    for t in step_list:
        if not (t_low <= t <= t_high):
            total += num_blocks
            continue
        phase = 0 if phase is None else phase + 1
        r = phase % refresh_interval
        if r == 0:
            total += num_blocks
        else:
            if r == 1:
                quota = recompute_quota(rho if rho_fn is None else rho_fn(int(t)), num_blocks)
            total += quota
    return total
