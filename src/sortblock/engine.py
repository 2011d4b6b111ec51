"""Block-wise feature caching with similarity-ranked recomputation and linear
feature prediction.

The engine is a block hook driving the toy network.  Within the configured
timestep window, steps cycle through phases modulo the refresh interval K
(``step_phase``: counted from window entry, so the cache is always warm
before the first prediction):

* phase 0 (mod K) -- "full": every block is computed; the step's residual
  deltas are the references for the next ranking.
* phase 1 (mod K) -- "ranked": the predicted deltas (each block's prediction
  minus the prediction before it, block 0's minus the step's input) are
  scored by cosine similarity against the reference deltas; the ceil(rho*N)
  lowest-scoring blocks are flagged for recomputation, and the serving pass
  recomputes exactly those, propagating recomputed outputs to downstream
  inputs sequentially.
* other phases -- "follow": flagged blocks are recomputed every step;
  unflagged blocks are served by prediction, extrapolating further.

Steps outside the window are computed fully and refresh the cache but do not
advance the phase counter.  A run's timesteps decrease (``begin_step``
refuses one that does not), so it enters the window once and leaves it once:
every ranked step directly follows a full step, and no anchor comes between
a ranked step and its follow steps.

Every step that refreshes the cache computes every block, so the cache is one
state shared by all blocks: the outputs of the last two compute-everything
(full or outside) steps, the anchors, and the interval between them.  A
ranked or follow step predicts all N blocks at once, before block 0 is
served, by ``linear_predict``'s extrapolation k = step - anchor steps beyond
the newer anchor, with slopes the ranked step writes over the older one.  A
ranked step's references are re-formed from the newer anchor, the full step
it follows.  Until two anchors exist the predictions are copies (counted as
degenerate in the trace).  Recomputes between anchors are served but not
cached: the next anchor supersedes them before any prediction would read
them, and a slope over single-step gaps would differentiate step-to-step
noise and resonate through the sampler feedback loop (extrapolation
amplifies a 1-step slope by up to K-1).

A step is served from one (N, tokens, channels) stack: an anchor step
computes every block into the older anchor's stack, a ranked or follow step
serves its predictions, and a recomputed block writes over its own.  Each
block returns its row, which must be the next block's input, so after the
last block ``stack - [z, stack[:-1]]`` is every served delta (the ranking
sweep scores the predicted deltas so too).  The heavy capture, the step's
``delta_l1`` and ``delta_l2``, its record and the anchor are then each done
once.

An engine without a config is the full-compute baseline of
``record_baseline``: every step is "full", no cache is kept, and heavy mode
captures every block's delta and each step's model output.

Only invoked computations count as block evaluations; predictions are a few
vector ops per step and are accounted separately in the trace.
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
    # in float64; the norms are sqrt(v.dot(v)), which is what np.linalg.norm computes
    av, bv = a.astype(np.float64).ravel(), b.astype(np.float64).ravel()
    return _cosine(float(av @ bv), math.sqrt(av.dot(av)), math.sqrt(bv.dot(bv)))


def _cosine(dot: float, na: float, nb: float) -> float:
    """The cosine of two vectors from their dot product and their norms."""
    if na < _NORM_FLOOR or nb < _NORM_FLOOR:
        return ZERO_DELTA_SIMILARITY
    c = dot / (na * nb)
    # the bits of float(np.clip(c, -1.0, 1.0)), NaN passing through, without
    # np.clip's per-call cost on a Python float
    return c if -1.0 <= c <= 1.0 else (math.copysign(1.0, c) if c == c else c)


@dataclass
class BlockCacheEntry:
    """One block's view of the cache: its outputs at the last two
    compute-everything steps and the step interval between them (the slope
    basis).  The engine holds all blocks' values stacked; this is the
    argument of the one-block reference formula ``linear_predict``."""

    value: Matrix
    prev_value: Optional[Matrix]
    interval: int  # steps between the two stored computations; 0 until both exist


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


def recompute_quota(rho: float, num_blocks: int) -> int:
    """ceil(rho * N), clamped to [0, N]; tiny epsilon guards float noise."""
    return min(num_blocks, max(0, math.ceil(rho * num_blocks - 1e-9)))


def select_blocks(scores: Sequence[float], rho: float) -> PolicySequence:
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
    return PolicySequence(flags=flags, scores=scores)


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


def step_phase(
    t: int, window: tuple[int, int], refresh_interval: int, counter: Optional[int]
) -> tuple[str, Optional[int]]:
    """The lifecycle rule: the label of a step at timestep ``t`` and the phase
    counter after it, given the counter after the previous step (None until
    the window is entered).  The counter starts at 0 on window entry and
    counts in-window steps only; modulo K, 0 is "full", 1 "ranked" and the
    rest "follow"."""
    t_high, t_low = window
    if not (t_low <= t <= t_high):
        return "outside", counter
    counter = 0 if counter is None else counter + 1
    r = counter % refresh_interval
    return ("full" if r == 0 else "ranked" if r == 1 else "follow"), counter


class SortblockEngine:
    """Stateful block hook implementing the caching lifecycle for one run.

    Single-owner state: use one engine per sampling run.  A mapping of
    step index -> flags can be supplied to replay recorded ranked-step
    decisions instead of ranking (the trace-driven policy simulator).

    With ``cfg=None`` every step computes every block and nothing is cached
    (the full-compute baseline); only then may ``heavy`` store every block's
    delta and ``store_outputs`` each step's model output in the trace.
    """

    def __init__(
        self,
        cfg: Optional[SortblockConfig],
        num_blocks: int,
        policy_override: Optional[Mapping[int, Sequence[int]]] = None,
        heavy: bool = False,
        store_outputs: bool = False,
    ):
        if cfg is not None and (heavy or store_outputs):
            raise ConfigError("heavy capture and stored outputs need a full-compute engine (cfg=None)")
        self.cfg = cfg
        self.num_blocks = num_blocks
        self.policy_override = policy_override
        self.heavy = heavy
        self.store_outputs = store_outputs
        self.trace = RunTrace(heavy=heavy, deltas=[] if heavy else None, outputs=[] if store_outputs else None)
        self.policy: Optional[PolicySequence] = None
        self.phase: Optional[int] = None  # step_phase's counter
        # the cache: the last two anchors (compute-everything steps)
        self.anchor_step: Optional[int] = None
        self.interval = 0  # steps between the two anchors; 0 until both exist
        # (N, tokens, channels) float32 stacks, allocated at the first eval; a
        # config-less engine has only ``values`` and ``_deltas``
        self.values: Optional[np.ndarray] = None  # outputs at the anchor step
        self.prev_values: Optional[np.ndarray] = None  # the anchor before; slopes from a ranked step on
        self.preds: Optional[np.ndarray] = None  # this step's predictions, then its recomputes
        self._deltas: Optional[np.ndarray] = None  # a step's deltas, written by ``_deltas_of``
        # (tokens, channels) float32 rows: the anchor step's input and a reference delta
        self._anchor_input = self._ref = None
        # float64 work rows: a predicted delta and its reference in the ranking
        # sweep; row 0 also widens each served delta for the step's statistics
        self._work64: Optional[np.ndarray] = None
        self._anchor_flags = [1] * num_blocks
        self._record: Optional[StepRecord] = None  # this step's step, timestep and phase
        # set at block 0: the step's stack, its flags, and its chain: the input,
        # then the stack's rows, so block i's input is entry i and its row i + 1
        self._stack: Optional[np.ndarray] = None
        self._flags: Sequence[int] = ()
        self._chain: Optional[list[np.ndarray]] = None

    def begin_step(self, step_index: int, t: int) -> None:
        t = int(t)
        if self._record is not None and t >= self._record.timestep:
            # the slopes of a ranked step serve its follow steps only if no
            # anchor can come between them (see the module docstring)
            raise SortblockError(f"timesteps must decrease: {t} after {self._record.timestep}")
        if self.cfg is None:
            label = "full"
        else:
            label, self.phase = step_phase(t, self.cfg.window, self.cfg.refresh_interval, self.phase)
        self._record = StepRecord(step=step_index, timestep=t, phase=label)
        self.trace.steps.append(self._record)
        self._chain = None

    def __call__(self, index: int, x: Matrix, compute: Callable) -> Matrix:
        if index == 0:
            self._begin_serving(x)
        elif self._chain is None or x is not self._chain[index]:
            raise SortblockError(f"block {index}'s input is not the array served for block {index - 1}")
        row = self._chain[index + 1]
        if self._flags[index]:
            compute(row)  # the block writes its output over the row
        if index == self.num_blocks - 1:
            self._end_step()
        return row

    def _begin_serving(self, z: Matrix) -> None:
        """Block 0: the step's stack, flags and chain (see the module docstring)."""
        if self._record is None:
            raise SortblockError("engine hook called before begin_step")
        if self._deltas is None:
            # no array larger than one (N, tokens*channels) float32 stack: glibc
            # raises its mmap and trim thresholds to the largest block freed,
            # which moves the cost of every later mid-sized allocation
            self._deltas = np.empty((self.num_blocks, *z.shape), dtype=np.float32)
            self._work64 = np.empty((2, z.size), dtype=np.float64)
            self.values = np.empty_like(self._deltas)
            if self.cfg is not None:
                self.prev_values, self.preds = np.empty_like(self.values), np.empty_like(self.values)
                self._anchor_input, self._ref = np.empty_like(self.values[0]), np.empty_like(self.values[0])
        if self._record.phase in ("full", "outside"):
            if self.cfg is not None:
                self.values, self.prev_values = self.prev_values, self.values
                np.copyto(self._anchor_input, z)  # a caller may reuse z's array
            self._stack, self._flags = self.values, self._anchor_flags
        else:
            self._predict_step(z)
            self._stack, self._flags = self.preds, self.policy.flags
        self._chain = [z, *self._stack]

    def _end_step(self) -> None:
        """After the last block, once each: the step's deltas, their captures
        and statistics, its record and the anchor."""
        rec = self._record
        served = self._deltas_of(self._stack, self._chain[0])
        if self.heavy:
            self.trace.deltas.append([d.copy() for d in self._deltas])
        if self.store_outputs:
            self.trace.outputs.append(self._stack[-1].copy())
        # after the copies: the statistics take the deltas' abs in place
        rec.delta_l1, rec.delta_l2 = served_delta_stats(served, self._work64[0])
        rec.flags = list(self._flags)
        rec.evals = sum(rec.flags)
        self.trace.total_evals += rec.evals
        rec.eval_total = self.trace.total_evals
        if self._flags is self._anchor_flags:
            self.interval = 0 if self.anchor_step is None else rec.step - self.anchor_step
            self.anchor_step = rec.step

    def _deltas_of(self, stack: np.ndarray, z: Matrix) -> np.ndarray:
        """Each block's output minus its input, ``stack - [z, stack[:-1]]``,
        into ``_deltas``, returned as (N, tokens*channels) rows: a step's
        served deltas, or the ranking sweep's predicted ones."""
        np.subtract(stack[0], z, out=self._deltas[0])
        np.subtract(stack[1:], stack[:-1], out=self._deltas[1:])
        return self._deltas.reshape(self.num_blocks, -1)

    def _predict_step(self, z: Matrix) -> None:
        """Predict every block into ``preds`` for this ranked or follow step;
        on a ranked step, then build the interval's policy."""
        rec = self._record
        ranked = rec.phase == "ranked"
        if not ranked and self.policy is None:
            raise SortblockError("follow step before any ranked step")
        if self.anchor_step is None:
            raise SortblockError("prediction requested before the first full compute")
        if self.cfg.predict_mode == "copy" or self.interval == 0:
            # copies of the cached values: value + slope * 0 would turn -0.0
            # into +0.0 and an inf slope into NaN
            np.copyto(self.preds, self.values)
            if self.cfg.predict_mode == "linear":  # a single anchor: degenerate copies
                rec.degenerate_predictions += self.num_blocks - (0 if ranked else sum(self.policy.flags))
        else:
            # linear_predict's operations on the stacks, so the same bits.  The
            # slope is the anchor interval's: a ranked step directly follows a
            # full anchor, and the follow steps after it share that anchor
            slopes = self.prev_values  # not read again before the next anchor
            if ranked:
                np.subtract(self.values, slopes, out=slopes)
                np.divide(slopes, np.float32(self.interval), out=slopes)
            np.multiply(slopes, np.float32(rec.step - self.anchor_step), out=self.preds)
            np.add(self.values, self.preds, out=self.preds)
        if ranked:
            self._select(z)

    def _select(self, z: Matrix) -> None:
        """This interval's policy: replayed flags, or the ranking of the
        predicted deltas against the reference deltas.

        The sweep chains predicted outputs as inputs (the only causally
        consistent choice: scores must exist before any block is selected),
        and costs no block evaluations.  The serving pass afterwards
        propagates recomputed outputs sequentially, so downstream deltas see
        partially corrected inputs.
        """
        rec = self._record
        if self.policy_override is not None:
            try:
                flags = [int(f) for f in self.policy_override[rec.step]]
            except KeyError:
                raise ConfigError(
                    f"policy override has no entry for ranked step {rec.step}"
                ) from None
            if len(flags) != self.num_blocks:
                raise ConfigError("policy override flag count != num_blocks")
            self.policy = PolicySequence(flags=flags, scores=None)
            return
        full = self.trace.steps[-2]  # the newer anchor, if it is a full step
        if full.phase != "full" or full.step != self.anchor_step:
            raise SortblockError("ranked step before any full step")
        # the float32 predicted deltas (the delta stack is rewritten at the
        # step's end), each widened with its reference for the float64 score:
        # the full step's served delta, re-formed by the same subtraction, whose
        # norm is that step's delta_l2, the same sqrt of the same dot
        pred64, ref64 = self._work64
        scores = []
        for i, (delta, ref_norm) in enumerate(zip(self._deltas_of(self.preds, z), full.delta_l2)):
            np.subtract(self.values[i], self.values[i - 1] if i else self._anchor_input, out=self._ref)
            pred64[...] = delta
            ref64[...] = self._ref.reshape(-1)
            scores.append(_cosine(float(pred64 @ ref64), math.sqrt(pred64.dot(pred64)), ref_norm))
        self.policy = select_blocks(scores, self.cfg.effective_rho(rec.timestep))
        rec.scores = list(self.policy.scores)


def sample_counted(sampler, net, run: SamplerRun, sched: NoiseSchedule, engine: SortblockEngine) -> Matrix:
    """``sampler(net, run, sched, hooks=engine)``, timed into the trace's
    ``wall_time_s``.  Where the network counts its block evals
    (``net.eval_count``), the trace's eval total must agree with that count.

    ``sampler`` is ``diffusion.sample`` as the caller's module sees it."""
    evals_before = getattr(net, "eval_count", None)
    t0 = time.perf_counter()
    latent = sampler(net, run, sched, hooks=engine)
    engine.trace.wall_time_s = time.perf_counter() - t0
    if evals_before is not None and engine.trace.total_evals != net.eval_count - evals_before:
        raise SortblockError(
            f"eval accounting mismatch: the trace counts {engine.trace.total_evals} "
            f"block evals, the network {net.eval_count - evals_before}"
        )
    return latent


def run_sortblock(
    net,
    run: SamplerRun,
    sched: NoiseSchedule,
    cfg: SortblockConfig,
    policy_override: Optional[Mapping[int, Sequence[int]]] = None,
) -> tuple[Matrix, RunTrace]:
    """Sample with the caching engine installed; returns (final latent, trace)."""
    engine = SortblockEngine(cfg, net.num_blocks, policy_override)
    latent = sample_counted(sample, net, run, sched, engine)
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
    rho: float,
) -> int:
    """Closed-form lifecycle accounting: the block-eval total derived from
    phase labels alone, without touching any tensors.  Full steps (outside or
    refresh) cost N; ranked and follow steps cost ceil(rho*N)."""
    quota = recompute_quota(rho, num_blocks)
    total = 0
    counter: Optional[int] = None
    for t in step_list:
        label, counter = step_phase(t, window, refresh_interval, counter)
        total += num_blocks if label in ("outside", "full") else quota
    return total
