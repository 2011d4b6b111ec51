"""Noise schedule, forward noising, and the deterministic DDIM reverse loop.

Notation: ``alphas_bar[t]`` is the cumulative product of (1 - beta_i) up to t.
The DDIM update is implemented with that cumulative quantity throughout (the
standard convention), in the algebraically equivalent factored form

    z_prev = sqrt(abar_prev / abar_t) * z_t
             + (sqrt(1 - abar_prev - sigma^2) - sqrt(abar_prev / abar_t) * sqrt(1 - abar_t)) * eps
             + sigma * noise

so that the equal-alpha case collapses to the identity exactly, coefficient
arithmetic included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError
from .numerics import Matrix, Rng, standard_normal


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear-beta schedule.  Invariants (enforced by make_schedule): betas in
    (0,1), alphas_bar strictly decreasing and in (0,1]."""

    total_steps: int
    betas: np.ndarray  # float64, (T,)
    alphas_bar: np.ndarray  # float64, (T,)
    sigmas: np.ndarray  # float64, (T,); all zero => deterministic sampler


def make_schedule(total_steps: int, beta_start: float = 1e-4, beta_end: float = 2e-2) -> NoiseSchedule:
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError("need 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, total_steps, dtype=np.float64)
    alphas_bar = np.cumprod(1.0 - betas)
    return NoiseSchedule(
        total_steps=total_steps,
        betas=betas,
        alphas_bar=alphas_bar,
        sigmas=np.zeros(total_steps, dtype=np.float64),
    )


def forward_noise(z0: Matrix, t: int, sched: NoiseSchedule, eps: Matrix) -> Matrix:
    """Closed-form forward posterior sample: sqrt(abar_t) z0 + sqrt(1-abar_t) eps."""
    if eps.shape != z0.shape:
        raise ShapeError(f"eps shape {eps.shape} != z0 shape {z0.shape}")
    abar = float(sched.alphas_bar[t])
    return np.float32(np.sqrt(abar)) * z0 + np.float32(np.sqrt(1.0 - abar)) * eps


def ddim_step(
    z_t: Matrix,
    eps_pred: Matrix,
    t: int,
    t_prev: int,
    sched: NoiseSchedule,
    noise: Optional[Matrix] = None,
) -> Matrix:
    """One reverse step from timestep t to t_prev (t > t_prev)."""
    if eps_pred.shape != z_t.shape:
        raise ShapeError(f"eps shape {eps_pred.shape} != z shape {z_t.shape}")
    if t <= t_prev:
        raise ConfigError(f"ddim_step requires t > t_prev (got {t} -> {t_prev})")
    abar_t = float(sched.alphas_bar[t])
    abar_prev = float(sched.alphas_bar[t_prev])
    sigma = float(sched.sigmas[t])
    if sigma * sigma > 1.0 - abar_prev + 1e-12:
        raise ConfigError("sigma_t^2 must not exceed 1 - alphas_bar[t_prev]")

    ratio = np.sqrt(abar_prev / abar_t)
    eps_coef = np.sqrt(max(1.0 - abar_prev - sigma * sigma, 0.0)) - ratio * np.sqrt(1.0 - abar_t)
    out = np.float32(ratio) * z_t + np.float32(eps_coef) * eps_pred
    if sigma > 0.0:
        if noise is None:
            raise ConfigError("stochastic step (sigma > 0) requires a noise tensor")
        out = out + np.float32(sigma) * noise
    return out


def uniform_step_list(total_steps: int, num_steps: int) -> tuple[int, ...]:
    """Uniform-stride DDIM sub-schedule over [0, T-1], highest timestep first.

    The list stays strictly above 0; the sampling loop's final transition
    targets t=0 implicitly.
    """
    if not (1 <= num_steps <= total_steps - 1):
        raise ConfigError("num_steps must be in [1, total_steps - 1]")
    grid = np.linspace(total_steps - 1, 0.0, num_steps + 1)[:-1]
    steps = tuple(int(v) for v in np.rint(grid))
    if len(set(steps)) != len(steps):
        raise ConfigError("step list has duplicate timesteps; reduce num_steps")
    return steps


@dataclass
class SamplerRun:
    """One sampling trajectory: sub-sampled timesteps, the initial latent, and
    the seed it was drawn from."""

    step_list: tuple[int, ...]
    z_init: Matrix
    seed: int

    def __post_init__(self):
        steps = tuple(int(t) for t in self.step_list)
        if any(b >= a for a, b in zip(steps, steps[1:])):
            raise ConfigError("step_list must be strictly decreasing")
        if steps and steps[-1] < 1:
            raise ConfigError("step_list entries must stay >= 1 (final target is t=0)")
        self.step_list = steps


def make_run(sched: NoiseSchedule, num_steps: int, seed: int, shape: tuple[int, int]) -> SamplerRun:
    steps = uniform_step_list(sched.total_steps, num_steps)
    z_init = standard_normal(Rng(seed), shape[0], shape[1])
    return SamplerRun(step_list=steps, z_init=z_init, seed=seed)


def sample(net, run: SamplerRun, sched: NoiseSchedule, hooks=None) -> Matrix:
    """Full reverse pass: one network forward + one DDIM step per list entry.

    Deterministic whenever every visited sigma_t is zero; the noise generator
    is only instantiated (and advanced) for stochastic steps.  A step whose
    latent holds inf or NaN raises ``NonFiniteError`` naming the step index
    and timestep, so a diverged run stops where it diverged.
    """
    # imported per call, not at module top, so that every sample calls the
    # current ``dit.network_forward``: bench/tracing.py replaces it, as it
    # does ``engine.sample``, ``trace.sample`` and ``engine.SortblockEngine``
    from .dit import network_forward

    begin_step = getattr(hooks, "begin_step", None)
    noise_rng: Optional[Rng] = None
    z = run.z_init
    steps = run.step_list
    for idx, t in enumerate(steps):
        if begin_step is not None:
            begin_step(idx, t)
        eps = network_forward(net, z, t, hooks)
        t_prev = steps[idx + 1] if idx + 1 < len(steps) else 0
        noise = None
        if float(sched.sigmas[t]) > 0.0:
            if noise_rng is None:
                noise_rng = Rng(run.seed ^ 0xD1FF0_5EED)
            noise = standard_normal(noise_rng, z.shape[0], z.shape[1])
        z = ddim_step(z, eps, t, t_prev, sched, noise)
        if not np.isfinite(z).all():
            raise NonFiniteError(
                f"the latent is not finite after step {idx} (timestep {t} -> {t_prev})"
            )
    return z
