"""Timestep-dependent recomputation ratio.

The ratio curve is fitted to how much the model's output actually moves
between consecutive steps of a full-compute run: more movement means more
blocks should be recomputed there.  Both axes are normalized before fitting
(timesteps to [0,1], L1 magnitudes min-max to [0,1]) so the global scale
knob beta keeps a stable meaning across models and seeds; the evaluated
ratio is clamp(beta * poly(u), 0, 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError, MissingDataError, ParseError, checked, read_json, schema
from .numerics import Polynomial, poly_eval, polyfit
from .trace import RunTrace

FIT_DEGREES = (3, 4, 5)
DEFAULT_DEGREE = 5


@dataclass(frozen=True)
class RatioPolicy:
    poly: Polynomial
    beta: float
    t_min: float
    t_max: float

    def __post_init__(self):
        if self.poly.degree not in FIT_DEGREES:
            raise ConfigError(f"ratio polynomial degree must be one of {FIT_DEGREES}")
        if not all(math.isfinite(c) for c in self.poly.coefficients):
            # evaluate_ratio would clamp a NaN ratio to 0: no block recomputed
            raise ConfigError("ratio polynomial coefficients must be finite")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError("beta must lie in [0, 1]")
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max) and self.t_max > self.t_min):
            raise ConfigError("normalization range must be finite and satisfy t_max > t_min")


def measure_l1_curve(trace: RunTrace) -> tuple[list[float], list[float]]:
    """Mean absolute difference between consecutive-step model outputs.

    Returns one value per step pair, labeled with the later (more denoised)
    step's timestep -- the step at which a policy would act on that change.
    Each output is widened to float64 once: a pair's later output is the
    next pair's earlier one.
    """
    if trace.outputs is None:
        raise MissingDataError("trace has no recorded model outputs (record with outputs on)")
    if len(trace.outputs) < 2:
        raise MissingDataError("need at least two recorded steps")
    timesteps: list[float] = []
    values: list[float] = []
    b = trace.outputs[0].astype(np.float64)
    for i in range(1, len(trace.outputs)):
        a, b = b, trace.outputs[i].astype(np.float64)
        timesteps.append(float(trace.steps[i].timestep))
        values.append(float(np.mean(np.abs(b - a))))
    return timesteps, values


def fit_ratio_policy(timesteps, l1_values, degree: int = DEFAULT_DEGREE, beta: float = 1.0) -> RatioPolicy:
    """Fit the normalized L1 curve with a polynomial of degree 3-5.

    A flat curve makes min-max normalization degenerate; the policy then
    falls back to the constant ratio beta (a constant polynomial of the
    requested degree).
    """
    if degree not in FIT_DEGREES:
        raise ConfigError(f"degree must be one of {FIT_DEGREES}, got {degree}")
    ts = np.asarray(timesteps, dtype=np.float64).ravel()
    ys = np.asarray(l1_values, dtype=np.float64).ravel()
    if ts.shape != ys.shape:
        raise ConfigError("timesteps and l1_values lengths differ")
    if not (np.isfinite(ts).all() and np.isfinite(ys).all()):
        raise ConfigError("timesteps and l1_values must be finite")
    if len(ts) < degree + 1:
        raise ConfigError(f"need at least {degree + 1} samples for a degree-{degree} fit")
    t_min, t_max = float(ts.min()), float(ts.max())
    if not t_max > t_min:
        raise ConfigError("timesteps must span a nonzero range")
    span = float(ys.max() - ys.min())
    if span <= 0.0:
        constant_one = Polynomial(degree, (1.0,) + (0.0,) * degree)
        return RatioPolicy(poly=constant_one, beta=beta, t_min=t_min, t_max=t_max)
    us = (ts - t_min) / (t_max - t_min)
    target = (ys - float(ys.min())) / span
    poly = polyfit(us, target, degree)
    return RatioPolicy(poly=poly, beta=beta, t_min=t_min, t_max=t_max)


def evaluate_ratio(policy: RatioPolicy, t: float) -> float:
    """clamp(beta * poly(u(t)), 0, 1); t is clamped into the fitted range."""
    u = (float(t) - policy.t_min) / (policy.t_max - policy.t_min)
    u = min(1.0, max(0.0, u))
    return min(1.0, max(0.0, policy.beta * poly_eval(policy.poly, u)))


def fit_residual(policy: RatioPolicy, timesteps, l1_values) -> float:
    """Root-mean-square residual of the fit on the normalized target scale."""
    ts = np.asarray(timesteps, dtype=np.float64)
    ys = np.asarray(l1_values, dtype=np.float64)
    span = float(ys.max() - ys.min())
    if span <= 0.0:
        return 0.0
    target = (ys - float(ys.min())) / span
    us = (ts - policy.t_min) / (policy.t_max - policy.t_min)
    fitted = np.array([poly_eval(policy.poly, float(u)) for u in us])
    return float(np.sqrt(np.mean((fitted - target) ** 2)))


def save_policy(policy: RatioPolicy, path) -> None:
    doc = {
        "degree": policy.poly.degree,
        "coefficients": list(policy.poly.coefficients),
        "beta": policy.beta,
        "t_min": policy.t_min,
        "t_max": policy.t_max,
    }
    from .blob import write_atomic  # imported on use: ``import sortblock`` does not load blob

    write_atomic(path, (json.dumps(doc, indent=1).encode("utf-8"),))


_POLICY_FIELDS = schema({"degree": int, "coefficients": list[float], "beta": float, "t_min": float, "t_max": float})


def load_policy(path) -> RatioPolicy:
    """Read a policy written by ``save_policy``; any malformed content (not
    JSON, not an object, a missing or mistyped field, an invalid policy)
    raises ``ParseError`` naming the path.  Integer numbers load as floats."""
    doc = checked(path, read_json(path), _POLICY_FIELDS)
    try:
        return RatioPolicy(
            poly=Polynomial(doc["degree"], tuple(map(float, doc["coefficients"]))),
            beta=float(doc["beta"]),
            t_min=float(doc["t_min"]),
            t_max=float(doc["t_max"]),
        )
    except (OverflowError, ConfigError, FitError) as exc:  # OverflowError: an int too large for a float
        raise ParseError(f"{path}: invalid policy: {exc}") from exc
