"""A fixed calibration kernel that measures how fast the machine is right now.

The benchmark's end-to-end timings are rescaled by it: on a shared host the
speed of one core drifts by 1.5-2x over minutes, which moves every iteration of
a run alike and which no run length averages away.  The kernel is a block-like
computation of the same kind as the package's (small float32 matmuls, a
float64 layer norm, softmax and tanh-GELU, driven from Python), but it lives in
the benchmark and uses numpy alone, so no change to the package can change it.

``Calibration()`` builds the kernel's inputs and warms it up; calling it runs
the kernel once and returns the elapsed nanoseconds.  ``rescale(ns, ref_ns)``
turns a time measured right after a kernel run of ``ref_ns`` into the time it
would have taken at the nominal speed, where the kernel takes ``NOMINAL_MS``.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

import numpy as np

# The kernel's median time on the 2-vCPU VM the baseline was measured on; it
# only fixes the scale, so rescaled times read close to that VM's wall times.
NOMINAL_MS = 15.0
BLOCKS, PASSES, TOKENS, CHANNELS, MLP = 12, 3, 64, 64, 256


def _layer_norm(x):
    mean = x.mean(axis=1, keepdims=True, dtype=np.float64)
    centered = x.astype(np.float64) - mean
    return (centered / np.sqrt(np.mean(centered * centered, axis=1, keepdims=True) + 1e-5)).astype(np.float32)


def _softmax_rows(x):
    x64 = x.astype(np.float64)
    x64 -= x64.max(axis=1, keepdims=True)
    e = np.exp(x64)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def _gelu(x):
    x64 = x.astype(np.float64)
    return (0.5 * x64 * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x64 + 0.044715 * (x64 * x64 * x64))))).astype(np.float32)


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20250800)
        shapes = {"wt": (CHANNELS, CHANNELS), "wq": (CHANNELS, CHANNELS), "wk": (CHANNELS, CHANNELS),
                  "wv": (CHANNELS, CHANNELS), "wo": (CHANNELS, CHANNELS), "w1": (CHANNELS, MLP),
                  "w2": (MLP, CHANNELS)}
        self.weights = [{k: (0.1 * rng.standard_normal(s)).astype(np.float32) for k, s in shapes.items()}
                        for _ in range(BLOCKS)]
        self.x0 = rng.standard_normal((TOKENS, CHANNELS)).astype(np.float32)
        self.t_emb = rng.standard_normal((1, CHANNELS)).astype(np.float32)
        self.scale = np.float32(1.0 / math.sqrt(CHANNELS))
        for _ in range(3):
            self()

    def kernel(self) -> np.ndarray:
        x = self.x0
        for _ in range(PASSES):
            for w in self.weights:
                hn = _layer_norm(x + self.t_emb @ w["wt"])
                q, k, v = hn @ w["wq"], hn @ w["wk"], hn @ w["wv"]
                a = x + (_softmax_rows((q @ k.T) * self.scale) @ v) @ w["wo"]
                x = a + _gelu(_layer_norm(a) @ w["w1"]) @ w["w2"]
                x = x / np.float32(max(1.0, float(np.abs(x).max())))  # keeps every pass in range
        return x

    def __call__(self) -> int:
        t0 = perf_counter_ns()
        self.kernel()
        return perf_counter_ns() - t0


def rescale(ns: float, ref_ns: float) -> float:
    return ns * (NOMINAL_MS * 1e6) / ref_ns
