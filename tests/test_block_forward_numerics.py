"""The block forward's float64 kernels run in place; they must still produce
the bits of the plain formulas, and a warm cached run must not page-fault on
every block eval.

The reference functions below are the plain, temporary-per-operation versions
of ``layer_norm``, ``softmax_rows``, ``gelu`` and ``Network.block_forward``;
they are the definition the in-place code is held to, bit for bit.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortblock import gelu, layer_norm, softmax_rows, timestep_embedding
from sortblock.dit import LN_EPS


def reference_layer_norm(x, eps=1e-5):
    mean = x.mean(axis=1, keepdims=True, dtype=np.float64)
    centered = x.astype(np.float64) - mean
    var = np.mean(centered * centered, axis=1, keepdims=True)
    return (centered / np.sqrt(var + eps)).astype(np.float32)


def reference_softmax_rows(x):
    x64 = x.astype(np.float64)
    x64 -= x64.max(axis=1, keepdims=True)
    e = np.exp(x64)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def reference_gelu(x):
    x64 = x.astype(np.float64)
    inner = math.sqrt(2.0 / math.pi) * (x64 + 0.044715 * (x64 * x64 * x64))
    return (0.5 * x64 * (1.0 + np.tanh(inner))).astype(np.float32)


def reference_block_forward(net, index, x, t_emb):
    w = net.blocks[index]
    hn = reference_layer_norm(x + t_emb @ w.wt, LN_EPS)
    q, k, v = hn @ w.wq, hn @ w.wk, hn @ w.wv
    scores = (q @ k.T) * np.float32(1.0 / math.sqrt(net.cfg.channels))
    a = x + (reference_softmax_rows(scores) @ v) @ w.wo
    an = reference_layer_norm(a, LN_EPS)
    return a + reference_gelu(an @ w.w1) @ w.w2


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    # comparing the raw words also tells -0.0 from 0.0
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@st.composite
def float32_matrices(draw):
    """64x64 (attention scores, layer-norm inputs) or 64x256 (MLP activation)
    float32 matrices at a drawn magnitude, with drawn float32 values -- which
    hypothesis biases toward the extremes: 0, -0, subnormals, the largest
    finite float32 -- written over some entries."""
    rows, cols = draw(st.sampled_from([(64, 64), (64, 256)]))
    seed = draw(st.integers(0, 2**32 - 1))
    exponent = draw(st.integers(-40, 37))
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((rows, cols)) * 10.0**exponent).astype(np.float32)
    overrides = draw(
        st.lists(
            st.tuples(
                st.integers(0, rows - 1),
                st.integers(0, cols - 1),
                st.floats(width=32, allow_nan=False, allow_infinity=False),
            ),
            max_size=16,
        )
    )
    for r, c, value in overrides:
        x[r, c] = value
    return x


class TestKernelsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(float32_matrices())
    def test_layer_norm(self, x):
        assert_same_bits(layer_norm(x, LN_EPS), reference_layer_norm(x, LN_EPS))

    @settings(max_examples=150, deadline=None)
    @given(float32_matrices())
    def test_softmax_rows(self, x):
        assert_same_bits(softmax_rows(x), reference_softmax_rows(x))

    @settings(max_examples=150, deadline=None)
    @given(float32_matrices())
    def test_gelu(self, x):
        assert_same_bits(gelu(x), reference_gelu(x))

    @pytest.mark.parametrize("value", [0.0, -0.0, 1e-45, -1e-45, 3.4028235e38, -3.4028235e38])
    def test_extreme_constant_matrices(self, value):
        x = np.full((64, 256), value, dtype=np.float32)
        assert_same_bits(gelu(x), reference_gelu(x))
        assert_same_bits(layer_norm(x[:, :64]), reference_layer_norm(x[:, :64]))
        assert_same_bits(softmax_rows(x[:, :64]), reference_softmax_rows(x[:, :64]))

    def test_input_left_unchanged(self):
        x = (np.random.default_rng(3).standard_normal((64, 256)) * 4).astype(np.float32)
        before = x.copy()
        gelu(x)
        layer_norm(x)
        softmax_rows(x)
        assert np.array_equal(x, before)


class TestBlockForwardMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 11), st.integers(0, 999), st.integers(0, 2**32 - 1), st.sampled_from([0.01, 1.0, 30.0]))
    def test_block_forward(self, default_net, index, t, seed, scale):
        x = (np.random.default_rng(seed).standard_normal((64, 64)) * scale).astype(np.float32)
        t_emb = timestep_embedding(t, default_net.d_emb)
        io = default_net.block_forward(index, x, t_emb)
        want = reference_block_forward(default_net, index, x, t_emb)
        assert_same_bits(io.output, want)
        assert_same_bits(io.delta, want - x)
        assert io.input is x


# A warm cached latent at the README default preset; each iteration's page
# faults are read from the kernel's counter for this process.
_FAULT_PROBE = """
import resource
import sortblock as sb

net = sb.init_network(sb.DitConfig())
sched = sb.make_schedule(1000)
run = sb.make_run(sched, 50, 0, (64, 64))
cfg = sb.SortblockConfig(refresh_interval=5, rho=0.3, window=sb.inner_window(run.step_list, 0.8))
for _ in range(2):
    sb.run_sortblock(net, run, sched, cfg)
latents = 3
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(latents):
    sb.run_sortblock(net, run, sched, cfg)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / latents)
"""

# With one BLAS thread, as the benchmark runs, on a 2-vCPU x86-64 VM (glibc
# 2.36, OpenBLAS 0.3.31): 740-800 per latent over seeds 0-3; the 128 KiB
# float64 temporaries the kernels used to make cost 22,000-36,000.  Exact
# counts depend on the allocator's heap history.
MAX_MINOR_FAULTS_PER_LATENT = 2000


def test_warm_cached_run_does_not_page_fault_per_block():
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    faults_per_latent = float(proc.stdout.strip().splitlines()[-1])
    assert faults_per_latent < MAX_MINOR_FAULTS_PER_LATENT
