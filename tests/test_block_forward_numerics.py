"""The block forward runs in place in its Network's workspace; it must still
produce the bits of the plain formulas, allocate nothing but its output, and
a warm cached run must not page-fault on every block eval.

The reference functions below are the plain, temporary-per-operation versions
of ``layer_norm`` (float64), ``softmax_rows`` and ``gelu`` (float32) and
``Network.block_forward``; they are the definition the in-place code is held
to, bit for bit.  The float64 formulas of softmax and GELU stay as accuracy
oracles for the float32 kernels.  Every test here runs with RuntimeWarning as
an error, so an overflow the kernels do not expect fails it.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortblock import (
    DitConfig,
    Network,
    SortblockConfig,
    gelu,
    init_network,
    layer_norm,
    network_forward,
    run_sortblock,
    sample,
    softmax_rows,
    timestep_embedding,
)
from conftest import block_output
from sortblock.dit import LN_EPS
from sortblock.numerics import softmax_rows_into

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EPS32 = float(np.finfo(np.float32).eps)
TINY32 = float(np.finfo(np.float32).tiny)
GELU_C1 = np.float32(math.sqrt(2.0 / math.pi))
GELU_C2 = np.float32(0.044715)


def reference_layer_norm(x, eps=1e-5):
    mean = x.mean(axis=1, keepdims=True, dtype=np.float64)
    centered = x.astype(np.float64) - mean
    var = np.mean(centered * centered, axis=1, keepdims=True)
    return (centered / np.sqrt(var + eps)).astype(np.float32)


def reference_softmax_rows(x):
    with np.errstate(over="ignore"):  # x - max below the float32 range is -inf; exp gives 0
        e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_gelu(x):
    h = np.float32(0.5) * x
    with np.errstate(over="ignore"):  # the cube is +-inf above |x| ~ 7e12; tanh gives +-1
        cube = (x * x) * x
    return h * (1 + np.tanh(GELU_C1 * (x + GELU_C2 * cube)))


def softmax64(x):
    """The float64 formula, unrounded: the accuracy oracle of softmax_rows."""
    x64 = x.astype(np.float64)
    e = np.exp(x64 - x64.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def gelu64(x):
    """The float64 formula with float64 constants, unrounded: the accuracy
    oracle of gelu."""
    x64 = x.astype(np.float64)
    inner = math.sqrt(2.0 / math.pi) * (x64 + 0.044715 * (x64 * x64 * x64))
    return 0.5 * x64 * (1.0 + np.tanh(inner))


def reference_block_forward(net, index, x, t_emb):
    w = net.blocks[index]
    hn = reference_layer_norm(x + t_emb @ w.wt, LN_EPS)
    q, k, v = (hn @ part for part in np.split(w.wqkv, 3, axis=1))
    scores = (q @ k.T) * np.float32(1.0 / math.sqrt(net.cfg.channels))
    a = x + (reference_softmax_rows(scores) @ v) @ w.wo
    an = reference_layer_norm(a, LN_EPS)
    return a + reference_gelu(an @ w.w1) @ w.w2


def reference_block_output(net, index, x, t_emb, out=None):
    """A drop-in ``Network.block_forward`` built on the reference block,
    writing into the caller's row when given."""
    net.eval_count += 1
    return block_output(reference_block_forward(net, index, x, t_emb), out)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    # comparing the raw words also tells -0.0 from 0.0
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@st.composite
def float32_matrices(draw, non_finite=False):
    """64x64 (attention scores, layer-norm inputs) or 64x256 (MLP activation)
    float32 matrices at a drawn magnitude, with drawn float32 values -- which
    hypothesis biases toward the extremes: 0, -0, subnormals, the largest
    finite float32 -- written over some entries.  With ``non_finite``, the
    values written may also be NaN (of any sign and payload) or +-inf, and
    some rows are all -inf or have a maximum that ties 0.0 with -0.0."""
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
                st.floats(width=32, allow_nan=non_finite, allow_infinity=non_finite),
            ),
            max_size=16,
        )
    )
    for r, c, value in overrides:
        x[r, c] = value
    if non_finite:
        for r in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
            x[r] = -np.inf
        ties = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(0, cols - 1))
        for r, plus, minus in draw(st.lists(ties, max_size=3)):
            x[r] = -np.abs(x[r])
            x[r, plus], x[r, minus] = 0.0, -0.0
    return x


class TestKernelsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(float32_matrices())
    def test_layer_norm(self, x):
        assert_same_bits(layer_norm(x, LN_EPS), reference_layer_norm(x, LN_EPS))

    @settings(max_examples=150, deadline=None)
    @given(float32_matrices(non_finite=True))
    def test_softmax_rows(self, x):
        """Also for non-finite rows (inf - inf is NaN, without a warning
        here) and in place, as the block forward calls it."""
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_softmax_rows(x)
            assert_same_bits(softmax_rows(x), want)
            y = x.copy()
            softmax_rows_into(y, y, np.empty((len(y), 1), np.float32), np.empty_like(y))
        assert_same_bits(y, want)

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


class TestKernelsAgainstFloat64:
    """The float32 kernels against the float64 formulas: bounded error, and
    no non-finite output for a finite input."""

    @settings(max_examples=150, deadline=None)
    @given(float32_matrices())
    def test_gelu(self, x):
        got = gelu(x)
        assert np.isfinite(got).all()
        err = np.abs(got.astype(np.float64) - gelu64(x))
        assert (err <= 4 * EPS32 * np.maximum(np.abs(x.astype(np.float64)), TINY32)).all()

    @settings(max_examples=150, deadline=None)
    @given(float32_matrices())
    def test_softmax_rows(self, x):
        got = softmax_rows(x)
        assert np.isfinite(got).all()
        assert np.abs(got.astype(np.float64) - softmax64(x)).max() <= 8 * EPS32

    def test_softmax_rows_spanning_the_float32_range(self):
        """x - max falls below the float32 range and overflows to -inf; its
        exp is 0, as in float64."""
        x = np.zeros((64, 64), dtype=np.float32)
        x[:, 0], x[:, 1] = -3.4028235e38, 3.4028235e38
        x[7, 2] = 3.4028235e38
        got = softmax_rows(x)
        assert_same_bits(got, reference_softmax_rows(x))
        assert np.array_equal(got, softmax64(x).astype(np.float32))
        assert got[7, 1] == got[7, 2] == 0.5 and got[0, 1] == 1.0

    @pytest.mark.parametrize("value", [1e13, 3.4028235e38])
    def test_gelu_limits_of_extreme_constant_matrices(self, value):
        """Where the cube overflows, GELU is x above zero and -0 below."""
        x = np.full((64, 256), value, dtype=np.float32)
        assert_same_bits(gelu(x), x)
        assert_same_bits(gelu(-x), np.full_like(x, -0.0))


class TestBlockForwardMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 11), st.integers(0, 999), st.integers(0, 2**32 - 1), st.sampled_from([0.01, 1.0, 30.0]))
    def test_block_forward(self, default_net, index, t, seed, scale):
        x = (np.random.default_rng(seed).standard_normal((64, 64)) * scale).astype(np.float32)
        x_before = x.copy()
        t_emb = timestep_embedding(t, default_net.d_emb)
        out = default_net.block_forward(index, x, t_emb)
        want = reference_block_forward(default_net, index, x, t_emb)
        assert_same_bits(out, want)
        assert_same_bits(out - x, want - x)
        assert_same_bits(x, x_before)


def _inputs(count, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((64, 64)).astype(np.float32) for _ in range(count)]


class TestWorkspace:
    # Python objects made per eval (array headers, views), under 1 KiB;
    # kernels with per-call float64 temporaries peak about 260 KiB above the
    # output
    ALLOCATION_SLACK_BYTES = 4096

    def test_block_forward_allocates_only_its_output(self, default_net):
        x = _inputs(1)[0]
        t_emb = timestep_embedding(500, default_net.d_emb)
        for _ in range(3):
            default_net.block_forward(5, x, t_emb)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = default_net.block_forward(5, x, t_emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= out.nbytes + self.ALLOCATION_SLACK_BYTES

    def test_block_forward_with_rows_allocates_no_row(self, default_net):
        """Given a row for its output, an eval allocates nothing the size of
        a row: every intermediate lives in the workspace, and no ufunc
        broadcasts an operand (which would make numpy allocate iterator
        buffers)."""
        x = _inputs(1)[0]
        t_emb = timestep_embedding(500, default_net.d_emb)
        out = np.empty_like(x)
        for _ in range(3):
            default_net.block_forward(5, x, t_emb, out)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            got = default_net.block_forward(5, x, t_emb, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got is out
        assert peak - before < x.nbytes

    def test_rows_give_the_bits_of_the_allocating_call(self, default_net):
        t_emb = timestep_embedding(321, default_net.d_emb)
        for index, x in enumerate(_inputs(default_net.num_blocks, seed=12)):
            row = np.full((64, 64), np.nan, dtype=np.float32)
            want = default_net.block_forward(index, x, t_emb)
            assert default_net.block_forward(index, x, t_emb, row) is row
            assert_same_bits(row, want)
            assert_same_bits(row - x, want - x)

    def test_successive_forwards_return_distinct_arrays(self, default_net):
        """The hook-free forward keeps block outputs in the workspace's rows
        but returns a fresh array, so an earlier result survives a later
        forward."""
        z1, z2 = _inputs(2, seed=13)
        first = network_forward(default_net, z1, 400)
        kept = first.copy()
        second = network_forward(default_net, z2, 400)
        assert first is not second
        assert not np.shares_memory(first, second)
        assert_same_bits(first, kept)
        assert_same_bits(second, network_forward(default_net, z2, 400))
        assert_same_bits(first, network_forward(default_net, z1, 400))

    def test_interleaved_blocks_and_networks_do_not_alias(self):
        """Outputs of earlier evals survive later evals of other blocks, of a
        second Network sharing the same weights and of a Network of another
        config; every eval still matches the reference."""
        nets = [init_network(DitConfig()), init_network(DitConfig()), init_network(DitConfig(seed=3))]
        t_emb = timestep_embedding(250, nets[0].d_emb)
        kept = []
        for i, x in enumerate(_inputs(12)):
            net = nets[i % len(nets)]
            index = (5 * i) % net.num_blocks
            out = net.block_forward(index, x, t_emb)
            want = reference_block_forward(net, index, x, t_emb)
            assert_same_bits(out, want)
            kept.append((out, out.copy()))
        for out, output in kept:
            assert_same_bits(out, output)


@pytest.mark.parametrize("seed", [0, 1])
def test_whole_runs_match_reference_block(monkeypatch, default_sched, default_run_factory, default_window, seed):
    """``sample`` and ``run_sortblock`` at the README default preset give the
    latents and traces (minus wall time) of the reference block."""
    run = default_run_factory(seed)
    cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)

    def whole_run():
        net = init_network(DitConfig())
        plain = sample(net, run, default_sched)
        cached, trace = run_sortblock(net, run, default_sched, cfg)
        doc = trace.to_dict()
        del doc["wall_time_s"]
        return plain, cached, doc

    plain, cached, doc = whole_run()
    monkeypatch.setattr(Network, "block_forward", reference_block_output)
    want_plain, want_cached, want_doc = whole_run()
    assert_same_bits(plain, want_plain)
    assert_same_bits(cached, want_cached)
    assert doc == want_doc


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
# 2.36, OpenBLAS 0.3.31), per latent over seeds 0-3: 224-276 with the
# workspace-resident block forward and the engine's per-run (N, tokens,
# channels) cache stacks (168-224 with per-block cache arrays), 740-800
# with per-call float64 kernel buffers, 22,000-36,000 with the 128 KiB float64
# temporaries the kernels used to make.  Exact counts depend on the
# allocator's heap history.
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
