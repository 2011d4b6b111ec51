import math
import tracemalloc

import numpy as np
import pytest

from sortblock import (
    DitConfig,
    Rng,
    ShapeError,
    SortblockEngine,
    cosine_similarity,
    init_network,
    network_forward,
    standard_normal,
    timestep_embedding,
)
from sortblock.dit import (
    BRANCH_GAIN,
    BlockWeights,
    Network,
    _conditioning_lowpass,
    _embedding_freqs,
)
from sortblock.numerics import mix64
from sortblock.errors import ConfigError


def _zero_weight_network(cfg: DitConfig) -> Network:
    d, m = cfg.channels, cfg.mlp_ratio
    zeros = lambda r, c: np.zeros((r, c), dtype=np.float32)
    block = BlockWeights(
        wqkv=zeros(d, 3 * d), wo=zeros(d, d),
        w1=zeros(d, m * d), w2=zeros(m * d, d), wt=zeros(d, d),
    )
    return Network(cfg, tuple(block for _ in range(cfg.num_blocks)))


class TestInitNetwork:
    def test_deterministic_for_equal_config(self):
        a = init_network(DitConfig(seed=3))
        b = init_network(DitConfig(seed=3))
        for wa, wb in zip(a.blocks, b.blocks):
            assert np.array_equal(wa.wq, wb.wq)
            assert np.array_equal(wa.w2, wb.w2)

    def test_block_count(self):
        assert len(init_network(DitConfig(num_blocks=12)).blocks) == 12

    def test_blocks_get_distinct_weights(self):
        net = init_network(DitConfig())
        assert not np.array_equal(net.blocks[0].wq, net.blocks[1].wq)
        assert net.blocks[0].wq[0, 0] != net.blocks[1].wq[0, 0]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DitConfig(num_blocks=1)
        with pytest.raises(ConfigError):
            DitConfig(channels=0)

    @pytest.mark.parametrize(
        "cfg",
        [
            DitConfig(num_blocks=2, num_tokens=4, channels=3, mlp_ratio=1, seed=5),
            DitConfig(num_blocks=3, num_tokens=4, channels=5, mlp_ratio=3, seed=9),
            DitConfig(num_blocks=5, num_tokens=4, channels=7, mlp_ratio=2, seed=2**40 + 1),
            DitConfig(num_blocks=2, num_tokens=4, channels=130, mlp_ratio=2, seed=3),
        ],
        ids=["odd-3", "odd-5", "odd-7", "chunk-spanning-130"],
    )
    def test_weights_match_per_matrix_draws(self, cfg):
        """Each block's weights are ``standard_normal`` of each matrix in
        turn, scaled as documented, also where a matrix has an odd size or a
        block's stream spans fill chunks."""
        d, h = cfg.channels, cfg.mlp_ratio * cfg.channels
        scale, gain = np.float32(1.0 / math.sqrt(d)), np.float32(BRANCH_GAIN)
        for i, got in enumerate(init_network(cfg).blocks):
            rng = Rng(cfg.seed ^ mix64(i + 1))
            draw = lambda r, c: standard_normal(rng, r, c) * scale
            want = (draw(d, d), draw(d, d), draw(d, d), draw(d, d) * gain,
                    draw(d, h), draw(h, d) * gain, draw(d, d) * _conditioning_lowpass(d))
            for name, w in zip(("wq", "wk", "wv", "wo", "w1", "w2", "wt"), want):
                assert getattr(got, name).tobytes() == w.tobytes(), name

    def test_qkv_projections_share_one_buffer_with_the_block(self):
        """wq, wk and wv are column views of one C-contiguous (d, 3d) wqkv,
        which lives in the block's weight buffer: the fused projection is no
        second copy of the weights."""
        d = 64
        for w in init_network(DitConfig()).blocks:
            assert w.wqkv.shape == (d, 3 * d) and w.wqkv.flags.c_contiguous
            assert w.wqkv.base is w.wo.base is w.wt.base
            for part in (w.wq, w.wk, w.wv):
                assert part.shape == (d, d) and part.base is w.wqkv.base

    def test_per_width_arrays_are_computed_once_and_read_only(self):
        for fn in (_embedding_freqs, _conditioning_lowpass):
            assert fn(64) is fn(64)
            with pytest.raises(ValueError):
                fn(64)[0] = 0.0

    def test_fresh_init_peaks_at_most_256_kib_above_what_it_keeps(self):
        """A fresh init's temporaries stay small: it frees no buffer larger
        than 128 KiB (see the numerics module docstring), and the working
        set on top of what it keeps stays under 256 KiB."""
        cfg = DitConfig(seed=0x5EED_1417)  # not built by any other test
        tracemalloc.start()
        try:
            net = init_network(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(net.blocks) == cfg.num_blocks
        assert peak - kept <= 256 * 1024


class TestTimestepEmbedding:
    def test_t_zero(self):
        emb = timestep_embedding(0, 64)[0]
        assert np.allclose(emb[:32], 0.0)
        assert np.allclose(emb[32:], 1.0)

    def test_deterministic(self):
        assert np.array_equal(timestep_embedding(17, 64), timestep_embedding(17, 64))

    def test_first_component_is_unit_frequency(self):
        emb = timestep_embedding(1, 64)[0]
        assert abs(float(emb[0]) - math.sin(1.0)) < 1e-6

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigError):
            timestep_embedding(-1, 64)


class TestBlockForward:
    def test_zero_weights_zero_delta(self):
        cfg = DitConfig(num_blocks=2, num_tokens=4, channels=8)
        net = _zero_weight_network(cfg)
        x = standard_normal(Rng(0), 4, 8)
        out = net.block_forward(0, x, timestep_embedding(5, 8))
        assert np.array_equal(out, x)
        assert np.all(out - x == 0.0)

    def test_repeated_calls_identical(self, default_net):
        x = standard_normal(Rng(1), 64, 64)
        t_emb = timestep_embedding(100, 64)
        a = default_net.block_forward(0, x, t_emb)
        b = default_net.block_forward(0, x, t_emb)
        assert np.array_equal(a, b)

    def test_random_smoke_delta_finite_nonzero(self, default_net):
        x = standard_normal(Rng(2), 64, 64)
        out = default_net.block_forward(3, x, timestep_embedding(500, 64))
        norm = float(np.linalg.norm(out - x))
        assert np.isfinite(norm) and norm > 0.0

    def test_residual_consistency_exact(self, default_net):
        """The deltas a full-compute engine records are each block's output
        minus its input, exactly."""
        x = standard_normal(Rng(3), 64, 64)
        t_emb = timestep_embedding(250, 64)
        engine = SortblockEngine(None, default_net.num_blocks, heavy=True)
        engine.begin_step(0, 250)
        network_forward(default_net, x, 250, engine)
        for i, delta in enumerate(engine.trace.deltas[0]):
            out = default_net.block_forward(i, x, t_emb)
            assert np.array_equal(delta, out - x)
            x = out

    def test_shape_check(self, default_net):
        with pytest.raises(ShapeError):
            default_net.block_forward(0, np.zeros((3, 3), dtype=np.float32), timestep_embedding(1, 64))


class TestNetworkForward:
    def test_identity_hook_matches_plain_forward(self, default_net):
        z = standard_normal(Rng(4), 64, 64)
        plain = network_forward(default_net, z, 300)
        hooked = network_forward(default_net, z, 300, lambda i, x, compute: compute())
        assert np.array_equal(plain, hooked)

    def test_input_passthrough_hook_yields_input(self, default_net):
        z = standard_normal(Rng(5), 64, 64)
        out = network_forward(default_net, z, 300, lambda i, x, compute: x)
        assert np.array_equal(out, z)

    def test_replaying_cached_outputs_reproduces_forward(self, default_net):
        z = standard_normal(Rng(6), 64, 64)
        cached = []

        def recording(i, x, compute):
            out = compute()
            cached.append(out)
            return out

        first = network_forward(default_net, z, 123, recording)

        def replaying(i, x, compute):
            return cached[i]

        second = network_forward(default_net, z, 123, replaying)
        assert np.array_equal(first, second)

    def test_hook_invocation_count_equals_num_blocks(self, default_net):
        calls = []

        def counting(i, x, compute):
            calls.append(i)
            return compute()

        network_forward(default_net, standard_normal(Rng(7), 64, 64), 50, counting)
        assert calls == list(range(default_net.num_blocks))

    def test_hook_rows_receive_output(self, default_net):
        """A hook that hands ``compute`` its own rows serves what the
        hook-free forward computes, and each row holds its block's output on
        the input the hook was handed."""
        z = standard_normal(Rng(10), 64, 64)
        rows = np.empty((default_net.num_blocks, 64, 64), dtype=np.float32)
        inputs = []

        def into_rows(i, x, compute):
            inputs.append(x)
            row = rows[i]
            assert compute(row) is row
            return row

        hooked = network_forward(default_net, z, 77, into_rows)
        assert np.array_equal(hooked, network_forward(default_net, z, 77))
        t_emb = timestep_embedding(77, 64)
        for i, (row, x) in enumerate(zip(rows, inputs)):
            assert np.array_equal(row, default_net.block_forward(i, x, t_emb))

    def test_bad_hook_shape_raises(self, default_net):
        with pytest.raises(ShapeError):
            network_forward(
                default_net,
                standard_normal(Rng(8), 64, 64),
                50,
                lambda i, x, compute: np.zeros((2, 2), dtype=np.float32),
            )

    def test_eval_counter_increments_per_block(self, default_net):
        before = default_net.eval_count
        network_forward(default_net, standard_normal(Rng(9), 64, 64), 10)
        assert default_net.eval_count - before == default_net.num_blocks


def test_smoothness_premise_report(baseline_factory):
    """Adjacent-step deltas should be far more similar than deltas of
    unrelated inputs.  Reported (the premise the caching strategy rests on),
    asserted only loosely."""
    trace = baseline_factory(0)
    adjacent = [
        cosine_similarity(a, b)
        for s in range(5, len(trace.deltas) - 6)
        for a, b in zip(trace.deltas[s], trace.deltas[s + 1])
    ]
    unrelated = [
        cosine_similarity(a, b)
        for a, b in zip(trace.deltas[5], trace.deltas[40])
    ]
    adj_mean, unrel_mean = float(np.mean(adjacent)), float(np.mean(unrelated))
    print(f"smoothness premise: adjacent-step mean={adj_mean:.4f} distant-step mean={unrel_mean:.4f}")
    assert -1.0 <= adj_mean <= 1.0 and -1.0 <= unrel_mean <= 1.0
