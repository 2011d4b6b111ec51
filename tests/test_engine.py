import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_output
from sortblock import (
    BlockCacheEntry,
    ConfigError,
    DitConfig,
    Rng,
    SamplerRun,
    ShapeError,
    SortblockConfig,
    SortblockEngine,
    SortblockError,
    cosine_similarity,
    expected_eval_count,
    init_network,
    inner_window,
    linear_predict,
    make_run,
    make_schedule,
    recompute_quota,
    record_baseline,
    run_sortblock,
    sample,
    select_blocks,
    standard_normal,
)
from sortblock.engine import _NORM_FLOOR, ZERO_DELTA_SIMILARITY


def _bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.uint64).tolist()


def _vec(*values):
    return np.array([list(values)], dtype=np.float32)


def _reference_scores(engine, z, full_step):
    """Per block, for the engine's current step and its cache before the
    step's prediction: ``cosine_similarity`` of the reference delta, what the
    full step served for the block minus the block's input there (``full_step``
    holds both per block, as ``PassThrough`` records them), and
    ``linear_predict``'s prediction from the block's view of the cache minus
    the prediction before it (``z`` for block 0)."""
    k = engine.trace.steps[-1].step - engine.anchor_step
    want, x = [], z
    for i, (full_x, full_served) in enumerate(full_step):
        prev = engine.prev_values[i] if engine.interval else None
        p = linear_predict(BlockCacheEntry(engine.values[i], prev, engine.interval), k)
        want.append(cosine_similarity(p - x, full_served - full_x))
        x = p
    return want


# inf, NaN, signed zeros and values around the norm floor, beside any double
_COSINE_ELEMENT = st.one_of(
    st.floats(width=64),
    st.floats(-1e-11, 1e-11),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 7e-13, math.inf, -math.inf, math.nan]),
)


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity(_vec(1, 0), _vec(0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_positive_proportionality(self):
        assert cosine_similarity(_vec(1, 2), _vec(2, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed(self):
        # dot = 3 + 4 + 3 = 10; norms sqrt(14) each
        assert cosine_similarity(_vec(1, 2, 3), _vec(3, 2, 1)) == pytest.approx(10 / 14, abs=1e-9)

    def test_zero_norm_sentinel(self):
        assert cosine_similarity(_vec(0, 0), _vec(1, 1)) == ZERO_DELTA_SIMILARITY
        assert cosine_similarity(_vec(1, 1), _vec(0, 0)) == ZERO_DELTA_SIMILARITY

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity(_vec(1, 2), _vec(1, 2, 3))

    def test_negative_bound(self):
        assert cosine_similarity(_vec(1, 1), _vec(-1, -1)) == pytest.approx(-1.0, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(
            st.lists(_COSINE_ELEMENT, min_size=n, max_size=n),
            st.lists(_COSINE_ELEMENT, min_size=n, max_size=n),
        )),
        st.sampled_from([None, 1.0, -1.0, 3.5, -1e-3]),
    )
    # a vector against itself (negated), whose quotient rounds to 1 + 2**-52 (-1 - 2**-52)
    @example(([-0.7322673547034516, -0.5442589828573099, -0.31630015636915454], [0.0] * 3), 1.0)
    @example(([0.4116305363741328, 1.0425133694426776, -0.12853466294403426], [0.0] * 3), -1.0)
    def test_clamp_is_the_bits_of_np_clip(self, vectors, scale):
        """The scalar clamp of ``cosine_similarity`` returns the raw float64
        words of ``float(np.clip(c, -1.0, 1.0))``, NaN included; ``scale``
        makes ``b`` a multiple of ``a``, so the quotient lands on or past +-1."""
        a, b = (np.array(v, dtype=np.float64) for v in vectors)
        with np.errstate(all="ignore"):
            if scale is not None:
                b = a * scale
            na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))
            if na < _NORM_FLOOR or nb < _NORM_FLOOR:
                expected = ZERO_DELTA_SIMILARITY
            else:
                expected = float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))
            assert _bits([cosine_similarity(a, b)]) == _bits([expected])


class TestLinearPredict:
    def test_zero_extrapolation_returns_value(self):
        entry = BlockCacheEntry(_vec(5, 6), _vec(1, 2), 3)
        assert np.array_equal(linear_predict(entry, 0), entry.value)

    def test_two_step_slope(self):
        entry = BlockCacheEntry(_vec(2.0), _vec(0.0), 2)
        assert np.array_equal(linear_predict(entry, 1), _vec(3.0))

    def test_exact_on_affine_trajectory(self):
        base = np.arange(6, dtype=np.float32).reshape(2, 3)
        slope = np.array([[1, -2, 3], [0, 4, -1]], dtype=np.float32)
        f = lambda s: base + np.float32(s) * slope
        entry = BlockCacheEntry(f(10), f(5), 5)
        for k in range(0, 7):
            assert np.array_equal(linear_predict(entry, k), f(10 + k))

    def test_single_computation_degenerates_to_copy(self):
        entry = BlockCacheEntry(_vec(4, 4), None, 0)
        for k in (0, 1, 5):
            assert np.array_equal(linear_predict(entry, k), entry.value)

    def test_negative_k_rejected(self):
        entry = BlockCacheEntry(_vec(1.0), _vec(0.0), 1)
        with pytest.raises(ConfigError):
            linear_predict(entry, -1)


class TestSelectBlocks:
    def test_rho_zero_all_skip(self):
        assert select_blocks([0.5, 0.2, 0.9], 0.0).flags == [0, 0, 0]

    def test_rho_one_all_recompute(self):
        assert select_blocks([0.5, 0.2, 0.9], 1.0).flags == [1, 1, 1]

    def test_tie_break_by_lower_index(self):
        policy = select_blocks([0.9, 0.1, 0.5, 0.5], 0.5)
        assert policy.flags == [0, 1, 1, 0]

    def test_scores_preserved(self):
        policy = select_blocks([0.3, 0.1], 0.5)
        assert policy.scores == [0.3, 0.1]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=24),
        st.floats(0, 1, allow_nan=False),
    )
    def test_cardinality(self, scores, rho):
        policy = select_blocks(scores, rho)
        n = len(scores)
        assert sum(policy.flags) == min(n, max(0, math.ceil(rho * n - 1e-9)))

    def test_non_finite_scores_rank_least_similar(self):
        # a NaN similarity used to sort last and the block was never recomputed
        assert select_blocks([0.5, math.nan, 0.1, 0.9], 0.5).flags == [0, 1, 1, 0]
        assert select_blocks([0.5, math.inf, 0.1, -math.inf], 0.5).flags == [0, 1, 0, 1]
        assert select_blocks([math.nan, 0.2, math.nan, 0.1], 0.25).flags == [1, 0, 0, 0]
        policy = select_blocks([0.5, math.nan], 0.5)
        assert math.isnan(policy.scores[1])

    def test_quota_rounding(self):
        assert recompute_quota(0.3, 12) == 4  # ceil(3.6)
        assert recompute_quota(0.25, 12) == 3
        assert recompute_quota(0.0, 12) == 0
        assert recompute_quota(1.0, 12) == 12


class TestConfigValidation:
    def test_refresh_interval_minimum(self):
        with pytest.raises(ConfigError):
            SortblockConfig(refresh_interval=1)

    def test_window_ordering(self):
        with pytest.raises(ConfigError):
            SortblockConfig(window=(100, 200))

    def test_adaptive_needs_policy(self):
        with pytest.raises(ConfigError):
            SortblockConfig(ratio_mode="adaptive")

    def test_inner_window_default(self, default_run_factory):
        steps = default_run_factory(0).step_list
        hi, lo = inner_window(steps, 0.8)
        inside = [t for t in steps if lo <= t <= hi]
        assert len(inside) == 40
        assert (hi, lo) == (steps[5], steps[44])


class TestLifecyclePhases:
    def test_phase_labels(self, default_net, default_sched, default_run_factory, default_window):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, run, default_sched, cfg)
        labels = [r.phase for r in trace.steps]
        assert labels[:5] == ["outside"] * 5
        assert labels[5] == "full"
        assert labels[6] == "ranked"
        assert labels[7:10] == ["follow"] * 3
        assert labels[10] == "full"
        assert labels[45:] == ["outside"] * 5

    def test_scores_only_on_ranked_steps(self, default_net, default_sched, default_run_factory, default_window):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, run, default_sched, cfg)
        for rec in trace.steps:
            if rec.phase == "ranked":
                assert rec.scores is not None and len(rec.scores) == 12
                assert all(-1.0 <= s <= 1.0 for s in rec.scores)
                assert sum(rec.flags) == recompute_quota(0.3, 12)
            else:
                assert rec.scores is None

    @pytest.mark.parametrize("seed, K, rho", [(0, 5, 0.3), (1, 5, 0.3), (7, 9, 0.25)])
    def test_sweep_scores_are_cosine_similarity_bits(
        self, default_net, default_sched, default_run_factory, monkeypatch, seed, K, rho
    ):
        """The ranking sweep predicts all blocks at once from the stacked
        cache and scores them in its own buffers; every score is still
        ``cosine_similarity`` of the one-block prediction ``linear_predict``
        makes, minus the prediction before it, and the reference."""
        run = default_run_factory(seed)
        cfg = SortblockConfig(refresh_interval=K, rho=rho, window=inner_window(run.step_list, 0.8))
        hook = PassThrough(SortblockEngine(cfg, default_net.num_blocks))
        predict_step = SortblockEngine._predict_step
        checked = []

        def predict_and_check(engine, z):
            ranked = engine.trace.steps[-1].phase == "ranked"
            # a ranked step directly follows the full step that served its references
            want = _reference_scores(engine, z, hook.steps[-2]) if ranked else None
            predict_step(engine, z)
            if ranked:
                checked.append((engine.trace.steps[-1].scores, want))

        monkeypatch.setattr(SortblockEngine, "_predict_step", predict_and_check)
        sample(default_net, run, default_sched, hooks=hook)
        trace = hook.engine.trace
        assert len(checked) == [r.phase for r in trace.steps].count("ranked") > 0
        for got, want in checked:
            assert _bits(got) == _bits(want)

    def test_sweep_scores_on_non_finite_and_degenerate_deltas(self):
        """inf and NaN deltas, a zero delta, deltas below the norm floor and
        near the float32 maximum score exactly as ``cosine_similarity`` does."""
        rng = np.random.default_rng(5)
        outputs = [rng.standard_normal((4, 4)).astype(np.float32) for _ in range(6)]
        outputs[1][0, 0] = np.inf
        outputs[2][1, 2] = np.nan
        outputs[4] *= np.float32(1e-44)
        outputs[5] *= np.float32(3e37)
        engine = SortblockEngine(SortblockConfig(refresh_interval=5, rho=0.5, window=(900, 100)), 6)
        hook = PassThrough(engine)

        def serve(step, t, z):
            hook.begin_step(step, t)
            x = z
            for i, out in enumerate(outputs):
                out = outputs[i - 1] if i == 3 else out  # block 3: zero delta
                x = hook(i, x, lambda row=None, out=out: block_output(out, row))
            return x

        z = rng.standard_normal((4, 4)).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            serve(0, 900, z)
            serve(1, 880, z)  # a single anchor: its predictions are copies
            want = _reference_scores(engine, z, hook.steps[0])
        assert any(math.isnan(v) for v in want) and ZERO_DELTA_SIMILARITY in want
        assert _bits(engine.trace.steps[-1].scores) == _bits(want)

    def test_full_and_outside_steps_compute_everything(
        self, default_net, default_sched, default_run_factory, default_window
    ):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, run, default_sched, cfg)
        for rec in trace.steps:
            if rec.phase in ("outside", "full"):
                assert rec.flags == [1] * 12 and rec.evals == 12
            else:
                assert rec.evals == sum(rec.flags)


class TestExactnessDegeneracies:
    def test_rho_one_bit_identical(self, default_net, default_sched, default_run_factory, default_window, baseline_factory):
        run = default_run_factory(0)
        baseline = baseline_factory(0).final_latent
        cfg = SortblockConfig(refresh_interval=5, rho=1.0, window=default_window)
        latent, trace = run_sortblock(default_net, run, default_sched, cfg)
        assert latent.tobytes() == baseline.tobytes()
        assert trace.total_evals == 600

    def test_empty_window_bit_identical(self, default_net, default_sched, default_run_factory, baseline_factory):
        run = default_run_factory(1)
        baseline = baseline_factory(1).final_latent
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=(2000, 1999))
        latent, trace = run_sortblock(default_net, run, default_sched, cfg)
        assert latent.tobytes() == baseline.tobytes()
        assert trace.total_evals == 600

    def test_single_step_window_never_leaves_full_compute(
        self, default_net, default_sched, default_run_factory, baseline_factory
    ):
        run = default_run_factory(2)
        baseline = baseline_factory(2).final_latent
        inside_t = run.step_list[20]
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=(inside_t + 1, inside_t - 1))
        latent, trace = run_sortblock(default_net, run, default_sched, cfg)
        assert latent.tobytes() == baseline.tobytes()
        assert [r.phase for r in trace.steps].count("full") == 1
        assert trace.total_evals == 600


class TestComputeAccounting:
    def test_default_config_matches_formula(
        self, default_net, default_sched, default_run_factory, default_window
    ):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        before = default_net.eval_count
        _, trace = run_sortblock(default_net, run, default_sched, cfg)
        assert trace.total_evals == default_net.eval_count - before
        formula = expected_eval_count(run.step_list, default_window, 5, 12, rho=0.3)
        assert trace.total_evals == formula
        assert trace.total_evals < 600

    def test_arithmetic_identity_fixed_rho(self, default_run_factory, default_window):
        # fully closed arithmetic form: (outside + ceil(inside/K)) * N + rest * quota
        steps = default_run_factory(0).step_list
        hi, lo = default_window
        inside = sum(1 for t in steps if lo <= t <= hi)
        outside = len(steps) - inside
        for K in (3, 5, 9):
            for rho in (0.25, 0.3, 0.5, 1.0):
                full_in = math.ceil(inside / K)
                quota = recompute_quota(rho, 12)
                arithmetic = (outside + full_in) * 12 + (inside - full_in) * quota
                assert arithmetic == expected_eval_count(steps, default_window, K, 12, rho=rho)

    def test_larger_k_never_costs_more(
        self, default_net, default_sched, default_run_factory, default_window
    ):
        run = default_run_factory(0)
        cfg5 = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        cfg9 = SortblockConfig(refresh_interval=9, rho=0.3, window=default_window)
        _, t5 = run_sortblock(default_net, run, default_sched, cfg5)
        _, t9 = run_sortblock(default_net, run, default_sched, cfg9)
        assert t9.total_evals <= t5.total_evals

    def test_eval_total_running_sum(self, default_net, default_sched, default_run_factory, default_window):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, run, default_sched, cfg)
        running = 0
        for rec in trace.steps:
            running += rec.evals
            assert rec.eval_total == running
        assert running == trace.total_evals


class TestCacheCoherence:
    @pytest.mark.parametrize("window", [None, (999, 300)], ids=["inner-window", "from-step-0"])
    def test_anchor_and_interval_follow_compute_everything_steps(
        self, default_net, default_sched, default_run_factory, default_window, window
    ):
        """Before every step and after the last, the cache's anchor is the
        last compute-everything (full or outside) step and its interval the
        distance to the one before (0 while there is only one)."""
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=window or default_window)
        engine = SortblockEngine(cfg, default_net.num_blocks)
        seen = []
        begin_step = engine.begin_step

        def record_then_begin(step_index, t):
            seen.append((engine.anchor_step, engine.interval))
            begin_step(step_index, t)

        engine.begin_step = record_then_begin
        sample(default_net, run, default_sched, hooks=engine)
        seen.append((engine.anchor_step, engine.interval))
        anchors = []
        for i, state in enumerate(seen):
            want_anchor = anchors[-1] if anchors else None
            want_interval = anchors[-1] - anchors[-2] if len(anchors) > 1 else 0
            assert state == (want_anchor, want_interval), f"before step {i}"
            if i < len(engine.trace.steps) and engine.trace.steps[i].phase in ("full", "outside"):
                assert engine.trace.steps[i].flags == [1] * default_net.num_blocks
                anchors.append(i)

    def test_slope_pairs_anchor_on_full_steps(
        self, default_net, default_sched, default_run_factory, default_window
    ):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        engine = SortblockEngine(cfg, default_net.num_blocks)
        sample(default_net, run, default_sched, hooks=engine)
        # the run ends with outside steps: the interval is the gap between the
        # last two full computations (consecutive outside steps)
        assert engine.interval == 1
        assert engine.anchor_step == len(run.step_list) - 1


def _replay_comparable(trace) -> dict:
    """``trace.to_dict()`` without what a replay changes by design: the wall
    time, the ranked steps' scores (a replay ranks nothing) and the
    ``replayed_policy`` config flag."""
    doc = trace.to_dict()
    del doc["wall_time_s"]
    doc["config"] = {k: v for k, v in doc["config"].items() if k != "replayed_policy"}
    for rec in doc["steps"]:
        if rec["phase"] == "ranked":
            rec["scores"] = None
    return doc


class TestPolicyReplay:
    def test_replayed_flags_reproduce_run(
        self, default_net, default_sched, default_run_factory, default_window
    ):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        latent, trace = run_sortblock(default_net, run, default_sched, cfg)
        override = trace.ranked_flag_schedule()
        replay_latent, replay_trace = run_sortblock(
            default_net, run, default_sched, cfg, policy_override=override
        )
        assert replay_latent.tobytes() == latent.tobytes()
        assert replay_trace.total_evals == trace.total_evals
        for rec in replay_trace.steps:
            if rec.phase == "ranked":
                assert rec.scores is None  # replayed decisions carry no scores
        # the final latent can be blind to the cached decisions, so the
        # decisions themselves are compared: every step record is the same
        assert _replay_comparable(replay_trace) == _replay_comparable(trace)

    def test_flipped_ranked_flags_change_the_trace(
        self, default_net, default_sched, default_run_factory, default_window
    ):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, run, default_sched, cfg)
        override = trace.ranked_flag_schedule()
        step = min(override)
        recomputed = override[step].index(1)
        skipped = override[step].index(0)
        override[step][recomputed], override[step][skipped] = 0, 1  # the same quota
        _, flipped = run_sortblock(default_net, run, default_sched, cfg, policy_override=override)
        assert flipped.steps[step].flags == override[step]
        assert flipped.total_evals == trace.total_evals
        assert _replay_comparable(flipped) != _replay_comparable(trace)

    def test_missing_override_entry_raises(
        self, default_net, default_sched, default_run_factory, default_window
    ):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        with pytest.raises(ConfigError):
            run_sortblock(default_net, run, default_sched, cfg, policy_override={})


class TestEngineMisuse:
    def test_hook_before_begin_step_raises(self, default_window):
        engine = SortblockEngine(SortblockConfig(window=default_window), 12)
        with pytest.raises(SortblockError):
            engine(0, np.zeros((64, 64), dtype=np.float32), lambda: None)

    def test_follow_step_without_policy_raises(self):
        engine = SortblockEngine(SortblockConfig(refresh_interval=5, window=(900, 100)), 12)
        engine.phase = 1  # the next in-window step is a follow step
        engine.begin_step(0, 500)
        with pytest.raises(SortblockError, match="follow step before any ranked step"):
            engine(0, np.zeros((64, 64), dtype=np.float32), lambda: None)

    def test_ranked_step_on_cold_cache_raises(self):
        engine = SortblockEngine(SortblockConfig(refresh_interval=5, window=(900, 100)), 12)
        engine.phase = 0  # the next in-window step is a ranked step
        engine.begin_step(0, 500)
        with pytest.raises(SortblockError, match="before the first full compute"):
            engine(0, np.zeros((64, 64), dtype=np.float32), lambda: None)

    @pytest.mark.parametrize("t", [500, 501])
    def test_timestep_that_does_not_decrease_raises(self, t):
        """Predictions reuse the slopes of the ranked step, which holds only
        if a run enters the window once: its timesteps must decrease."""
        engine = SortblockEngine(SortblockConfig(refresh_interval=5, window=(900, 100)), 12)
        engine.begin_step(0, 500)
        with pytest.raises(SortblockError, match="timesteps must decrease"):
            engine.begin_step(1, t)

    @pytest.mark.parametrize("recorded", [True, False])
    def test_network_counter_missing_an_eval_raises(self, recorded):
        """A baseline recording and a cached run check their trace's eval
        total against the network's own counter, by one rule."""
        net = _MissesOneEval(init_network(DitConfig(num_blocks=2, num_tokens=8, channels=8)))
        sched = make_schedule(1000)
        run = make_run(sched, 6, 0, (8, 8))
        with pytest.raises(SortblockError, match="eval accounting mismatch"):
            if recorded:
                record_baseline(net, run, sched)
            else:
                run_sortblock(net, run, sched, SortblockConfig(refresh_interval=2, window=(999, 1)))

    def test_accounting_mismatch_raises_under_optimize(self):
        """The runtime checks are raises, not asserts, so they hold under -O."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _MISCOUNT_UNDER_OPTIMIZE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "SortblockError: eval accounting mismatch" in proc.stdout


class _MissesOneEval:
    """A network whose own eval counter misses its first block eval."""

    def __init__(self, net):
        self.net = net
        self.num_blocks = net.num_blocks
        self._start = net.eval_count

    @property
    def eval_count(self):
        return max(self._start, self.net.eval_count - 1)

    def forward(self, z, t, hook=None):
        return self.net.forward(z, t, hook)


_MISCOUNT_UNDER_OPTIMIZE = """
import sys
assert False, "run me with python -O"  # stripped under -O, so this proves -O is on
from sortblock import DitConfig, SortblockConfig, SortblockError, init_network, make_run, make_schedule, run_sortblock

class Miscounting:
    def __init__(self, net):
        self.net = net
        self.num_blocks = net.num_blocks
        self.eval_count = 0  # never moves: the network's own counter disagrees with the trace

    def forward(self, z, t, hook=None):
        return self.net.forward(z, t, hook)

net = init_network(DitConfig(num_blocks=2, num_tokens=8, channels=8))
sched = make_schedule(1000)
run = make_run(sched, 10, 0, (8, 8))
try:
    run_sortblock(Miscounting(net), run, sched, SortblockConfig(refresh_interval=2, window=(999, 1)))
except SortblockError as exc:
    print(f"SortblockError: {exc}")
else:
    sys.exit("no error raised")
"""


class TestEngineAllocation:
    def test_warm_ranked_and_follow_steps_allocate_no_block_row(self):
        """A warm ranked step (prediction, ranking sweep, serving) and a warm
        follow step allocate nothing the size of one block row in the
        engine's own code: predictions, slopes, sweep operands and the
        float64 row the per-step trace statistics widen into live in the
        engine, and computed blocks write into the engine's rows.  The blocks
        are a stub that copies preallocated outputs into those rows."""
        n, shape = 12, (64, 64)
        rng = np.random.default_rng(0)
        outputs = [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]
        z = rng.standard_normal(shape).astype(np.float32)
        engine = SortblockEngine(SortblockConfig(refresh_interval=5, rho=0.3, window=(900, 100)), n)

        def step(index, t):
            engine.begin_step(index, t)
            x = z
            for b in range(n):
                x = engine(b, x, lambda out=None, b=b: block_output(outputs[b], out))

        # outside, full, ranked, 3 x follow, full: the next ranked step is warm
        timesteps = [950, 900, 880, 860, 840, 820, 800, 780, 760]
        for index, t in enumerate(timesteps[:7]):
            step(index, t)
        for index in (7, 8):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                step(index, timesteps[index])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert engine.trace.steps[-1].phase == ("ranked", "follow")[index - 7]
            assert peak - before < z.nbytes, engine.trace.steps[-1].phase

    def test_cache_is_its_two_anchors(self):
        """After a cached run, a config engine's float32 arrays are four
        (N, tokens, channels) stacks, the two anchors, the predictions and the
        deltas, and two (tokens, channels) rows, the anchor's input and a
        reference delta: slopes and references are re-formed, not stored."""
        run = make_run(SMALL_SCHED, 12, 0, (8, 16))
        cfg = SortblockConfig(refresh_interval=3, rho=0.5, window=(run.step_list[1], run.step_list[-2]))
        engine = SortblockEngine(cfg, SMALL_NET.num_blocks)
        sample(SMALL_NET, run, SMALL_SCHED, hooks=engine)
        assert [r.phase for r in engine.trace.steps].count("ranked") == 3
        arrays = {id(v): v for v in vars(engine).values() if isinstance(v, np.ndarray) and v.dtype == np.float32}
        shapes = sorted(a.shape for a in arrays.values())
        assert shapes == sorted([(SMALL_NET.num_blocks, 8, 16)] * 4 + [(8, 16)] * 2)

    def test_references_do_not_follow_a_reused_input_array(self):
        """The ranked step's references are the full step's deltas even when
        the caller rewrites the full step's input array in place and hands it
        to the ranked step: the engine keeps a copy of the anchor's input."""
        n, shape = 6, (4, 4)
        rng = np.random.default_rng(1)
        outputs = [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]
        z_full, z_ranked = (rng.standard_normal(shape).astype(np.float32) for _ in range(2))

        def ranked_scores(reuse):
            engine = SortblockEngine(SortblockConfig(refresh_interval=5, rho=0.5, window=(900, 100)), n)
            z = z_full.copy()
            for index, t in enumerate((950, 900, 880)):  # outside, full, ranked
                if t == 880:
                    z = z if reuse else np.empty_like(z)
                    z[...] = z_ranked
                engine.begin_step(index, t)
                x = z
                for b in range(n):
                    x = engine(b, x, lambda out=None, b=b: block_output(outputs[b], out))
            assert engine.trace.steps[-1].phase == "ranked"
            return engine.trace.steps[-1].scores

        assert _bits(ranked_scores(reuse=True)) == _bits(ranked_scores(reuse=False))


class TestColdCacheWindow:
    def test_window_covering_all_steps_degenerates_first_predictions(
        self, default_net, default_sched, default_run_factory
    ):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=(999, 1))
        latent, trace = run_sortblock(default_net, run, default_sched, cfg)
        assert np.all(np.isfinite(latent))
        assert trace.steps[0].phase == "full"
        assert trace.steps[1].phase == "ranked"
        # first-interval predictions fall back to copies (single-compute cache)
        assert trace.steps[1].degenerate_predictions > 0
        assert trace.steps[6].degenerate_predictions == 0


class TestAffineExactness:
    def test_engine_exact_on_affine_network(self, affine_setup):
        net, sched, step_list = affine_setup
        z_init = standard_normal(Rng(0), net.num_tokens, net.channels)
        run = SamplerRun(step_list=step_list, z_init=z_init, seed=0)
        baseline = sample(net, run, sched)
        window = inner_window(step_list, 0.8)
        for K in (3, 5, 9):
            for rho in (0.25, 0.5, 1.0):
                cfg = SortblockConfig(refresh_interval=K, rho=rho, window=window)
                latent, trace = run_sortblock(net, run, sched, cfg)
                assert latent.tobytes() == baseline.tobytes(), f"K={K} rho={rho}"
                if rho < 1.0:
                    assert trace.total_evals < len(step_list) * net.num_blocks


SMALL_NET = init_network(DitConfig(num_blocks=4, num_tokens=8, channels=16))
SMALL_SCHED = make_schedule(1000)


class PassThrough:
    """A hook around an engine that passes its rows through, recording each
    block's input and a copy of the row it returns."""

    def __init__(self, engine):
        self.engine = engine
        self.steps = []

    def begin_step(self, step_index, t):
        self.engine.begin_step(step_index, t)
        self.steps.append([])

    def __call__(self, index, x, compute):
        x_then = x.copy()
        row = self.engine(index, x, compute)
        self.steps[-1].append((x_then, row.copy()))
        return row


@st.composite
def _runs_and_configs(draw):
    """A run of 2-20 steps on the small network and a config whose window
    runs from one of its steps (often the first: a single anchor serves the
    first interval) to a later one."""
    n = draw(st.integers(2, 20))
    run = make_run(SMALL_SCHED, n, draw(st.integers(0, 2**16)), (8, 16))
    first = draw(st.one_of(st.just(0), st.integers(0, n - 2)))
    last = draw(st.integers(first + 1, n - 1))
    cfg = SortblockConfig(
        refresh_interval=draw(st.integers(2, 9)),
        rho=draw(st.floats(0.0, 1.0)),
        window=(run.step_list[first], run.step_list[last]),
        predict_mode=draw(st.sampled_from(["linear", "copy"])),
    )
    return run, cfg


class TestStepStack:
    @settings(max_examples=60, deadline=None)
    @given(_runs_and_configs())
    def test_step_statistics_are_those_of_each_served_block(self, run_cfg):
        """Each step's ``delta_l1`` and ``delta_l2``, formed from the step's
        stack at its end, are per block the reference formulas on what the
        engine served for the block minus the block's input."""
        run, cfg = run_cfg
        hook = PassThrough(SortblockEngine(cfg, SMALL_NET.num_blocks))
        sample(SMALL_NET, run, SMALL_SCHED, hooks=hook)
        assert len(hook.steps) == len(hook.engine.trace.steps) == len(run.step_list)
        for rec, blocks in zip(hook.engine.trace.steps, hook.steps):
            deltas = [served - x for x, served in blocks]
            assert _bits(rec.delta_l1) == _bits([float(np.mean(np.abs(d))) for d in deltas])
            assert _bits(rec.delta_l2) == _bits([float(np.linalg.norm(d.astype(np.float64))) for d in deltas])

    @pytest.mark.parametrize("cfg", [None, SortblockConfig(window=(900, 100))], ids=["baseline", "outside"])
    def test_hook_handing_on_a_copy_raises(self, cfg):
        """Block i's input must be the row the engine served for block i - 1:
        the deltas are formed from the engine's stack."""
        engine = SortblockEngine(cfg, SMALL_NET.num_blocks)

        def copying(index, x, compute):
            return engine(index, x, compute).copy()

        engine.begin_step(0, 950)
        with pytest.raises(SortblockError, match="block 1's input is not the array served for block 0"):
            SMALL_NET.forward(standard_normal(Rng(3), 8, 16), 950, copying)

    def test_heavy_captures_do_not_alias_the_engine(self):
        """The heavy trace's deltas and outputs are copies: a later step that
        rewrites the engine's stacks leaves them as they were."""
        engine = SortblockEngine(None, SMALL_NET.num_blocks, heavy=True, store_outputs=True)
        engine.begin_step(0, 500)
        SMALL_NET.forward(standard_normal(Rng(1), 8, 16), 500, engine)
        first = [a.tobytes() for a in [*engine.trace.deltas[0], engine.trace.outputs[0]]]
        engine.begin_step(1, 400)
        SMALL_NET.forward(standard_normal(Rng(2), 8, 16), 400, engine)
        kept = [*engine.trace.deltas[0], engine.trace.outputs[0]]
        assert [a.tobytes() for a in kept] == first
        assert [a.tobytes() for a in [*engine.trace.deltas[1], engine.trace.outputs[1]]] != first
        stacks = [v for v in vars(engine).values() if isinstance(v, np.ndarray)]
        assert not any(np.shares_memory(a, s) for a in kept for s in stacks)
