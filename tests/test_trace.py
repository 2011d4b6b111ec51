import dataclasses
import errno
import json
import os
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortblock import (
    ConfigError,
    MissingDataError,
    ParseError,
    ResourceError,
    ShapeError,
    Rng,
    SamplerRun,
    SortblockConfig,
    oracle_similarities,
    ranking_fidelity,
    record_baseline,
    run_sortblock,
    standard_normal,
)
from sortblock import blob
from sortblock.engine import PolicySequence, cosine_similarity
from sortblock.trace import RunTrace, StepRecord, load_trace, save_trace, served_delta_stats


def _delta_trace(per_step_deltas):
    steps = [
        StepRecord(step=i, timestep=1000 - i, phase="full", flags=[1] * len(d), scores=None,
                   delta_l1=[float(np.mean(np.abs(x))) for x in d],
                   delta_l2=[float(np.linalg.norm(x)) for x in d],
                   evals=len(d), eval_total=(i + 1) * len(d))
        for i, d in enumerate(per_step_deltas)
    ]
    return RunTrace(steps=steps, heavy=True,
                    deltas=[[np.asarray(x, dtype=np.float32) for x in d] for d in per_step_deltas],
                    total_evals=sum(r.evals for r in steps))


class TestServedDeltaStats:
    """The per-step stats rule against the per-block formulas it replaced."""

    @staticmethod
    def _per_block(stack):
        l1 = [float(np.mean(np.abs(d))) for d in stack]
        l2 = [float(np.linalg.norm(d.astype(np.float64))) for d in stack]
        return l1, l2

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 16),
        st.sampled_from([1, 7, 64, 4096, 5000, 9000]),
        st.lists(st.integers(-30, 30), min_size=16, max_size=16),
        st.lists(st.booleans(), min_size=16, max_size=16),
    )
    def test_bit_exact_against_per_block_formulas(self, seed, blocks, n, exponents, zero):
        rng = np.random.default_rng(seed)
        scales = np.array([0.0 if z else 10.0**e for z, e in zip(zero, exponents)])[:blocks]
        stack = (rng.standard_normal((blocks, n)) * scales[:, None]).astype(np.float32)
        expected = self._per_block(stack)
        magnitudes = np.abs(stack)
        assert served_delta_stats(stack, np.empty(n)) == expected
        assert np.array_equal(stack, magnitudes)

    def test_extreme_rows(self):
        f32 = np.finfo(np.float32)
        stack = np.array([
            np.full(4096, f32.max),  # float32 row sum overflows to inf, as in np.mean
            np.full(4096, f32.smallest_subnormal),
            np.zeros(4096),
            np.linspace(-1e30, 1e30, 4096),
        ], dtype=np.float32)
        with np.errstate(over="ignore"):
            expected = self._per_block(stack)
            assert served_delta_stats(stack, np.empty(4096)) == expected


class TestRecordBaseline:
    def test_light_mode_counts(self, default_net, default_sched, default_run_factory):
        trace = record_baseline(default_net, default_run_factory(4), default_sched, heavy=False)
        assert len(trace.steps) == 50
        assert trace.total_evals == 600
        norm_entries = sum(len(r.delta_l2) for r in trace.steps)
        assert norm_entries == 600
        assert trace.deltas is None and trace.outputs is None

    def test_heavy_deltas_reproduce_norms(self, baseline_factory):
        trace = baseline_factory(0)
        for rec, per_block in zip(trace.steps, trace.deltas):
            for b, delta in enumerate(per_block):
                assert rec.delta_l2[b] == pytest.approx(
                    float(np.linalg.norm(delta.astype(np.float64))), rel=1e-12
                )
                assert rec.delta_l1[b] == pytest.approx(float(np.mean(np.abs(delta))), rel=1e-12)

    def test_heavy_deltas_are_one_stack_per_step(self, baseline_factory):
        trace = baseline_factory(0)
        assert all(type(d) is np.ndarray and d.dtype == np.float32 and d.shape == (12, 64, 64) for d in trace.deltas)
        assert not any(np.shares_memory(a, b) for a, b in zip(trace.deltas, trace.deltas[1:]))

    def test_block_profile_finite_positive(self, baseline_factory):
        trace = baseline_factory(0)
        values = np.array([v for rec in trace.steps for v in rec.delta_l1])
        assert np.all(np.isfinite(values)) and np.all(values > 0)

    def test_heavy_memory_preflight(self, default_net, default_sched):
        run = SamplerRun(
            step_list=tuple(range(10**6, 0, -1)),
            z_init=standard_normal(Rng(0), 64, 64),
            seed=0,
        )
        with pytest.raises(ResourceError):
            record_baseline(default_net, run, default_sched, heavy=True)


class TestOracleSimilarities:
    def test_identical_deltas_give_ones(self):
        d = [standard_normal(Rng(i), 4, 4) for i in range(3)]
        trace = _delta_trace([d, [x.copy() for x in d]])
        assert oracle_similarities(trace, 0) == pytest.approx([1.0, 1.0, 1.0])

    def test_negated_deltas_give_minus_ones(self):
        d = [standard_normal(Rng(i + 10), 4, 4) for i in range(3)]
        trace = _delta_trace([d, [-x for x in d]])
        assert oracle_similarities(trace, 0) == pytest.approx([-1.0, -1.0, -1.0])

    def test_real_trace_values_in_range(self, baseline_factory):
        trace = baseline_factory(0)
        sims = oracle_similarities(trace, 20)
        assert len(sims) == 12
        assert all(-1.0 <= s <= 1.0 for s in sims)
        print(f"oracle similarity at step 20: mean={np.mean(sims):.4f}")

    def test_light_trace_raises(self, default_net, default_sched, default_run_factory):
        trace = record_baseline(default_net, default_run_factory(5), default_sched, heavy=False)
        with pytest.raises(MissingDataError):
            oracle_similarities(trace, 0)

    def test_step_bounds(self, baseline_factory):
        trace = baseline_factory(0)
        with pytest.raises(ConfigError):
            oracle_similarities(trace, len(trace.deltas) - 1)

    def test_bit_reproducible(self, baseline_factory):
        trace = baseline_factory(0)
        assert oracle_similarities(trace, 10) == oracle_similarities(trace, 10)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_batched_bit_exact_against_per_block_cosine(self, data):
        """The oracle gives ``cosine_similarity``'s bits for every block, on
        a step's stack or on a list of per-block deltas: zero rows (the
        sentinel), NaN and +-inf rows, norms below 1e-12, huge values, and
        1 to 13 blocks."""
        blocks = data.draw(st.integers(1, 13))
        shape = data.draw(st.sampled_from([(1,), (7,), (8, 8), (64, 64), (50, 100)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kinds = st.sampled_from(["scaled", "zero", "tiny", "nan", "inf", "-inf", "huge"])

        def step():
            rows = []
            for _ in range(blocks):
                kind, row = data.draw(kinds), rng.standard_normal(shape)
                if kind == "scaled":
                    row *= 10.0 ** data.draw(st.integers(-20, 20))
                elif kind in ("zero", "tiny", "huge"):
                    row *= {"zero": 0.0, "tiny": 1e-16, "huge": 1e30}[kind]
                else:
                    row.flat[rng.integers(row.size)] = float(kind)
                rows.append(row.astype(np.float32))
            return rows

        per_block = [step(), step()]
        expected = [cosine_similarity(a, b) for a, b in zip(*per_block)]
        for trace in (_delta_trace(per_block), RunTrace(heavy=True, deltas=[np.stack(d) for d in per_block])):
            assert list(map(float.hex, oracle_similarities(trace, 0))) == list(map(float.hex, expected))

    def test_deltas_of_two_shapes_are_refused(self):
        trace = RunTrace(heavy=True, deltas=[np.zeros((2, 3, 4), np.float32), np.zeros((2, 4, 3), np.float32)])
        with pytest.raises(ShapeError):
            oracle_similarities(trace, 0)
        trace.deltas = [[np.zeros(3)], [np.zeros(3), np.zeros(3)]]
        with pytest.raises(ShapeError):
            oracle_similarities(trace, 0)


class TestRankingFidelity:
    def test_equal_scores_give_one(self):
        scores = [0.5, 0.1, 0.9, 0.3]
        policy = PolicySequence(flags=[0] * 4, scores=scores)
        assert ranking_fidelity(policy, list(scores)) == 1.0

    def test_decreasing_transform_gives_minus_one(self):
        scores = [0.5, 0.1, 0.9, 0.3]
        policy = PolicySequence(flags=[0] * 4, scores=scores)
        assert ranking_fidelity(policy, [1.0 - s for s in scores]) == -1.0

    def test_length_mismatch(self):
        policy = PolicySequence(flags=[0, 0], scores=[0.1, 0.2])
        with pytest.raises(ConfigError):
            ranking_fidelity(policy, [0.1, 0.2, 0.3])

    def test_real_run_reported(self, default_net, default_sched, default_run_factory, default_window, baseline_factory):
        run = default_run_factory(0)
        base = baseline_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, run, default_sched, cfg)
        taus = []
        for rec in trace.steps:
            if rec.phase == "ranked" and rec.scores is not None:
                policy = PolicySequence(flags=rec.flags, scores=rec.scores)
                taus.append(ranking_fidelity(policy, oracle_similarities(base, rec.step - 1)))
        print(f"ranking fidelity across ranked steps: mean={np.mean(taus):.4f} n={len(taus)}")
        assert all(-1.0 <= t <= 1.0 for t in taus)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _traces(draw):
    """A RunTrace of 1-4 steps over 1-5 blocks; tensors of a small shape in a
    drawn layout (float32, big-endian, float64, transposed)."""
    n_steps, n_blocks = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    heavy, with_outputs = draw(st.booleans()), draw(st.booleans())
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    layout = draw(st.sampled_from(["<f4", ">f4", "<f8", "transposed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def tensor():
        arr = rng.standard_normal(shape[::-1] if layout == "transposed" else shape)
        return arr.T.astype(np.float32) if layout == "transposed" else arr.astype(layout)

    floats = st.lists(_FINITE, min_size=n_blocks, max_size=n_blocks)
    steps = [
        StepRecord(step=s, timestep=draw(st.integers(0, 999)),
                   phase=draw(st.sampled_from(["full", "ranked", "follow", "outside"])),
                   flags=draw(st.lists(st.integers(0, 1), min_size=n_blocks, max_size=n_blocks)),
                   scores=draw(st.none() | floats), delta_l1=draw(floats), delta_l2=draw(floats),
                   evals=n_blocks, eval_total=(s + 1) * n_blocks,
                   degenerate_predictions=draw(st.integers(0, n_blocks)))
        for s in range(n_steps)
    ]
    return RunTrace(
        steps=steps, total_evals=n_steps * n_blocks, wall_time_s=draw(_FINITE),
        config={"mode": draw(st.sampled_from(["baseline", "sortblock"])), "steps": n_steps},
        heavy=heavy,
        deltas=[[tensor() for _ in range(n_blocks)] for _ in range(n_steps)] if heavy else None,
        outputs=[tensor() for _ in range(n_steps)] if with_outputs else None,
    )


def _expected_tensors(trace):
    """(file name, array) for every tensor ``save_trace`` writes, in order,
    and the ``tensors.json`` header that describes them."""
    deltas = trace.deltas if trace.heavy else []
    out = [(f"delta_s{s:04d}_b{b:03d}.f32", arr)
           for s, per_block in enumerate(deltas) for b, arr in enumerate(per_block)]
    out += [(f"output_s{s:04d}.f32", arr) for s, arr in enumerate(trace.outputs or [])]
    header = {"version": 2, "shape": list(out[0][1].shape) if out else [], "steps": len(deltas),
              "blocks": len(deltas[0]) if deltas else 0, "outputs": len(trace.outputs or [])}
    return out, header


class TestTraceSerialization:
    def test_light_round_trip(self, tmp_path, default_net, default_sched, default_run_factory, default_window):
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, default_run_factory(6), default_sched, cfg)
        save_trace(trace, tmp_path / "t")
        loaded = load_trace(tmp_path / "t")
        assert loaded.total_evals == trace.total_evals
        assert loaded.config == trace.config
        assert len(loaded.steps) == len(trace.steps)
        for a, b in zip(loaded.steps, trace.steps):
            assert (a.step, a.phase, a.flags, a.scores, a.evals) == (
                b.step, b.phase, b.flags, b.scores, b.evals
            )
            assert a.delta_l2 == b.delta_l2

    def test_heavy_round_trip_bitwise(self, tmp_path, default_net, default_sched, default_run_factory):
        run = default_run_factory(7)
        short = SamplerRun(step_list=run.step_list[:6], z_init=run.z_init, seed=7)
        trace = record_baseline(default_net, short, default_sched, heavy=True)
        save_trace(trace, tmp_path / "t")
        loaded = load_trace(tmp_path / "t")
        assert loaded.heavy
        for da, db in zip(loaded.deltas, trace.deltas):
            for a, b in zip(da, db):
                assert a.tobytes() == b.tobytes()
        for oa, ob in zip(loaded.outputs, trace.outputs):
            assert oa.tobytes() == ob.tobytes()

    @pytest.mark.parametrize("first_heavy", [True, False], ids=["light_over_heavy", "heavy_over_light"])
    def test_save_over_the_other_kind_loads_as_the_new_trace(self, tmp_path, default_net, default_sched,
                                                             default_run_factory, first_heavy):
        """A trace saved into a directory that holds a heavy (or light) one
        loads back as the trace saved last; a heavy trace's tensor files
        are removed under a light one."""
        run = default_run_factory(3)
        short = SamplerRun(step_list=run.step_list[:4], z_init=run.z_init, seed=3)
        first, second = (record_baseline(default_net, short, default_sched, heavy=h)
                         for h in (first_heavy, not first_heavy))
        save_trace(first, tmp_path)
        save_trace(second, tmp_path)
        loaded = load_trace(tmp_path)
        assert loaded.to_dict() == second.to_dict() and loaded.heavy is second.heavy
        if second.heavy:
            assert [[a.tobytes() for a in per] for per in loaded.deltas] == [
                [a.tobytes() for a in per] for per in second.deltas]
            assert [a.tobytes() for a in loaded.outputs] == [a.tobytes() for a in second.outputs]
        else:
            assert loaded.deltas is None and loaded.outputs is None
            assert not (tmp_path / "delta_s0003_b011.f32").exists()
            assert sorted(os.listdir(tmp_path)) == ["tensors.json", "trace.json"]

    def test_failed_save_over_a_heavy_trace_does_not_load(self, tmp_path, monkeypatch):
        """A save of a 3-step, 2-block trace of twos over one of ones that
        fails at the 4th tensor file leaves a directory ``load_trace``
        refuses for its missing header, not a mix of the two traces; the
        next save that completes loads as its trace."""
        ones, twos = (_delta_trace([[np.full(2, v)] * 2] * 3) for v in (1.0, 2.0))
        save_trace(ones, tmp_path)
        real_open, tensor_opens = os.open, []

        def failing_open(path, *args, **kwargs):
            if str(path).endswith(".f32"):
                tensor_opens.append(path)
                if len(tensor_opens) == 4:
                    raise OSError(errno.EIO, "injected", str(path))
            return real_open(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", failing_open)
            with pytest.raises(OSError, match="injected"):
                save_trace(twos, tmp_path)
        assert len(tensor_opens) == 4
        with pytest.raises(ParseError, match="tensors.json"):
            load_trace(tmp_path)
        save_trace(twos, tmp_path)
        assert [[a.tolist() for a in stack] for stack in load_trace(tmp_path).deltas] == [[[2.0, 2.0]] * 2] * 3

    def test_save_after_a_failed_save_leaves_no_stale_tensor_files(self, tmp_path, monkeypatch):
        """A heavy save that fails at its 4th tensor file has removed the
        header that named the earlier trace's files; a light save after it
        still leaves only the two JSON files."""
        steps = [StepRecord(step=s, timestep=900 - s, phase="full") for s in range(5)]
        heavy = _delta_trace([[np.full(2, s)] * 3 for s in range(5)])
        heavy.outputs = [np.ones(2, np.float32)] * 5
        save_trace(heavy, tmp_path)
        assert len(list(tmp_path.glob("*.f32"))) == 20
        real_open, tensor_opens = os.open, []

        def failing_open(path, *args, **kwargs):
            if str(path).endswith(".f32"):
                tensor_opens.append(path)
                if len(tensor_opens) == 4:
                    raise OSError(errno.EIO, "injected", str(path))
            return real_open(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", failing_open)
            with pytest.raises(OSError, match="injected"):
                save_trace(heavy, tmp_path)
        light = RunTrace(steps=steps, total_evals=0)
        save_trace(light, tmp_path)
        assert sorted(os.listdir(tmp_path)) == ["tensors.json", "trace.json"]
        assert load_trace(tmp_path).to_dict() == light.to_dict()

    def test_failed_save_without_tensors_over_outputs_does_not_load(self, tmp_path, monkeypatch):
        """A light save without outputs over a light trace with outputs (as
        ``analyze`` saves it) that fails at the new header leaves a
        directory ``load_trace`` refuses, not the new steps with the old
        outputs."""
        steps = [StepRecord(step=s, timestep=900 - s, phase="full") for s in range(3)]
        save_trace(RunTrace(steps=steps, outputs=[np.ones(2, np.float32)] * 3), tmp_path)
        real_write = blob.write_atomic

        def failing_write(path, parts):
            if str(path).endswith("tensors.json"):
                raise OSError(errno.ENOSPC, "injected", str(path))
            real_write(path, parts)

        with monkeypatch.context() as patch:
            patch.setattr(blob, "write_atomic", failing_write)
            with pytest.raises(OSError, match="injected"):
                save_trace(RunTrace(steps=steps, total_evals=2), tmp_path)
        with pytest.raises(ParseError, match="tensors.json"):
            load_trace(tmp_path)

    @pytest.mark.parametrize("header", [
        "not json",
        '[{"file": "delta_s0000_b000.f32"}]',
        '{"version": 3, "shape": [2], "steps": 1, "blocks": 1, "outputs": 0}',
        '{"version": 2, "shape": [2], "steps": 1000000000, "blocks": 1000000000, "outputs": 0}',
    ], ids=["not_json", "first_format", "other_version", "counts_past_the_files"])
    def test_save_over_a_foreign_header_removes_nothing(self, tmp_path, header):
        """A ``tensors.json`` that ``save_trace`` did not write is replaced,
        and no file it might name is removed."""
        (tmp_path / "tensors.json").write_text(header)
        (tmp_path / "delta_s0000_b000.f32").write_bytes(bytes(8))
        trace = RunTrace()
        save_trace(trace, tmp_path)
        assert load_trace(tmp_path).to_dict() == trace.to_dict()
        assert (tmp_path / "delta_s0000_b000.f32").read_bytes() == bytes(8)

    @settings(max_examples=60, deadline=None)
    @given(_traces())
    def test_generated_round_trip(self, trace):
        """Generated traces, heavy or light, with or without outputs, with
        tensors of any layout or float dtype: the tensor files hold the
        arrays' little-endian float32 bytes, ``trace.json`` parses to the
        document ``asdict`` made and ``tensors.json`` to the one-object
        header, and the loaded trace equals the saved one."""
        with tempfile.TemporaryDirectory() as tmp:
            save_trace(trace, tmp)
            tensors, header = _expected_tensors(trace)
            assert sorted(os.listdir(tmp)) == sorted(["trace.json", "tensors.json"] + [name for name, _ in tensors])
            for name, arr in tensors:
                with open(os.path.join(tmp, name), "rb") as f:
                    assert f.read() == arr.astype("<f4").tobytes()
            doc = {"steps": [asdict(r) for r in trace.steps], "total_evals": trace.total_evals,
                   "wall_time_s": trace.wall_time_s, "config": trace.config, "heavy": trace.heavy}
            assert trace.to_dict() == doc
            with open(os.path.join(tmp, "trace.json")) as f:
                assert json.load(f) == doc
            with open(os.path.join(tmp, "tensors.json")) as f:
                assert json.load(f) == header
            loaded = load_trace(tmp)
        assert loaded.to_dict() == doc
        assert (loaded.outputs is None) == (trace.outputs is None)
        if trace.heavy:
            assert [len(per) for per in loaded.deltas] == [len(per) for per in trace.deltas]
        else:
            assert loaded.deltas is None
        back = [a for per in loaded.deltas or [] for a in per] + (loaded.outputs or [])
        assert len(back) == len(tensors)
        for a, (_, b) in zip(back, tensors):
            assert a.dtype == np.float32 and np.array_equal(a, b.astype("<f4"))

        mutated = trace.to_dict()
        for step in mutated["steps"]:
            for key in ("flags", "scores", "delta_l1", "delta_l2"):
                if step[key] is not None:
                    step[key].append(7)
        assert trace.to_dict() == doc

    def test_tensors_of_two_shapes_are_refused(self, tmp_path):
        trace = _delta_trace([[np.zeros((2, 3))], [np.zeros((3, 2))]])
        with pytest.raises(ShapeError):
            save_trace(trace, tmp_path)

    def test_tensor_counts_other_than_the_step_records_are_refused(self, tmp_path):
        """Deltas or outputs for fewer or more steps than the trace has step
        records, or a heavy trace without deltas: the save writes nothing,
        so every saved trace loads."""
        trace = _delta_trace([[np.zeros(2)]] * 3)
        for edit in (lambda t: t.steps.pop(), lambda t: setattr(t, "outputs", [np.zeros(2, np.float32)] * 2),
                     lambda t: setattr(t, "deltas", None)):
            broken = dataclasses.replace(trace, steps=list(trace.steps))
            edit(broken)
            with pytest.raises(ShapeError, match="step records"):
                save_trace(broken, tmp_path)
            assert list(tmp_path.iterdir()) == []

    def test_ranked_flag_schedule_extraction(self, default_net, default_sched, default_run_factory, default_window):
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, trace = run_sortblock(default_net, default_run_factory(0), default_sched, cfg)
        schedule = trace.ranked_flag_schedule()
        ranked_steps = [r.step for r in trace.steps if r.phase == "ranked"]
        assert sorted(schedule) == ranked_steps
        assert all(len(flags) == 12 for flags in schedule.values())
