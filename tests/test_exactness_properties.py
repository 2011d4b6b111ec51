"""Exactness and accounting of the caching lifecycle over generated step
counts, refresh intervals K and windows, windows that start at step 0
included (there the first interval predicts from a single computation and
serves copies).

* rho = 1, or a window holding no step, gives the latent of plain ``sample``
  bit for bit.
* On the affine network (block outputs affine in t, every value exact in
  float32) any rho < 1 is exact too, for windows that the sampler enters
  after at least one outside step: linear extrapolation is then exact.
* The trace's eval total equals ``expected_eval_count``.
* Under ``step_phase``, every ranked step directly follows a full step, and
  follow steps follow a ranked or follow step: the engine computes the
  anchor interval's slopes on the ranked step and reuses them until the next
  anchor.
"""

import numpy as np
from conftest import AffineNetwork
from hypothesis import given, settings
from hypothesis import strategies as st

from sortblock import (
    DitConfig,
    SamplerRun,
    SortblockConfig,
    expected_eval_count,
    init_network,
    make_run,
    make_schedule,
    recompute_quota,
    run_sortblock,
    sample,
    uniform_step_list,
)
from sortblock.engine import step_phase

SCHED = make_schedule(1000)
NET = init_network(DitConfig(num_blocks=4, num_tokens=8, channels=16))
AFFINE = AffineNetwork()


@st.composite
def windows_and_runs(draw):
    """A run of 2-30 steps on the small network and a window from one of its
    steps to a later one."""
    n = draw(st.integers(2, 30))
    run = make_run(SCHED, n, draw(st.integers(0, 2**16)), (8, 16))
    first = draw(st.integers(0, n - 2))
    last = draw(st.integers(first + 1, n - 1))
    return run, (run.step_list[first], run.step_list[last])


@st.composite
def empty_windows_and_runs(draw):
    """A run and a window between two neighbouring steps, above the first or
    below the last, holding none of them."""
    n = draw(st.integers(2, 30))
    run = make_run(SCHED, n, draw(st.integers(0, 2**16)), (8, 16))
    steps = run.step_list
    gap = draw(st.integers(0, n))
    upper = steps[gap - 1] - 1 if gap > 0 else 1999
    lower = steps[gap] + 1 if gap < n else 0
    return run, (upper, lower)


def _assert_accounted(trace, run, cfg, num_blocks):
    assert trace.total_evals == expected_eval_count(
        run.step_list, cfg.window, cfg.refresh_interval, num_blocks, rho=cfg.rho
    )


@settings(max_examples=60, deadline=None)
@given(windows_and_runs(), st.integers(2, 9))
def test_rho_one_is_plain_sampling(run_window, k):
    run, window = run_window
    cfg = SortblockConfig(refresh_interval=k, rho=1.0, window=window)
    latent, trace = run_sortblock(NET, run, SCHED, cfg)
    assert latent.tobytes() == sample(NET, run, SCHED).tobytes()
    assert trace.total_evals == len(run.step_list) * NET.num_blocks
    _assert_accounted(trace, run, cfg, NET.num_blocks)


@settings(max_examples=60, deadline=None)
@given(empty_windows_and_runs(), st.integers(2, 9), st.floats(0.0, 1.0))
def test_empty_window_is_plain_sampling(run_window, k, rho):
    run, window = run_window
    cfg = SortblockConfig(refresh_interval=k, rho=rho, window=window)
    latent, trace = run_sortblock(NET, run, SCHED, cfg)
    assert latent.tobytes() == sample(NET, run, SCHED).tobytes()
    assert {r.phase for r in trace.steps} == {"outside"}
    _assert_accounted(trace, run, cfg, NET.num_blocks)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 80), st.integers(2, 9), st.integers(0, 1000), st.integers(0, 1000))
def test_ranked_steps_directly_follow_full_steps(n, k, a, b):
    """Over a sampler step list (strictly decreasing timesteps) and any
    window, including ones that hold no step or one."""
    window = (max(a, b) + 1, min(a, b))
    labels, counter = [], None
    for t in uniform_step_list(1000, n):
        label, counter = step_phase(t, window, k, counter)
        labels.append(label)
    assert labels[0] != "ranked" and labels[0] != "follow"
    for prev, label in zip(labels, labels[1:]):
        if label == "ranked":
            assert prev == "full"
        elif label == "follow":
            assert prev in ("ranked", "follow")


@settings(max_examples=80, deadline=None)
@given(windows_and_runs(), st.integers(2, 9), st.floats(0.0, 1.0, exclude_max=True))
def test_eval_total_matches_closed_form(run_window, k, rho):
    run, window = run_window
    cfg = SortblockConfig(refresh_interval=k, rho=rho, window=window)
    latent, trace = run_sortblock(NET, run, SCHED, cfg)
    assert np.isfinite(latent).all()
    _assert_accounted(trace, run, cfg, NET.num_blocks)
    for rec in trace.steps:
        want = NET.num_blocks if rec.phase in ("outside", "full") else recompute_quota(rho, NET.num_blocks)
        assert rec.evals == sum(rec.flags) == want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([10, 20, 25]),
    st.integers(3, 30),
    st.integers(2, 9),
    st.floats(0.0, 1.0, exclude_max=True),
    st.data(),
)
def test_affine_network_is_exact_below_rho_one(stride, n, k, rho, data):
    """Integer-stride step lists keep every slope and extrapolation exact."""
    n = min(n, 999 // stride)
    step_list = tuple(range(stride * n, 0, -stride))
    first = data.draw(st.integers(1, n - 2))
    last = data.draw(st.integers(first + 1, n - 1))
    cfg = SortblockConfig(refresh_interval=k, rho=rho, window=(step_list[first], step_list[last]))
    z_init = np.zeros((AFFINE.num_tokens, AFFINE.channels), dtype=np.float32)
    run = SamplerRun(step_list=step_list, z_init=z_init, seed=0)
    latent, trace = run_sortblock(AFFINE, run, SCHED, cfg)
    assert latent.tobytes() == sample(AFFINE, run, SCHED).tobytes()
    _assert_accounted(trace, run, cfg, AFFINE.num_blocks)
