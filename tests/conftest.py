from __future__ import annotations

import errno
import os

import numpy as np
import pytest
from hypothesis import settings

from sortblock import (
    DitConfig,
    Rng,
    init_network,
    inner_window,
    make_run,
    make_schedule,
    record_baseline,
)

# HYPOTHESIS_PROFILE=ci (the CI workflow) draws the same examples on every
# run and prints a failing example's reproduction blob; local runs keep the
# default profile
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def block_output(value, out=None):
    """What ``compute(out)`` returns for a block whose output is ``value``,
    by the row rule of ``Network.block_forward``: a given row is written and
    returned; with no row, the output is ``value``."""
    if out is None:
        return value
    out[...] = value
    return out


class AffineNetwork:
    """Synthetic network whose block outputs are affine in the timestep and
    independent of the input: out_i(t) = base_i + t * slope_i.

    All entries are small integers, the step stride is an integer, and every
    value stays far below 2**24, so block outputs, cache slopes, and linear
    extrapolations are all exact in float32 -- the caching engine must then
    reproduce the baseline bit for bit at any (K, rho).
    """

    def __init__(self, num_blocks=12, num_tokens=16, channels=8, seed=7):
        self.num_blocks = num_blocks
        self.num_tokens = num_tokens
        self.channels = channels
        self.eval_count = 0
        rng = Rng(seed)
        self.bases = []
        self.slopes = []
        for _ in range(num_blocks):
            base = np.array(
                [[(rng.next_u64() % 15) - 7 for _ in range(channels)] for _ in range(num_tokens)],
                dtype=np.float32,
            )
            slope = np.array(
                [[(rng.next_u64() % 7) - 3 for _ in range(channels)] for _ in range(num_tokens)],
                dtype=np.float32,
            )
            self.bases.append(base)
            self.slopes.append(slope)

    def _output(self, index, t):
        return self.bases[index] + np.float32(float(t)) * self.slopes[index]

    def forward(self, z, t, hook=None):
        x = z
        for i in range(self.num_blocks):
            if hook is None:
                out = self._output(i, t)
                self.eval_count += 1
                x = out
            else:
                def compute(out=None, i=i):
                    self.eval_count += 1
                    return block_output(self._output(i, t), out)

                x = hook(i, x, compute)
        return x


@pytest.fixture(scope="session")
def default_cfg():
    return DitConfig()


@pytest.fixture(scope="session")
def default_net(default_cfg):
    return init_network(default_cfg)


@pytest.fixture(scope="session")
def default_sched():
    return make_schedule(1000)


@pytest.fixture(scope="session")
def default_run_factory(default_sched):
    def factory(seed):
        return make_run(default_sched, 50, seed, (64, 64))

    return factory


@pytest.fixture(scope="session")
def default_window(default_run_factory):
    return inner_window(default_run_factory(0).step_list, 0.8)


@pytest.fixture(scope="session")
def baseline_factory(default_net, default_sched, default_run_factory):
    """Heavy baseline traces, computed once per seed and shared."""
    cache = {}

    def factory(seed):
        if seed not in cache:
            run = default_run_factory(seed)
            cache[seed] = record_baseline(default_net, run, default_sched, heavy=True)
        return cache[seed]

    return factory


@pytest.fixture()
def affine_setup():
    """Affine network with an integer-stride step list and matching schedule."""
    net = AffineNetwork()
    sched = make_schedule(1000)
    step_list = tuple(range(980, 0, -20))  # 49 steps, stride 20, ends at 20
    return net, sched, step_list


@pytest.fixture()
def write_failing_part_way():
    """A stand-in for ``os.write`` that writes half of its first buffer and
    then fails with ENOSPC: a file write that stops part way through."""
    real_write = os.write
    calls = []

    def write(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, bytes(data[: max(len(data) // 2, 1)]))

    return write
