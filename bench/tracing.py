"""Spans recorded from the benchmark's own files around calls into the
package's public functions, and the per-layer figures derived from them.

A span is ``[name, parent, start_ns, end_ns, tag]``; ``parent`` is the index of
the enclosing span in the same iteration (-1 for the root).  Spans stay in
memory and are summarised when the run ends.  ``Tracer.installed`` wraps, for
the duration of a traced section only:

* ``Network.block_forward`` of the benchmark's network (instance attribute),
* ``sortblock.dit.network_forward`` and ``sortblock.diffusion.ddim_step``,
  which ``sample`` looks up at call time,
* ``sample`` as seen by ``run_sortblock`` and ``record_baseline``,
* ``SortblockEngine``, replaced by a pass-through subclass that times
  ``begin_step``, ``__call__`` and the ``compute`` thunk it is handed.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import sortblock.diffusion
import sortblock.dit
import sortblock.engine
import sortblock.trace


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        span = [name, stack[-1] if stack else -1, 0, 0, None]
        spans.append(span)
        stack.append(idx)
        span[2] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter_ns()
            stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self, net):
        tracer = self
        base = sortblock.engine.SortblockEngine

        class TracedEngine(base):
            def begin_step(self, step_index, t):
                return tracer.call("engine.begin_step", super().begin_step, step_index, t)

            def __call__(self, index, x, compute):
                span_index = len(tracer.spans)
                out = tracer.call("engine.hook", super().__call__, index, x,
                                  tracer.wrap("engine.compute", compute))
                tracer.spans[span_index][4] = (self.trace.steps[-1].phase, index)
                return out

        saved = [
            (sortblock.dit, "network_forward"),
            (sortblock.diffusion, "ddim_step"),
            (sortblock.engine, "sample"),
            (sortblock.trace, "sample"),
            (sortblock.engine, "SortblockEngine"),
        ]
        originals = [getattr(mod, name) for mod, name in saved]
        net.block_forward = self.wrap("dit.block_forward", net.block_forward)
        sortblock.dit.network_forward = self.wrap("dit.network_forward", originals[0])
        sortblock.diffusion.ddim_step = self.wrap("diffusion.ddim_step", originals[1])
        sortblock.engine.sample = self.wrap("diffusion.sample", originals[2])
        sortblock.trace.sample = self.wrap("diffusion.sample", originals[3])
        sortblock.engine.SortblockEngine = TracedEngine
        try:
            yield self
        finally:
            del net.block_forward
            for (mod, name), original in zip(saved, originals):
                setattr(mod, name, original)


def _dur(span) -> int:
    return span[3] - span[2]


def _child_time(spans, parent_name: str, child_name: str) -> dict[int, int]:
    """Per span named ``parent_name``: total time of its direct children named
    ``child_name``."""
    out = {i: 0 for i, s in enumerate(spans) if s[0] == parent_name}
    for s in spans:
        if s[0] == child_name and s[1] in out:
            out[s[1]] += _dur(s)
    return out


def total(spans, name: str) -> int:
    return sum(_dur(s) for s in spans if s[0] == name)


def durations(spans, name: str) -> list[int]:
    return [_dur(s) for s in spans if s[0] == name]


def loop_split(spans, iteration_ns: int) -> dict:
    """Block forward and sampler figures of one traced iteration (ns / counts)."""
    sample_ns = total(spans, "diffusion.sample")
    return {
        "block_forward": durations(spans, "dit.block_forward"),
        "ddim_step": durations(spans, "diffusion.ddim_step"),
        "compute_share": total(spans, "dit.block_forward") / iteration_ns,
        "sampler_self_ns": sample_ns - total(spans, "dit.network_forward"),
    }


def engine_split(spans, iteration_ns: int) -> dict:
    """Self time of the engine hook (hook time minus the compute thunk it ran),
    split into the ranked-step sweep and served predictions."""
    compute_in = _child_time(spans, "engine.hook", "engine.compute")
    hook_self = {i: _dur(spans[i]) - c for i, c in compute_in.items()}
    self_ns = sum(hook_self.values()) + total(spans, "engine.begin_step")
    sweep, predict, predictions = [], [], 0
    for i, own in hook_self.items():
        phase, index = spans[i][4]
        if phase == "ranked" and index == 0:
            sweep.append(own)  # the ranking sweep runs inside block 0's hook call
        elif compute_in[i] == 0 and phase in ("ranked", "follow"):
            predict.append(own)
        if compute_in[i] == 0:
            predictions += 1
    return {
        "self_ns": self_ns,
        "overhead_share": self_ns / iteration_ns,
        "rank_sweep": sweep,
        "predict": predict,
        "predictions": predictions,
    }


def analyze_split(spans) -> dict:
    return {name: total(spans, name) for name in (
        "trace.save", "trace.load", "trace.oracle", "ratio.measure_l1_curve", "ratio.fit",
    )}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
