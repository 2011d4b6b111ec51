"""The default problem, the three workload bodies and their correctness checks.

Every body drives the package through its public calls only.  A body runs one
iteration on one pre-built ``SamplerRun`` and returns an ``Outcome``; the
matching check runs outside the timed region and returns the list of failed
conditions (empty when the iteration is correct).

``span(name, fn, *args)`` is how a body calls into a layer: untimed runs pass
``direct``, traced runs pass ``Tracer.call`` so each call becomes a span.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import sortblock as sb
from sortblock import blob
from sortblock.trace import load_trace, save_trace

NUM_STEPS = 50
TOTAL_TIMESTEPS = 1000
SHAPE = (64, 64)
PRESET = {"refresh_interval": 5, "rho": 0.3, "window_fraction": 0.8}  # README "default"

WORKLOADS = ("plain_sampler", "cached_default", "analyze_roundtrip")


def direct(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


def latent_digest(latent: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(latent, dtype="<f4").tobytes()).hexdigest()


class Problem:
    """Network, schedule and caching preset of the default problem:
    12 blocks x 64 tokens x 64 channels, 50 DDIM steps over T=1000."""

    def __init__(self):
        self.net = sb.init_network(sb.DitConfig())
        self.sched = sb.make_schedule(TOTAL_TIMESTEPS)
        self.step_list = sb.uniform_step_list(TOTAL_TIMESTEPS, NUM_STEPS)
        window = sb.inner_window(self.step_list, PRESET["window_fraction"])
        self.cached_cfg = sb.SortblockConfig(
            refresh_interval=PRESET["refresh_interval"], rho=PRESET["rho"], window=window
        )
        self.full_evals = NUM_STEPS * self.net.num_blocks
        self.cached_evals = sb.expected_eval_count(
            self.step_list, window, PRESET["refresh_interval"], self.net.num_blocks, rho=PRESET["rho"]
        )
        # save_trace writes one file per (step, block) delta, one per step
        # output, plus trace.json and tensors.json
        self.trace_files = NUM_STEPS * (self.net.num_blocks + 1) + 2

    def make_run(self, seed: int) -> sb.SamplerRun:
        return sb.make_run(self.sched, NUM_STEPS, seed=seed, shape=SHAPE)

    def problem_hash(self, seed: int) -> str:
        ident = {"blocks": self.net.num_blocks, "shape": list(SHAPE), "steps": NUM_STEPS,
                 "total_timesteps": TOTAL_TIMESTEPS, "seed": seed}
        return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:16]

    def expected_evals(self, workload: str) -> int:
        return self.cached_evals if workload == "cached_default" else self.full_evals


@dataclass
class Outcome:
    latent: np.ndarray  # the latent the workload serves
    evals: int  # change in net.eval_count over the iteration
    run_trace: Optional[sb.RunTrace] = None  # engine trace (cached) / recorded trace (analyze)
    extra: dict = field(default_factory=dict)


def plain_sampler(problem: Problem, run: sb.SamplerRun, workdir: Path, span=direct) -> Outcome:
    before = problem.net.eval_count
    latent = span("diffusion.sample", sb.sample, problem.net, run, problem.sched)
    return Outcome(latent, problem.net.eval_count - before)


def cached_default(problem: Problem, run: sb.SamplerRun, workdir: Path, span=direct) -> Outcome:
    before = problem.net.eval_count
    latent, trace = span("engine.run_sortblock", sb.run_sortblock,
                         problem.net, run, problem.sched, problem.cached_cfg)
    return Outcome(latent, problem.net.eval_count - before, run_trace=trace)


def analyze_roundtrip(problem: Problem, run: sb.SamplerRun, workdir: Path, span=direct) -> Outcome:
    """Heavy baseline -> trace save/load -> oracle over every step pair ->
    L1 curve -> ratio fit -> latent blob write/read -> fidelity of the read-back
    latent against the in-memory one, in the empty directory ``workdir``."""
    net = problem.net
    before = net.eval_count
    trace = span("trace.record_baseline", sb.record_baseline, net, run, problem.sched, heavy=True)
    trace_dir = workdir / "trace"
    span("trace.save", save_trace, trace, trace_dir)
    loaded = span("trace.load", load_trace, trace_dir)
    oracle = span("trace.oracle", lambda: [
        sb.oracle_similarities(loaded, s) for s in range(len(loaded.deltas) - 1)
    ])
    ts, l1 = span("ratio.measure_l1_curve", sb.measure_l1_curve, loaded)
    policy = span("ratio.fit", sb.fit_ratio_policy, ts, l1)
    latent_path = workdir / "latent.bin"
    span("blob.write_latent", blob.write_latent, latent_path, trace.final_latent,
         run.seed, problem.problem_hash(run.seed))
    back, header = span("blob.read_latent", blob.read_latent, latent_path)
    img_back, img_mem = sb.latent_pair_to_images(back, trace.final_latent)
    fidelity = (
        span("metrics.psnr", sb.psnr, img_back, img_mem),
        span("metrics.ssim", sb.ssim, img_back, img_mem),
        span("metrics.relative_l2", sb.relative_l2, back, trace.final_latent),
    )
    return Outcome(back, net.eval_count - before, run_trace=trace, extra={
        "loaded": loaded, "oracle": oracle, "policy": policy, "header": header,
        "fidelity": fidelity, "trace_dir": trace_dir,
    })


BODIES = {
    "plain_sampler": plain_sampler,
    "cached_default": cached_default,
    "analyze_roundtrip": analyze_roundtrip,
}


def check(problem: Problem, workload: str, run: sb.SamplerRun, out: Outcome) -> list[str]:
    """Correctness conditions of one iteration; returns the ones that failed."""
    failures = []
    if not np.all(np.isfinite(out.latent)):
        failures.append("latent is not finite")
    expected = problem.expected_evals(workload)
    if out.evals != expected:
        failures.append(f"net.eval_count moved by {out.evals}, expected {expected}")
    if workload == "cached_default" and out.run_trace.total_evals != expected:
        failures.append(f"trace counts {out.run_trace.total_evals} evals, expected {expected}")
    if workload == "analyze_roundtrip":
        failures.extend(_check_roundtrip(problem, run, out))
    return failures


def _check_roundtrip(problem: Problem, run: sb.SamplerRun, out: Outcome) -> list[str]:
    failures = []
    trace, loaded, extra = out.run_trace, out.extra["loaded"], out.extra
    written = list(extra["trace_dir"].iterdir())  # listed here, outside the timed region
    extra["files"] = len(written)
    extra["bytes"] = sum(p.stat().st_size for p in written)
    if latent_digest(out.latent) != latent_digest(trace.final_latent):
        failures.append("latent blob round trip changed the latent bytes")
    psnr_db, ssim_value, rel = extra["fidelity"]
    if psnr_db != sb.metrics.PSNR_CAP_DB or ssim_value != 1.0 or rel != 0.0:
        failures.append(f"round-trip fidelity is not exact: {extra['fidelity']}")
    if extra["header"].get("seed") != run.seed:
        failures.append("blob header lost the seed")
    if extra["files"] != problem.trace_files:
        failures.append(f"trace wrote {extra['files']} files, expected {problem.trace_files}")
    same = (
        len(loaded.deltas) == len(trace.deltas)
        and all(np.array_equal(a, b) for sa, sb_ in zip(loaded.deltas, trace.deltas) for a, b in zip(sa, sb_))
        and len(loaded.outputs) == len(trace.outputs)
        and all(np.array_equal(a, b) for a, b in zip(loaded.outputs, trace.outputs))
        and loaded.total_evals == trace.total_evals
    )
    if not same:
        failures.append("loaded trace differs from the saved one")
    oracle = extra["oracle"]
    if len(oracle) != NUM_STEPS - 1 or any(
        len(row) != problem.net.num_blocks or not all(-1.0 <= v <= 1.0 for v in row) for row in oracle
    ):
        failures.append("oracle similarities have the wrong shape or leave [-1, 1]")
    if not all(np.isfinite(c) for c in extra["policy"].poly.coefficients):
        failures.append("fitted ratio policy is not finite")
    return failures


class Workdirs:
    """A fresh, empty directory for each analyze iteration, under ``root``.

    ext4 without a journal avoids reusing an inode freed in the last minute (or
    five): to allocate one it skips every such inode of the block group, at a
    CPU cost per inode.  Deleting and re-creating one trace directory per
    iteration fills its group with them, so ``save_trace`` of the 652 files
    slows down over a run (on a 2-vCPU VM from about 60 to 550 ms), by an
    amount set by the deletions of earlier iterations and earlier runs.  So
    ``root`` is marked as the top of a directory hierarchy (``chattr +T``) and
    each iteration's directory gets a new random name: the allocator then
    places each one in a lightly used block group, starting its search at a
    hash of the name, and mostly away from the inodes just freed.  The previous
    iteration's directory is deleted when the next is made, outside the timed
    region.
    """

    FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000

    def __init__(self, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.topdir = self._mark_topdir(root)
        self.count = 0
        self.current: Optional[Path] = None

    @classmethod
    def _mark_topdir(cls, path: Path) -> bool:
        """Set the directory's top-of-hierarchy flag; False where the file
        system has no such flag."""
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
        try:
            flags = struct.unpack("i", fcntl.ioctl(fd, cls.FS_IOC_GETFLAGS, struct.pack("i", 0)))[0]
            fcntl.ioctl(fd, cls.FS_IOC_SETFLAGS, struct.pack("i", flags | cls.FS_TOPDIR_FL))
            return True
        except OSError:
            return False
        finally:
            os.close(fd)

    def fresh(self) -> Path:
        if self.current is not None:
            shutil.rmtree(self.current)
        self.count += 1
        self.current = self.root / f"iteration-{self.count}-{os.urandom(8).hex()}"
        self.current.mkdir()
        return self.current
