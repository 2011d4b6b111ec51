"""Run traces: per-step/per-block records of what the sampler did, plus the
offline oracle computed from replayed full-compute runs.

Every trace is written by the engine's block hook: ``record_baseline`` runs
the sampler with a ``SortblockEngine`` that has no config, so every step is
"full" and every block computed, through the same step records as a cached
run.

A light trace stores scalars only (delta norms, decisions, eval counts).  A
heavy trace additionally stores every block's residual delta and the model
output at every step, which is what the oracle and the L1-curve analysis
consume.  Heavy mode is guarded by a memory preflight so oversized configs
fail loudly instead of thrashing.

A heavy trace holds each step's deltas as one (blocks, tokens, channels)
float32 stack, the engine's own, copied once per step; iterating a stack
gives one block's delta at a time, as a list of per-block arrays does, and
every reader here takes either.

Serialization: scalar records go to one compact JSON document,
``trace.json``, one step record per line.  Tensors go next to it as raw
little-endian float32 files named by ``_tensor_file``.  They share one
shape, so ``tensors.json`` is a one-object header: {version, shape, steps,
blocks, outputs}, a steps x blocks grid of deltas (present exactly when the
trace is heavy) and an output for each of the first ``outputs`` steps.
Every saved trace has the header; a trace without tensors gets shape [] and
all counts 0.  A save that writes tensor files, or replaces a trace that
has some, removes the old header first and writes the new one last, so a save that fails part-way leaves a
directory that does not load, never a mix of two traces; once the new
header is in place, the tensor files only the old one named are removed.
The two JSON files are written atomically; the tensor files are not.  Save
and load each open the directory once and every tensor file relative to
that handle, and load reads a step's files into the rows of one stack.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .diffusion import NoiseSchedule, SamplerRun, sample
from .errors import (ConfigError, MissingDataError, ParseError, ResourceError, ShapeError, checked, f32_nbytes,
                     read_json, schema)
from .metrics import kendall_tau
from .numerics import Matrix

HEAVY_TRACE_BYTE_BUDGET = 512 * 2**20


@dataclass
class StepRecord:
    """One step; the engine creates it with the step, timestep and phase and
    fills in the rest once the step's last block is served."""

    step: int
    timestep: int
    phase: str  # full | ranked | follow | outside
    flags: list[int] = field(default_factory=list)  # 1 = block was recomputed this step
    scores: Optional[list[float]] = None  # similarity scores; ranked steps only
    delta_l1: list[float] = field(default_factory=list)  # mean |output - input| per block (served values)
    delta_l2: list[float] = field(default_factory=list)  # Frobenius norm of the served delta per block
    evals: int = 0  # block evaluations paid this step
    eval_total: int = 0  # running total after this step
    degenerate_predictions: int = 0  # predictions served as copies (single-compute cache)


@dataclass
class RunTrace:
    steps: list[StepRecord] = field(default_factory=list)
    total_evals: int = 0
    wall_time_s: float = 0.0
    config: dict = field(default_factory=dict)
    heavy: bool = False
    outputs: Optional[list[Matrix]] = None  # model output per step (heavy)
    # [step] (blocks, tokens, channels) float32 stack of residual deltas (heavy)
    deltas: Optional[list[np.ndarray]] = None
    final_latent: Optional[Matrix] = None  # set by the recording run, not serialized

    def ranked_flag_schedule(self) -> dict[int, list[int]]:
        """Recompute flags of every ranked step, keyed by step index.

        Feeding this to another run as a policy override replays the exact
        block selections (the trace-driven policy simulator).
        """
        return {r.step: list(r.flags) for r in self.steps if r.phase == "ranked"}

    def to_dict(self) -> dict:
        """The JSON document of the trace, minus the tensors; its step lists
        are copies (``config`` is not)."""
        return {
            "steps": [{**vars(r), "flags": list(r.flags), "scores": None if r.scores is None else list(r.scores),
                       "delta_l1": list(r.delta_l1), "delta_l2": list(r.delta_l2)} for r in self.steps],
            "total_evals": self.total_evals,
            "wall_time_s": self.wall_time_s,
            "config": self.config,
            "heavy": self.heavy,
        }


def served_delta_stats(stack: np.ndarray, work: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-block ``delta_l1`` and ``delta_l2`` of one step, from the step's
    (num_blocks, tokens*channels) float32 stack of served deltas.

    Bit for bit the per-block ``float(np.mean(np.abs(d)))`` and
    ``float(np.linalg.norm(d.astype(np.float64)))``: the float32 row sums are
    the same pairwise reductions ``np.mean`` makes, divided by the same count
    in float32, and ``np.linalg.norm`` squares a flat float64 vector with the
    same dot product (of |d| here, whose squares are those of d).

    Overwrites ``stack`` with its absolute values (the engine rewrites every
    row each step) and widens each row into ``work``, the caller's float64
    row of tokens*channels, so a step allocates nothing the size of a row.
    """
    np.abs(stack, out=stack)
    l1 = np.add.reduce(stack, axis=1) / stack.shape[1]
    l2 = []
    for row in stack:
        work[...] = row
        l2.append(math.sqrt(work @ work))
    return l1.tolist(), l2


def record_baseline(
    net,
    run: SamplerRun,
    sched: NoiseSchedule,
    heavy: bool = False,
    store_outputs: Optional[bool] = None,
) -> RunTrace:
    """Full-compute run through the sampler, recording a trace: the hook is a
    ``SortblockEngine`` without a config, which computes every block of every
    step (all labelled "full") and keeps no cache.

    ``store_outputs`` defaults to ``heavy``; the L1-curve analysis needs
    per-step model outputs, so cmd_analyze forces it on even in light mode.
    """
    if store_outputs is None:
        store_outputs = heavy
    if heavy:
        # one float32 delta per block per step plus one output per step
        est = len(run.step_list) * (net.num_blocks + 1) * run.z_init.size * 4
        if est > HEAVY_TRACE_BYTE_BUDGET:
            raise ResourceError(
                f"heavy trace would need ~{est / 2**20:.0f} MiB "
                f"(budget {HEAVY_TRACE_BYTE_BUDGET / 2**20:.0f} MiB)"
            )
    from .engine import SortblockEngine, sample_counted  # the engine module imports this one

    recorder = SortblockEngine(None, net.num_blocks, heavy=heavy, store_outputs=store_outputs)
    final = sample_counted(sample, net, run, sched, recorder)
    recorder.trace.config = {
        "mode": "baseline",
        "steps": len(run.step_list),
        "num_blocks": net.num_blocks,
        "seed": run.seed,
    }
    recorder.trace.final_latent = final
    return recorder.trace


def oracle_similarities(trace: RunTrace, step: int) -> list[float]:
    """Per-block cosine similarity between the true residual deltas at `step`
    and `step + 1` of a recorded full-compute run (the ideal-knowledge ranking
    signal, available only offline).

    Bit for bit ``engine.cosine_similarity`` of each block's pair: the two
    steps are widened to float64 a chunk of rows at a time, and each chunk
    is scored with three ``np.vecdot`` calls (a.b, a.a, b.b), which reach
    the same ``ddot`` as its dot products.  Each chunk buffer stays under
    128 KiB (the allocator rule in the ``numerics.py`` docstring)."""
    from .engine import _cosine

    if not trace.heavy or trace.deltas is None:
        raise MissingDataError("oracle similarities need a heavy trace with stored deltas")
    if step < 0 or step + 1 >= len(trace.deltas):
        raise ConfigError(f"step {step} has no successor in the trace")
    try:  # a step's stack as it is; a list of per-block deltas is stacked
        a, b = (np.asarray(trace.deltas[s]) for s in (step, step + 1))
        if a.ndim == 0 or a.shape != b.shape:
            raise ValueError
    except ValueError:  # also a list of deltas of several shapes
        raise ShapeError(f"steps {step} and {step + 1} do not hold one delta of one shape per block") from None
    blocks, n = len(a), math.prod(a.shape[1:])
    a, b = a.reshape(blocks, n), b.reshape(blocks, n)
    rows = max(1, (_CHUNK_BYTES - 1) // (8 * max(n, 1)))
    wa, wb = np.empty((min(rows, blocks), n)), np.empty((min(rows, blocks), n))
    ab, aa, bb = dots = np.empty((3, blocks))
    for i in range(0, blocks, rows):
        k = min(rows, blocks - i)
        ca, cb = wa[:k], wb[:k]
        np.copyto(ca, a[i:i + k])
        np.copyto(cb, b[i:i + k])
        np.vecdot(ca, cb, out=ab[i:i + k])
        np.vecdot(ca, ca, out=aa[i:i + k])
        np.vecdot(cb, cb, out=bb[i:i + k])
    return [_cosine(dot, math.sqrt(na2), math.sqrt(nb2)) for dot, na2, nb2 in zip(*dots.tolist())]


_CHUNK_BYTES = 128 * 2**10  # glibc's default mmap threshold; an oracle chunk buffer stays below it


def ranking_fidelity(predicted, oracle_scores) -> float:
    """Kendall tau between the ascending-score block orderings of a policy's
    predicted similarities and the oracle similarities.

    Orderings, not raw values: a proxy may be globally biased yet still rank
    blocks identically, and ranking is all the selector consumes.
    """
    pred_scores = np.asarray(predicted.scores, dtype=np.float64)
    oracle = np.asarray(oracle_scores, dtype=np.float64)
    if pred_scores.shape != oracle.shape:
        raise ConfigError("predicted and oracle score lists differ in length")
    order_pred = list(np.argsort(pred_scores, kind="stable"))
    order_oracle = list(np.argsort(oracle, kind="stable"))
    return kendall_tau([int(i) for i in order_pred], [int(i) for i in order_oracle])


def save_trace(trace: RunTrace, directory) -> None:
    """Write ``trace`` to ``directory``: ``trace.json``, the ``tensors.json``
    header and one file per tensor the header counts, each opened relative to
    one handle on the directory.  Over an earlier trace with tensors, or
    with tensors to write, the old header is removed before anything else is
    written, and the tensor files it named that the new one does not are
    removed once the new header is in place: a save that fails part-way
    leaves a directory ``load_trace`` refuses for its missing header, never
    a mix of two traces, and one that completes leaves no stale files.  A
    save without tensors over a trace without tensors replaces only the two
    JSON files, each atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    old_files = _header_files(directory / "tensors.json")
    deltas = trace.deltas if trace.heavy and trace.deltas else []
    outputs = trace.outputs or []
    files = {_tensor_file(s, b): a for s, stack in enumerate(deltas) for b, a in enumerate(stack)}
    files.update((_tensor_file(s), a) for s, a in enumerate(outputs))
    shape = next(iter(files.values())).shape if files else ()
    blocks = len(deltas[0]) if deltas else 0
    if any(a.shape != shape for a in files.values()) or any(len(stack) != blocks for stack in deltas):
        raise ShapeError("a trace's tensors must share one shape, and each step must hold one delta per block")
    dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        if files or old_files:  # no header may count tensor files this save writes or leaves stale
            _unlink("tensors.json", dir_fd)
        for fname, arr in files.items():  # raw <f4 bytes, not copied when arr already is contiguous <f4
            data = memoryview(np.ascontiguousarray(arr, "<f4").reshape(-1).view(np.uint8))
            fd = os.open(fname, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666, dir_fd=dir_fd)
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        from .blob import write_atomic  # imported on use: ``import sortblock`` does not load blob
        doc = trace.to_dict()
        steps = ",\n".join(map(_dumps, doc.pop("steps")))  # one per line, then the other fields
        write_atomic(directory / "trace.json", (('{"steps":[\n' + steps + "\n]," + _dumps(doc)[1:]).encode(),))
        header = {"version": TENSORS_VERSION, "shape": list(shape), "steps": len(deltas), "blocks": blocks,
                  "outputs": len(outputs)}
        write_atomic(directory / "tensors.json", (_dumps(header).encode(),))
        for fname in old_files - files.keys():
            _unlink(fname, dir_fd)
    finally:
        os.close(dir_fd)


def _unlink(name: str, dir_fd: int) -> None:
    try:
        os.unlink(name, dir_fd=dir_fd)
    except FileNotFoundError:
        pass


def _header_files(sidecar: Path) -> set[str]:
    """The tensor files the header ``sidecar`` names, or none if it is
    missing, is not a header of this version, or names more files than its
    directory holds (so a damaged count cannot stall the save)."""
    try:
        header = checked(sidecar, read_json(sidecar), _HEADER_FIELDS)
    except ParseError:
        return set()
    steps, blocks, outputs = header["steps"], header["blocks"], header["outputs"]
    if header["version"] != TENSORS_VERSION or steps * blocks + outputs > len(os.listdir(sidecar.parent)):
        return set()
    names = {_tensor_file(s, b) for s in range(steps) for b in range(blocks)}
    return names.union(_tensor_file(s) for s in range(outputs))


TENSORS_VERSION = 2  # 1 was an array of one entry per tensor


def _tensor_file(step: int, block: Optional[int] = None) -> str:
    """The file of block ``block``'s delta at ``step``, or of the step's
    model output when ``block`` is None."""
    return f"output_s{step:04d}.f32" if block is None else f"delta_s{step:04d}_b{block:03d}.f32"


_dumps = json.JSONEncoder(separators=(",", ":")).encode  # compact, C-encoded (no indent)


def load_trace(directory) -> RunTrace:
    """Read a trace written by ``save_trace``.  ParseError names the file at
    fault: a ``trace.json`` or ``tensors.json`` that is missing, is not JSON,
    or lacks a field or has one of the wrong type; a header of another
    version, with a negative count, or with deltas where ``trace.json`` says
    light (or none where it says heavy); a missing, unreadable or wrongly
    sized tensor file.  A light trace of the format before every trace had
    a header is refused for its missing ``tensors.json``."""
    directory = Path(directory)
    path = directory / "trace.json"
    doc = checked(path, read_json(path), _TRACE_FIELDS)
    trace = RunTrace(
        steps=[_step_record(path, r) for r in doc["steps"]],
        total_evals=doc["total_evals"],
        wall_time_s=doc["wall_time_s"],
        config=doc["config"],
        heavy=doc["heavy"],
    )
    sidecar = directory / "tensors.json"
    header = checked(sidecar, read_json(sidecar), {"version": _HEADER_FIELDS["version"]})
    if header["version"] != TENSORS_VERSION:
        raise ParseError(f"{sidecar}: version {header['version']}, expected {TENSORS_VERSION}")
    checked(sidecar, header, _HEADER_FIELDS)
    if min(header["steps"], header["blocks"], header["outputs"]) < 0:
        raise ParseError(f"{sidecar}: a negative tensor count")
    if (header["steps"] > 0) != trace.heavy:
        raise ParseError(f"{sidecar}: {header['steps']} steps of deltas, although {path} gives heavy={trace.heavy}")
    nbytes = f32_nbytes(sidecar, header["shape"])
    if trace.heavy or header["outputs"]:
        _read_tensors(trace, directory, header, nbytes)
    return trace


def _read_tensors(trace: RunTrace, directory: Path, header: dict, nbytes: int) -> None:
    """The tensors ``header`` counts, ``nbytes`` each, into ``trace``: each
    step's deltas into the rows of one stack, then the outputs.  Every file
    is opened relative to one handle on ``directory`` and read with one
    ``readv`` that ends in a 1-byte probe, which only a longer file fills; a
    file's size is looked up only to word the error.  Before the first
    allocation the header sizes, the last file it names must hold one
    tensor, so a count or a shape past the files fails as a missing or
    wrongly sized file."""
    sidecar = directory / "tensors.json"
    shape, steps, blocks, outputs = header["shape"], header["steps"], header["blocks"], header["outputs"]
    f32_nbytes(sidecar, [blocks, *shape])  # a step's stack
    probe = bytearray(1)

    def unreadable(name: str, exc: OSError) -> ParseError:
        return ParseError(f"{directory / name}: cannot read the tensor file {sidecar} names: {exc.strerror}")

    def wrong_size(name: str, size: int) -> ParseError:
        return ParseError(f"{directory / name}: holds {size} bytes, {sidecar} gives shape {list(shape)} "
                          f"({nbytes} bytes)")

    def read(name: str, into: np.ndarray) -> np.ndarray:
        view = memoryview(into.reshape(-1).view(np.uint8))
        try:
            fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
            try:
                got = os.readv(fd, [view, probe])
                while got < nbytes and (n := os.readv(fd, [view[got:], probe])):  # a short read
                    got += n
                if got != nbytes:
                    raise wrong_size(name, os.fstat(fd).st_size)
            finally:
                os.close(fd)
        except OSError as exc:
            raise unreadable(name, exc) from exc
        return into

    try:
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        raise ParseError(f"{directory}: cannot open the trace directory: {exc.strerror}") from exc
    try:
        if steps * blocks or outputs:
            last = _tensor_file(steps - 1, blocks - 1) if steps * blocks else _tensor_file(outputs - 1)
            try:
                size = os.stat(last, dir_fd=dir_fd).st_size
            except OSError as exc:
                raise unreadable(last, exc) from exc
            if size != nbytes:
                raise wrong_size(last, size)
        if trace.heavy:
            trace.deltas = []
            for s in range(steps):
                stack = np.empty((blocks, *shape), "<f4")
                for b, row in enumerate(stack):
                    read(_tensor_file(s, b), row)
                trace.deltas.append(stack)
        if outputs:
            trace.outputs = [read(_tensor_file(s), np.empty(shape, "<f4")) for s in range(outputs)]
    finally:
        os.close(dir_fd)


_TRACE_FIELDS = schema({"steps": list, "total_evals": int, "wall_time_s": float, "config": dict, "heavy": bool})
_STEP_FIELDS = schema(typing.get_type_hints(StepRecord))
_HEADER_FIELDS = schema({"version": int, "shape": list[int], "steps": int, "blocks": int, "outputs": int})


def _step_record(path: Path, r) -> StepRecord:
    if type(r) is dict:
        r.setdefault("degenerate_predictions", 0)  # StepRecord's default
    r = checked(path, r, _STEP_FIELDS)
    return StepRecord(**{key: r[key] for key in _STEP_FIELDS})
