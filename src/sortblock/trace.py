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

Serialization: scalar records go to a single JSON document, ``trace.json``;
heavy tensors go to raw little-endian float32 blobs next to it, one file per
tensor, described by a JSON sidecar, ``tensors.json``, listing {file, shape,
dtype, step, block, kind} per tensor.  Both JSON files are compact, with one
record per line: each step of ``trace.json``, each entry of the sidecar.
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
from .errors import ConfigError, MissingDataError, ParseError, ResourceError, checked, f32_nbytes, read_json, schema
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
    deltas: Optional[list[list[Matrix]]] = None  # [step][block] residual delta (heavy)
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


def estimate_heavy_bytes(num_steps: int, num_blocks: int, elements: int) -> int:
    # one delta per block per step plus one output per step, float32
    return num_steps * (num_blocks + 1) * elements * 4


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
        est = estimate_heavy_bytes(len(run.step_list), net.num_blocks, run.z_init.size)
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
    signal, available only offline)."""
    from .engine import cosine_similarity

    if not trace.heavy or trace.deltas is None:
        raise MissingDataError("oracle similarities need a heavy trace with stored deltas")
    if step < 0 or step + 1 >= len(trace.deltas):
        raise ConfigError(f"step {step} has no successor in the trace")
    return [
        cosine_similarity(a, b) for a, b in zip(trace.deltas[step], trace.deltas[step + 1])
    ]


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
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = []  # (file, array, step, block, kind)
    if trace.heavy and trace.deltas is not None:
        tensors += [(f"delta_s{s:04d}_b{b:03d}.f32", delta, s, b, "delta")
                    for s, per_block in enumerate(trace.deltas) for b, delta in enumerate(per_block)]
    if trace.outputs is not None:
        tensors += [(f"output_s{s:04d}.f32", out, s, None, "output") for s, out in enumerate(trace.outputs)]
    for fname, arr, *_ in tensors:
        _write_tensor(os.path.join(directory, fname), arr)
    doc = trace.to_dict()
    doc["stored_outputs"] = trace.outputs is not None
    steps = doc.pop("steps")  # one per line, then the other fields
    (directory / "trace.json").write_text('{"steps":' + _json_lines(steps) + "," + _dumps(doc)[1:])
    if tensors:
        (directory / "tensors.json").write_text(_json_lines(
            {"file": f, "shape": list(a.shape), "dtype": "f32le", "step": s, "block": b, "kind": k}
            for f, a, s, b, k in tensors
        ))


_dumps = json.JSONEncoder(separators=(",", ":")).encode  # compact, C-encoded (no indent)


def _json_lines(records) -> str:
    """A JSON array with one compact record per line."""
    return "[\n" + ",\n".join(map(_dumps, records)) + "\n]"


def _write_tensor(path: str, arr: Matrix) -> None:
    """``arr`` as raw little-endian float32 bytes (no copy when it already is
    contiguous ``<f4``)."""
    data = memoryview(np.ascontiguousarray(arr, "<f4").reshape(-1).view(np.uint8))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def load_trace(directory) -> RunTrace:
    """Read a trace written by ``save_trace``.  A ``trace.json`` or
    ``tensors.json`` that is not JSON, is truncated, or lacks a field or has
    one of the wrong type, a tensor entry with a negative step or block or a
    second entry for the same tensor, and a missing, unreadable or wrongly
    sized tensor file, raise ``ParseError`` naming the file."""
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
    sidecar_path = directory / "tensors.json"
    if sidecar_path.exists():
        sidecar = read_json(sidecar_path)
        if not isinstance(sidecar, list):
            raise ParseError(f"{sidecar_path}: expected a JSON array")
        deltas: dict[tuple[int, int], Matrix] = {}
        outputs: dict[tuple[int], Matrix] = {}
        for entry in sidecar:
            kind = entry.get("kind") if type(entry) is dict else None
            entry = checked(sidecar_path, entry, _DELTA_FIELDS if kind == "delta" else _TENSOR_FIELDS)
            name, shape, step = entry["file"], entry["shape"], entry["step"]
            if "/" in name or os.sep in name:
                raise ParseError(f"{sidecar_path}: tensor file {name!r} is not a plain file name")
            if kind not in ("delta", "output"):
                raise ParseError(f"{sidecar_path}: unknown tensor kind {kind!r}")
            table, key = (deltas, (step, entry["block"])) if kind == "delta" else (outputs, (step,))
            if min(key) < 0:
                raise ParseError(f"{sidecar_path}: {kind} tensor {name!r} has a negative step or block")
            if key in table:
                raise ParseError(f"{sidecar_path}: lists a second {kind} tensor for step/block {key}")
            table[key] = _read_tensor(os.path.join(directory, name), shape, f32_nbytes(sidecar_path, shape))
        try:
            if deltas:
                n_steps = max(s for s, _ in deltas) + 1
                n_blocks = max(b for _, b in deltas) + 1
                trace.deltas = [[deltas[(s, b)] for b in range(n_blocks)] for s in range(n_steps)]
            if outputs:
                trace.outputs = [outputs[(s,)] for s in range(max(outputs)[0] + 1)]
        except KeyError as exc:
            raise ParseError(f"{sidecar_path}: lists no tensor for step/block {exc.args[0]}") from None
    return trace


_TRACE_FIELDS = schema({"steps": list, "total_evals": int, "wall_time_s": float, "config": dict, "heavy": bool})
_STEP_FIELDS = schema(typing.get_type_hints(StepRecord))
_TENSOR_FIELDS = schema({"file": str, "shape": list[int], "kind": str, "step": int})
_DELTA_FIELDS = {**_TENSOR_FIELDS, **schema({"block": int})}


def _step_record(path: Path, r) -> StepRecord:
    if type(r) is dict:
        r.setdefault("degenerate_predictions", 0)  # StepRecord's default
    r = checked(path, r, _STEP_FIELDS)
    return StepRecord(**{key: r[key] for key in _STEP_FIELDS})


def _read_tensor(path: str, shape, nbytes: int) -> Matrix:
    """One raw little-endian float32 tensor file of ``nbytes`` bytes; a
    missing, unreadable or wrongly sized file raises ParseError naming it."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size != nbytes:
                raise ParseError(
                    f"{path}: holds {size} bytes, the sidecar gives shape {list(shape)} ({nbytes} bytes)"
                )
            arr = np.empty(shape, "<f4")
            view = memoryview(arr.reshape(-1).view(np.uint8))
            while view and (n := os.readv(fd, [view])):
                view = view[n:]
            if view:
                raise ParseError(f"{path}: shorter than its {nbytes} bytes")
        finally:
            os.close(fd)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read tensor file: {exc.strerror}") from exc
    return arr
