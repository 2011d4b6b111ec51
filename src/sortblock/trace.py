"""Run traces: per-step/per-block records of what the sampler did, plus the
offline oracle computed from replayed full-compute runs.

A light trace stores scalars only (delta norms, decisions, eval counts).  A
heavy trace additionally stores every block's residual delta and the model
output at every step, which is what the oracle and the L1-curve analysis
consume.  Heavy mode is guarded by a memory preflight so oversized configs
fail loudly instead of thrashing.

Serialization: scalar records go to a single JSON document; heavy tensors go
to raw little-endian float32 blobs next to it, described by a JSON sidecar
listing {file, shape, dtype, step, block, kind} per tensor.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .diffusion import NoiseSchedule, SamplerRun, sample
from .errors import ConfigError, MissingDataError, ParseError, ResourceError
from .metrics import kendall_tau
from .numerics import Matrix

HEAVY_TRACE_BYTE_BUDGET = 512 * 2**20


@dataclass
class StepRecord:
    step: int
    timestep: int
    phase: str  # full | ranked | follow | outside
    flags: list[int]  # 1 = block was recomputed this step
    scores: Optional[list[float]]  # similarity scores; ranked steps only
    delta_l1: list[float]  # mean |output - input| per block (served values)
    delta_l2: list[float]  # Frobenius norm of the served delta per block
    evals: int  # block evaluations paid this step
    eval_total: int  # running total after this step
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
        return {
            "steps": [asdict(r) for r in self.steps],
            "total_evals": self.total_evals,
            "wall_time_s": self.wall_time_s,
            "config": self.config,
            "heavy": self.heavy,
        }


def served_delta_stats(stack: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-block ``delta_l1`` and ``delta_l2`` of one step, from the step's
    (num_blocks, tokens*channels) float32 stack of served deltas.

    Bit for bit the per-block ``float(np.mean(np.abs(d)))`` and
    ``float(np.linalg.norm(d.astype(np.float64)))``: the float32 row sums are
    the same pairwise reductions ``np.mean`` makes, divided by the same count
    in float32, and ``np.linalg.norm`` squares a flat float64 vector with the
    same dot product (of |d| here, whose squares are those of d).

    Overwrites ``stack`` with its absolute values (its owners rewrite every
    row each step), so a step allocates nothing the size of the stack.
    """
    np.abs(stack, out=stack)
    l1 = np.add.reduce(stack, axis=1) / stack.shape[1]
    l2 = []
    for row in stack:
        wide = row.astype(np.float64)
        l2.append(math.sqrt(wide @ wide))
    return l1.tolist(), l2


class _BaselineRecorder:
    """Hook that computes every block and records the trace."""

    def __init__(self, num_blocks: int, heavy: bool, store_outputs: bool):
        self.num_blocks = num_blocks
        self.heavy = heavy
        self.store_outputs = store_outputs
        self.trace = RunTrace(heavy=heavy)
        if heavy:
            self.trace.deltas = []
        if store_outputs:
            self.trace.outputs = []
        self._step = -1
        self._t = -1
        self._record: Optional[StepRecord] = None
        self._served: Optional[np.ndarray] = None  # this step's deltas, one row per block

    def begin_step(self, step_index: int, t: int) -> None:
        self._step = step_index
        self._t = int(t)

    def __call__(self, index: int, x: Matrix, compute) -> Matrix:
        if index == 0:
            self._record = StepRecord(
                step=self._step,
                timestep=self._t,
                phase="full",
                flags=[1] * self.num_blocks,
                scores=None,
                delta_l1=[],
                delta_l2=[],
                evals=0,
                eval_total=0,
            )
            self.trace.steps.append(self._record)
            if self.heavy:
                self.trace.deltas.append([])
            if self._served is None:
                self._served = np.empty((self.num_blocks, x.size), dtype=np.float32)
        io = compute()
        rec = self._record
        rec.evals += 1
        self._served[index] = io.delta.reshape(-1)
        if self.heavy:
            self.trace.deltas[-1].append(io.delta)
        if index == self.num_blocks - 1:
            rec.delta_l1, rec.delta_l2 = served_delta_stats(self._served)
            self.trace.total_evals += rec.evals
            rec.eval_total = self.trace.total_evals
            if self.store_outputs:
                self.trace.outputs.append(io.output)
        return io.output


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
    """Full-compute run through the sampler, recording a trace.

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
    recorder = _BaselineRecorder(net.num_blocks, heavy, store_outputs)
    t0 = time.perf_counter()
    final = sample(net, run, sched, hooks=recorder)
    recorder.trace.wall_time_s = time.perf_counter() - t0
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
    sidecar = []
    if trace.heavy and trace.deltas is not None:
        for s, per_block in enumerate(trace.deltas):
            for b, delta in enumerate(per_block):
                fname = f"delta_s{s:04d}_b{b:03d}.f32"
                delta.astype("<f4").tofile(directory / fname)
                sidecar.append(
                    {"file": fname, "shape": list(delta.shape), "dtype": "f32le",
                     "step": s, "block": b, "kind": "delta"}
                )
    if trace.outputs is not None:
        for s, out in enumerate(trace.outputs):
            fname = f"output_s{s:04d}.f32"
            out.astype("<f4").tofile(directory / fname)
            sidecar.append(
                {"file": fname, "shape": list(out.shape), "dtype": "f32le",
                 "step": s, "block": None, "kind": "output"}
            )
    doc = trace.to_dict()
    doc["stored_outputs"] = trace.outputs is not None
    (directory / "trace.json").write_text(json.dumps(doc, indent=1))
    if sidecar:
        (directory / "tensors.json").write_text(json.dumps(sidecar, indent=1))


def load_trace(directory) -> RunTrace:
    """Read a trace written by ``save_trace``.  A ``trace.json`` or
    ``tensors.json`` that is not JSON, is truncated, or lacks a field or has
    one of the wrong type, and a missing or wrongly sized tensor file, raise
    ``ParseError`` naming the file."""
    directory = Path(directory)
    path = directory / "trace.json"
    doc = _checked(path, _read_json(path), _TRACE_FIELDS)
    trace = RunTrace(
        steps=[_step_record(path, r) for r in doc["steps"]],
        total_evals=doc["total_evals"],
        wall_time_s=doc["wall_time_s"],
        config=doc["config"],
        heavy=doc["heavy"],
    )
    sidecar_path = directory / "tensors.json"
    if sidecar_path.exists():
        sidecar = _read_json(sidecar_path)
        if not isinstance(sidecar, list):
            raise ParseError(f"{sidecar_path}: expected a JSON array")
        deltas: dict[tuple[int, int], Matrix] = {}
        outputs: dict[int, Matrix] = {}
        for entry in sidecar:
            kind = entry.get("kind") if type(entry) is dict else None
            entry = _checked(sidecar_path, entry, _DELTA_FIELDS if kind == "delta" else _TENSOR_FIELDS)
            name, shape, step = entry["file"], entry["shape"], entry["step"]
            if "/" in name or os.sep in name:
                raise ParseError(f"{sidecar_path}: tensor file {name!r} is not a plain file name")
            if kind not in ("delta", "output"):
                raise ParseError(f"{sidecar_path}: unknown tensor kind {kind!r}")
            if min(shape, default=0) < 0:
                raise ParseError(f"{sidecar_path}: negative dimension in shape {shape}")
            arr = _read_tensor(directory / name, shape)
            if kind == "delta":
                deltas[(step, entry["block"])] = arr
            else:
                outputs[step] = arr
        try:
            if deltas:
                n_steps = max(s for s, _ in deltas) + 1
                n_blocks = max(b for _, b in deltas) + 1
                trace.deltas = [[deltas[(s, b)] for b in range(n_blocks)] for s in range(n_steps)]
            if outputs:
                trace.outputs = [outputs[s] for s in range(max(outputs) + 1)]
        except KeyError as exc:
            raise ParseError(f"{sidecar_path}: lists no tensor for step/block {exc.args[0]}") from None
    return trace


# the fields load_trace reads, with their JSON types (exact: bool is not a
# number here), and the item types of the list fields
_NUMBER = (int, float)
_TRACE_FIELDS = {"steps": (list,), "total_evals": (int,), "wall_time_s": _NUMBER, "config": (dict,),
                 "heavy": (bool,)}
_STEP_FIELDS = {"step": (int,), "timestep": (int,), "phase": (str,), "flags": (list,),
                "scores": (list, type(None)), "delta_l1": (list,), "delta_l2": (list,),
                "evals": (int,), "eval_total": (int,), "degenerate_predictions": (int,)}
_TENSOR_FIELDS = {"file": (str,), "shape": (list,), "kind": (str,), "step": (int,)}
_DELTA_FIELDS = {**_TENSOR_FIELDS, "block": (int,)}
_LIST_ITEMS = {"flags": (int,), "scores": _NUMBER, "delta_l1": _NUMBER, "delta_l2": _NUMBER,
               "shape": (int,)}


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _checked(path: Path, doc, fields: dict) -> dict:
    """``doc``, which must be a JSON object with every key of ``fields``, each
    value of its type; otherwise ParseError naming ``path``."""
    if type(doc) is not dict:
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key, types in fields.items():
        if key not in doc:
            raise ParseError(f"{path}: missing field {key!r}")
        value = doc[key]
        if type(value) not in types or (
            type(value) is list and key in _LIST_ITEMS
            and not all(type(v) in _LIST_ITEMS[key] for v in value)
        ):
            raise ParseError(f"{path}: field {key!r} has the wrong type")
    return doc


def _step_record(path: Path, r) -> StepRecord:
    if type(r) is dict:
        r.setdefault("degenerate_predictions", 0)  # StepRecord's default
    r = _checked(path, r, _STEP_FIELDS)
    return StepRecord(**{key: r[key] for key in _STEP_FIELDS})


def _read_tensor(path: Path, shape) -> Matrix:
    """One raw little-endian float32 tensor file of a heavy trace; a missing,
    unreadable or wrongly sized file raises ParseError naming it."""
    try:
        arr = np.fromfile(path, dtype="<f4")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read tensor file: {exc.strerror}") from exc
    if arr.size != math.prod(shape):
        raise ParseError(
            f"{path}: holds {arr.size} float32 values, the sidecar gives shape {list(shape)}"
        )
    return arr.reshape(shape)
