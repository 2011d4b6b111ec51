"""Command-line experiment harness.

Subcommands: analyze (baseline diagnostics to CSV), fit (ratio-curve fit),
run (baseline or cached generation), compare (blob metrics), sweep (ablation
axes to CSV).  A JSON config file can seed every option; explicit CLI flags
override their JSON counterparts, which override the built-in defaults.

Each run option is one ``ExperimentConfig`` field; its flag, type, ``--help``
default, config-file key and sweep-axis parser derive from the field, and
argparse and ``validate`` read one ``CHOICES``, so config files and flags are
checked alike.  ``validate`` builds the run's ``SortblockConfig`` for every
command (without reading the policy file), so the engine alone checks the
caching options' ranges, whichever command is given them; their defaults
are the engine's declarations too.

Exit codes: 0 success, 1 validation error (bad flags, bad config, malformed
input files), 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import blob
from .diffusion import NoiseSchedule, make_run, make_schedule, uniform_step_list
from .dit import DitConfig, init_network
from .engine import (PREDICT_MODES, RATIO_MODES, PolicySequence, SortblockConfig, inner_window, predicted_blocks,
                     run_sortblock)
from .errors import ConfigError, NonFiniteError, ParseError, SortblockError, checked, read_bytes, read_json, schema
from .metrics import latent_pair_to_images, psnr, relative_l2, ssim
from .ratio import (DEFAULT_DEGREE, FIT_DEGREES, fit_ratio_policy, fit_residual, load_policy, measure_l1_curve,
                    save_policy)
from .trace import oracle_similarities, ranking_fidelity, record_baseline, save_trace

# compare's --metrics names -> the report fields they select
KNOWN_METRICS = {"psnr": "psnr_db", "ssim": "ssim", "rel_l2": "relative_l2"}


@dataclass
class ExperimentConfig:
    """Everything a run needs; every field has a working default."""

    # model
    blocks: int = 12
    tokens: int = 64
    channels: int = 64
    mlp_ratio: int = 4
    model_seed: int = 0
    # schedule / sampler
    total_timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 2e-2
    steps: int = 50
    seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [0])
    # caching
    mode: str = "sortblock"
    refresh_interval: int = SortblockConfig.refresh_interval
    rho: float = SortblockConfig.rho
    beta: Optional[float] = field(default=None, metadata={"unset": "1.0 fixed, the policy's own adaptive"})
    ratio: str = SortblockConfig.ratio_mode
    predict: str = SortblockConfig.predict_mode
    window_high: Optional[int] = field(default=None, metadata={"unset": "inner 80% of steps"})
    window_low: Optional[int] = field(default=None, metadata={"unset": "inner 80% of steps"})
    policy_file: Optional[str] = None
    # io
    heavy_trace: bool = False
    out_dir: str = "out"

    def validate(self) -> None:
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be {'|'.join(allowed)}, got {getattr(self, name)!r}")
        if self.ratio == "adaptive" and not self.policy_file:
            raise ConfigError("adaptive ratio mode needs --policy-file")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        # constructor side effects double as validation; a fixed ratio checks
        # the caching options without the policy file, which ``fit`` may not
        # have written yet
        self.dit_config()
        self.schedule()
        self.step_list()
        dataclasses.replace(self, ratio="fixed").sortblock_config()

    def dit_config(self) -> DitConfig:
        return DitConfig(
            num_blocks=self.blocks,
            num_tokens=self.tokens,
            channels=self.channels,
            mlp_ratio=self.mlp_ratio,
            seed=self.model_seed,
        )

    def schedule(self) -> NoiseSchedule:
        return make_schedule(self.total_timesteps, self.beta_start, self.beta_end)

    def step_list(self) -> tuple[int, ...]:
        return uniform_step_list(self.total_timesteps, self.steps)

    def sortblock_config(self) -> SortblockConfig:
        if (self.window_high is None) != (self.window_low is None):
            raise ConfigError("give both --window-high and --window-low, or neither")
        if self.window_high is None:
            window = inner_window(self.step_list())
        else:
            window = (int(self.window_high), int(self.window_low))
        policy = None
        beta = self.beta
        if self.ratio == "adaptive":
            policy = load_policy(self.policy_file)
            if beta is None:
                beta = policy.beta  # unset beta: keep the fitted policy's scale
            elif beta != policy.beta:
                policy = dataclasses.replace(policy, beta=beta)
        elif beta is None:
            beta = SortblockConfig.beta
        return SortblockConfig(
            refresh_interval=self.refresh_interval,
            ratio_mode=self.ratio,
            rho=self.rho,
            ratio_policy=policy,
            beta=beta,
            window=window,
            predict_mode=self.predict,
        )

    def problem_hash(self) -> str:
        """Hash of the generation problem (model, schedule, sampler, seed) --
        deliberately excludes acceleration knobs, so an exact accelerated run
        produces a byte-identical blob."""
        ident = {name: getattr(self, name) for name in PROBLEM_FIELDS}
        digest = hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()
        return digest[:16]


# the fields that define the generation problem, which problem_hash reads
PROBLEM_FIELDS = ("blocks", "tokens", "channels", "mlp_ratio", "model_seed", "total_timesteps", "beta_start",
                  "beta_end", "steps", "seed")
# field -> the values it may take; argparse's choices and validate() read it
CHOICES = {"mode": ("baseline", "sortblock"), "ratio": RATIO_MODES, "predict": PREDICT_MODES}
_HINTS = typing.get_type_hints(ExperimentConfig)
_CONFIG_FIELDS = schema(_HINTS)


def _value_parser(name: str):
    """Field ``name``'s parser of one flag value: T for T or Optional[T], comma-separated T for list[T]."""
    hint = _HINTS[name]
    if typing.get_origin(hint) is typing.Union:
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return lambda text: [item(v) for v in text.split(",")]
    return hint


def load_config_file(path) -> dict:
    """The options a JSON config file sets: an object whose keys are
    ``ExperimentConfig`` fields, each optional and of its field's type."""
    doc = checked(path, read_json(path), {})
    unknown = doc.keys() - _CONFIG_FIELDS.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return checked(path, doc, {key: _CONFIG_FIELDS[key] for key in doc})


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# CSV helpers (all emitted CSVs round-trip: floats written via repr)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)  # float(): a numpy float64 is a float


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    blob.write_atomic(path, (text.getvalue().encode("utf-8"),))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    try:
        rows = list(csv.reader(io.StringIO(read_bytes(path).decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _parse_curve_csv(path) -> tuple[list[float], list[float]]:
    header, rows = read_csv(path)
    if header[:2] != ["step", "l1"]:
        raise ParseError(f"{path}: expected header 'step,l1', got {header}")
    ts, ys = [], []
    for lineno, row in enumerate(rows, start=2):
        try:
            t, y = float(row[0]), float(row[1])
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(y)):
            raise ParseError(f"{path}: line {lineno}: non-finite sample {row[0]},{row[1]}")
        ts.append(t)
        ys.append(y)
    return ts, ys


# ---------------------------------------------------------------------------
# commands


def _baseline_setup(cfg: ExperimentConfig, seed: int):
    net = init_network(cfg.dit_config())
    sched = cfg.schedule()
    run = make_run(sched, cfg.steps, seed, (cfg.tokens, cfg.channels))
    return net, sched, run


def cmd_analyze(cfg: ExperimentConfig) -> int:
    """Baseline diagnostics: consecutive-step L1 curve, per-block input/output
    profile, and (heavy mode) the offline oracle similarities."""
    if cfg.steps < 2:
        raise ConfigError("analyze needs --steps >= 2: the L1 curve compares consecutive steps")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net, sched, run = _baseline_setup(cfg, cfg.seed)
    trace = record_baseline(net, run, sched, heavy=cfg.heavy_trace, store_outputs=True)

    ts, l1 = measure_l1_curve(trace)
    write_csv(out / "l1_curve.csv", ["step", "l1"], list(zip(ts, l1)))

    profile_rows = [
        (rec.step, b, rec.delta_l1[b])
        for rec in trace.steps
        for b in range(len(rec.delta_l1))
    ]
    write_csv(out / "block_profile.csv", ["step", "block", "l1_in_out"], profile_rows)

    if cfg.heavy_trace:
        oracle_rows = []
        for s in range(len(trace.steps) - 1):
            sims = oracle_similarities(trace, s)
            oracle_rows.extend((s, b, sim) for b, sim in enumerate(sims))
        write_csv(out / "oracle_similarity.csv", ["step", "block", "similarity"], oracle_rows)

    first, last = l1[0], l1[-1]
    lo_q = int(0.15 * len(l1))
    middle = sorted(l1[lo_q : len(l1) - lo_q])
    mid_median = middle[len(middle) // 2]
    endpoints_higher = first > mid_median and last > mid_median
    print(
        f"l1 curve shape: first={first:.6g} last={last:.6g} "
        f"middle70%_median={mid_median:.6g} endpoints_higher={endpoints_higher}"
    )
    print(f"wrote {out / 'l1_curve.csv'} ({len(l1)} rows) and block_profile.csv")
    return 0


def cmd_fit(cfg: ExperimentConfig, curve_file: str, degree: int, beta: float) -> int:
    """Fit the recomputation-ratio polynomial from an l1_curve.csv."""
    ts, ys = _parse_curve_csv(curve_file)
    policy = fit_ratio_policy(ts, ys, degree=degree, beta=beta)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "ratio_policy.json"
    save_policy(policy, path)
    residual = fit_residual(policy, ts, ys)
    print(f"fitted degree-{degree} ratio policy; rms residual {residual:.6g}; wrote {path}")
    return 0


def cmd_run(cfg: ExperimentConfig) -> int:
    """One generation run; writes latent blob, trace, and summary."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net, sched, run = _baseline_setup(cfg, cfg.seed)
    baseline_evals = cfg.steps * cfg.blocks

    if cfg.mode == "baseline":
        trace = record_baseline(net, run, sched, heavy=cfg.heavy_trace)
        latent = trace.final_latent
    else:
        latent, trace = run_sortblock(net, run, sched, cfg.sortblock_config())

    blob.write_latent(out / "latent.bin", latent, cfg.seed, cfg.problem_hash())
    save_trace(trace, out / "trace")
    summary = {
        "mode": cfg.mode,
        "block_evals": trace.total_evals,
        "baseline_block_evals": baseline_evals,
        "speedup": baseline_evals / trace.total_evals,
        "prediction_events": sum(predicted_blocks(rec.phase, rec.flags) for rec in trace.steps),
        "wall_time_s": trace.wall_time_s,
        "problem_hash": cfg.problem_hash(),
    }
    blob.write_atomic(out / "summary.json", (json.dumps(summary, indent=1).encode("utf-8"),))
    print(
        f"evals={summary['block_evals']} baseline={baseline_evals} "
        f"speedup={baseline_evals}/{summary['block_evals']}={summary['speedup']:.4f} "
        f"predictions={summary['prediction_events']} wall={trace.wall_time_s:.3f}s"
    )
    return 0


def _fidelity(a, b) -> dict:
    """PSNR and SSIM of the latents' shared-scale images, and their relative
    L2; identical latents give exactly 100.0, 1.0 and 0.0."""
    img_a, img_b = latent_pair_to_images(a, b)
    return {"psnr_db": psnr(img_a, img_b), "ssim": ssim(img_a, img_b), "relative_l2": relative_l2(a, b)}


def cmd_compare(path_a: str, path_b: str, selected: Sequence[str], out_path: Optional[str]) -> int:
    """Metric report between two latent blobs."""
    a, header_a = blob.read_latent(path_a)
    b, header_b = blob.read_latent(path_b)
    report: dict = {
        "a": str(path_a),
        "b": str(path_b),
        "same_problem": header_a.get("config_hash") == header_b.get("config_hash"),
        "identical_files": Path(path_a).read_bytes() == Path(path_b).read_bytes(),
    }
    values = _fidelity(a, b)
    for name in selected:
        report[KNOWN_METRICS[name]] = values[KNOWN_METRICS[name]]
    text = json.dumps(report, indent=1)
    print(text)
    if out_path:
        blob.write_atomic(out_path, (text.encode("utf-8"),))
    return 0


# sweep axis -> the ExperimentConfig field it sets, whose type parses each
# value; the window axis sets window_high and window_low
SCALAR_AXES = {"K": "refresh_interval", "beta": "beta"}


def _parse_axis_values(axis: str, raw: str, step_list: Sequence[int]) -> list[tuple[object, dict]]:
    """``(label, fields)`` per value of ``--values``: the sweep.csv label and
    the ``ExperimentConfig`` fields the value sets."""
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("--values must list at least one value")
    split = max(1, math.ceil(0.3 * len(step_list)))
    stages = {"early-only": step_list[:split], "late-only": step_list[split:]}
    try:
        if axis in SCALAR_AXES:
            name, parse = SCALAR_AXES[axis], _value_parser(SCALAR_AXES[axis])
            return [(parse(tok), {name: parse(tok)}) for tok in tokens]
        values = []
        for tok in tokens:
            if tok in stages:
                if not stages[tok]:
                    raise ConfigError(f"window value {tok!r}: {len(step_list)} steps leave that stage empty")
                hi, lo = stages[tok][0], stages[tok][-1]
            elif ":" in tok:
                hi, lo = tok.split(":", 1)
            else:
                raise ConfigError(f"window value {tok!r}: use 'HI:LO', 'early-only' or 'late-only'")
            values.append((tok, {"window_high": int(hi), "window_low": int(lo)}))
        return values
    except ValueError as exc:
        raise ConfigError(f"bad --values for axis {axis}: {exc}") from exc


def cmd_sweep(cfg: ExperimentConfig, axis: str, raw_values: str) -> int:
    """One row per axis value: eval count, speedup, PSNR/SSIM vs baseline, and
    mean ranking-fidelity tau against the recorded oracle."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    configs = [
        (label, dataclasses.replace(cfg, **fields).sortblock_config())
        for label, fields in _parse_axis_values(axis, raw_values, cfg.step_list())
    ]
    sched = cfg.schedule()
    net = init_network(cfg.dit_config())
    baseline_evals = cfg.steps * cfg.blocks

    runs = {seed: make_run(sched, cfg.steps, seed, (cfg.tokens, cfg.channels)) for seed in cfg.seeds}
    baselines = {seed: record_baseline(net, run, sched, heavy=True) for seed, run in runs.items()}

    rows = []
    for label, sb_cfg in configs:
        evals = None
        psnrs, ssims, taus = [], [], []
        for seed in cfg.seeds:
            latent, trace = run_sortblock(net, runs[seed], sched, sb_cfg)
            if evals is None:
                evals = trace.total_evals
            elif evals != trace.total_evals:
                raise SortblockError("eval count varied across seeds for one config")
            base = baselines[seed]
            fidelity = _fidelity(latent, base.final_latent)
            psnrs.append(fidelity["psnr_db"])
            ssims.append(fidelity["ssim"])
            for rec in trace.steps:
                if rec.phase == "ranked" and rec.scores is not None:
                    oracle = oracle_similarities(base, rec.step - 1)
                    policy = PolicySequence(flags=rec.flags, scores=rec.scores)
                    taus.append(ranking_fidelity(policy, oracle))
        rows.append(
            (
                label,
                evals,
                baseline_evals / evals,
                float(np.mean(psnrs)),
                float(np.mean(ssims)),
                float(np.mean(taus)) if taus else float("nan"),
            )
        )

    rows.sort(key=lambda r: r[0])  # the labels of one axis are all numbers or all strings
    path = out / "sweep.csv"
    write_csv(
        path,
        [axis.lower(), "block_evals", "speedup", "psnr_db", "ssim", "mean_tau"],
        rows,
    )
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage/validation problems
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    for f in dataclasses.fields(ExperimentConfig):
        shown = f.metadata.get("unset", f.default_factory() if f.default is dataclasses.MISSING else f.default)
        parse = _value_parser(f.name)
        kind = {"action": "store_true"} if parse is bool else {"type": parse, "choices": CHOICES.get(f.name)}
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                            help=f"default: {shown}".replace("%", "%%"), **kind)


def make_parser() -> _Parser:
    parser = _Parser(prog="sortblock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="baseline diagnostics to CSV")
    _add_common(p_analyze)

    p_fit = sub.add_parser("fit", help="fit the ratio polynomial from an L1 curve")
    _add_common(p_fit)
    p_fit.add_argument("--curve", required=True, help="l1_curve.csv from analyze")
    p_fit.add_argument("--degree", type=int, choices=FIT_DEGREES, default=DEFAULT_DEGREE)

    p_run = sub.add_parser("run", help="baseline or cached generation run")
    _add_common(p_run)

    p_cmp = sub.add_parser("compare", help="metric report for two latent blobs")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_cmp.add_argument("--metrics", type=lambda s: [v for v in s.split(",") if v],
                       help=f"metric subset, comma-separated (default {','.join(KNOWN_METRICS)})")
    p_cmp.add_argument("--out", help="also write the JSON report here")

    p_sweep = sub.add_parser("sweep", help="ablation sweep over K, beta, or window")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=[*SCALAR_AXES, "window"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values; window accepts HI:LO, early-only, late-only")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compare":
            selected = args.metrics if args.metrics else list(KNOWN_METRICS)
            unknown = [m for m in selected if m not in KNOWN_METRICS]
            if unknown:
                raise ConfigError(f"unknown metrics {unknown}")
            return cmd_compare(args.a, args.b, selected, args.out)
        cfg = build_config(args)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.curve, args.degree, SortblockConfig.beta if cfg.beta is None else cfg.beta)
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_sweep(cfg, args.axis, args.values)
    except (ConfigError, NonFiniteError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SortblockError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
