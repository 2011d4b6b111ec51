"""sortblock benchmark: one named workload, closed loop, one process, one caller.

    python3 bench/run.py --workload {plain_sampler,cached_default,analyze_roundtrip}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from the checkout's
``src``.  ``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics (see README.md).  Human-readable lines come
first; the last line of standard output is the JSON result.  The full result
record (environment, sample counts, digests, failures) is written to
``bench/out/<workload>-seed<seed>-trace<t>.json``.  Exit code 0 means every
correctness check passed.

The end-to-end timings are rescaled to a nominal machine speed: a fixed
calibration kernel (``calibrate.py``) runs right before each timed iteration
and each cold start, and each time is scaled by the kernel's nominal time over
its time just then.  The wall times are kept in the record.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

# Pinned before numpy is imported (in main, and in every child process).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

POOL = 16  # latent i uses seed + (i mod POOL); every repeat is checked byte for byte
REFERENCE_SEED = 0  # fixed, so quality and digests are a function of the code alone
COLD_STARTS = 5
# Ten samples beyond the tail, which then lies at or above the median; and,
# being more than POOL, at least one repeated seed in every run.
MIN_TIMED = 21
MIN_TRACED = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("plain_sampler", "cached_default", "analyze_roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def cold_start() -> dict:
    """Import + init_network + make_schedule in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(probe["module"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"cold start imported {probe['module']}, not the checkout's package")
    return probe


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def per_call(fn, *args, repeat: int) -> float:
    """Median ns of ``repeat`` back-to-back calls."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter_ns()
        fn(*args)
        times.append(perf_counter_ns() - t0)
    return statistics.median(times)


class Bench:
    """One benchmark run.  ``sb``, ``blob``, ``wl`` and ``tr`` are the package,
    its blob module and the benchmark's workloads, tracing and calibration
    modules, which are imported only once the checkout's package is known to be
    importable."""

    def __init__(self, args, sb, blob, wl, tr, cal):
        self.args, self.sb, self.blob, self.wl, self.tr, self.cal = args, sb, blob, wl, tr, cal
        self.calibration = cal.Calibration()
        self.problem = problem = wl.Problem()
        self.tracer = tr.Tracer()
        self.workdir = OUT / f"work-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple[str, int], str] = {}
        self.metrics: dict[str, dict] = {}
        self.samples: dict[str, int] = {}
        self.detail: dict = {}
        self.workdirs = wl.Workdirs(self.workdir / "iterations")
        self.detail["workdir_topdir"] = self.workdirs.topdir
        self.runs = [problem.make_run(args.seed + i) for i in range(POOL)]
        self.iteration = 0  # of the timed loop, across its chunks

    def put(self, name: str, value, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.samples[name] = samples

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def execute(self, workload: str, run, span=None):
        """One checked iteration; returns (ns, outcome), ns None on failure."""
        wl = self.wl
        self.attempted += 1
        workdir = self.workdirs.fresh() if workload == "analyze_roundtrip" else None
        try:
            t0 = perf_counter_ns()
            out = wl.BODIES[workload](self.problem, run, workdir, span or wl.direct)
            ns = perf_counter_ns() - t0
        except Exception:  # a failed iteration is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{workload} seed {run.seed}: raised")
            return None, None
        problems = wl.check(self.problem, workload, run, out)
        digest = wl.latent_digest(out.latent)
        if self.digests.setdefault((workload, run.seed), digest) != digest:
            problems.append("a repeat on the same seed changed the latent bytes")
        if problems:
            self.fail(f"{workload} seed {run.seed}: " + "; ".join(problems))
            return None, out
        return ns, out

    def loop(self, workload: str, seconds: float, min_iterations: int):
        """Closed loop over the seed pool for ``seconds``; returns the wall
        latencies (ns), the calibration time (ns) measured right before each,
        and the block evals of the correct iterations."""
        latencies, refs, evals = [], [], []
        failed = False
        end = perf_counter() + seconds
        while perf_counter() < end or (len(latencies) < min_iterations and not failed):
            run = self.runs[self.iteration % POOL]
            self.iteration += 1
            ref = self.calibration()
            ns, out = self.execute(workload, run)
            if ns is None:
                failed = True
                continue
            latencies.append(ns)
            refs.append(ref)
            evals.append(out.evals)
        return latencies, refs, evals

    # -- sections ---------------------------------------------------------

    def references(self) -> None:
        """Full, cached and served latents of the fixed reference seed: quality,
        digests and the sample()/record_baseline() byte-identity check."""
        sb, wl, problem = self.sb, self.wl, self.problem
        run = problem.make_run(REFERENCE_SEED)
        _, full = self.execute("plain_sampler", run)
        _, cached = self.execute("cached_default", run)
        served = {"plain_sampler": full, "cached_default": cached}.get(self.args.workload)
        if served is None:
            _, served = self.execute(self.args.workload, run)
        self.attempted += 1
        recorded = sb.record_baseline(problem.net, run, problem.sched).final_latent
        if None in (full, cached, served):
            self.quality = None
            return
        if wl.latent_digest(recorded) != wl.latent_digest(full.latent):
            self.fail(f"sample() and record_baseline() differ on seed {REFERENCE_SEED}")
        self.quality = {
            "psnr_db_vs_full": sb.psnr(*sb.latent_pair_to_images(served.latent, full.latent)),
            "cached_rel_l2_vs_full": sb.relative_l2(cached.latent, full.latent),
        }
        self.detail["digests"] = {
            "seed": REFERENCE_SEED,
            "full_sha256": wl.latent_digest(full.latent),
            "cached_default_sha256": wl.latent_digest(cached.latent),
        }

    def end_to_end(self) -> None:
        self.references()
        self.execute(self.args.workload, self.runs[0])  # warm-up
        # The cold starts are spread over the run, between chunks of the timed
        # loop.  Every time is rescaled by the calibration run just before it.
        rescale = self.cal.rescale
        setup, setup_wall, wall, refs, lat, evals, rates = [], [], [], [], [], [], []
        for chunk in range(COLD_STARTS):
            ref = self.calibration()
            setup_wall.append(cold_start()["setup_s"])
            setup.append(rescale(setup_wall[-1], ref))
            last = chunk == COLD_STARTS - 1
            chunk_wall, chunk_refs, chunk_evals = self.loop(
                self.args.workload, self.args.seconds / COLD_STARTS, MIN_TIMED - len(lat) if last else 0)
            chunk_lat = [rescale(ns, r) for ns, r in zip(chunk_wall, chunk_refs)]
            wall += chunk_wall
            refs += chunk_refs
            lat += chunk_lat
            evals += chunk_evals
            if chunk_lat:
                rates.append(len(chunk_lat) * 1e9 / sum(chunk_lat))
        n = len(lat)
        if n < MIN_TIMED or self.quality is None:
            self.fail(f"only {n} correct timed iterations, or no reference latents")
            return
        # in loop order
        self.detail["latencies_ms"] = [ns / 1e6 for ns in lat]
        self.detail["wall_latencies_ms"] = [ns / 1e6 for ns in wall]
        self.detail["calibration_ms"] = [ns / 1e6 for ns in refs]
        self.detail["wall_latency_ms_p50"] = statistics.median(wall) / 1e6
        self.detail["wall_setup_s"] = statistics.median(setup_wall)
        self.detail["calibration_ms_p50"] = statistics.median(refs) / 1e6
        self.detail["latency_tail_percentile"] = 100.0 * (n - 10) / n
        lat = sorted(lat)
        self.put("latency_ms_p50", statistics.median(lat) / 1e6, "ms", n)
        self.put("latency_ms_tail", lat[n - 11] / 1e6, "ms", n)  # ten samples lie beyond it
        # per chunk, so that one slow spell of the machine moves one of the five
        self.put("throughput_per_s", statistics.median(rates), "1/s", n)
        self.put("eval_speedup", self.problem.full_evals / statistics.median(evals), "x", n)
        self.put("psnr_db_vs_full", self.quality["psnr_db_vs_full"], "dB", 1)
        self.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
        self.put("setup_s", statistics.median(setup), "s", len(setup))

    def traced_execute(self, workload: str, run, sink: dict) -> None:
        tracer = self.tracer
        with tracer.installed(self.problem.net):
            tracer.reset()
            ns, out = self.execute(workload, run, tracer.call)
        if ns is not None:
            sink[workload].append((ns, tracer.spans, out))

    def per_layer(self) -> None:
        sb, problem, args = self.sb, self.problem, self.args
        cold = [cold_start() for _ in range(COLD_STARTS)]
        self.put("dit.init_network_s", statistics.median(p["init_network_s"] for p in cold), "s", len(cold))
        self.references()
        self.probes()
        self.execute(args.workload, self.runs[0])  # warm-up

        # Each section alternates the order of what it compares, on the same
        # seed, so that slow phases of the machine hit both sides alike.
        # 1. the workload untraced and traced: tracing overhead, in-loop split
        untraced = []
        traced: dict[str, list] = {w: [] for w in self.wl.WORKLOADS}
        end = perf_counter() + args.seconds / 2
        k = 0
        while perf_counter() < end or k < MIN_TRACED:
            run = self.runs[k % POOL]
            for trace_it in ((False, True) if k % 2 == 0 else (True, False)):
                if trace_it:
                    self.traced_execute(args.workload, run, traced)
                else:
                    ns, _ = self.execute(args.workload, run)
                    if ns is not None:
                        untraced.append(ns)
            k += 1

        # 2. plain vs cached and sample vs heavy record_baseline, untraced;
        # then traced iterations of the workloads section 1 did not cover
        ratios, record_self = [], []
        others = [w for w in ("cached_default", "analyze_roundtrip") if w != args.workload]
        end = perf_counter() + args.seconds / 2
        k = 0
        while perf_counter() < end or k < MIN_TRACED:
            run = self.runs[k % POOL]
            order = ("plain_sampler", "cached_default") if k % 2 == 0 else ("cached_default", "plain_sampler")
            k += 1
            times = {w: self.execute(w, run)[0] for w in order}
            self.attempted += 1
            t0 = perf_counter_ns()
            recorded = sb.record_baseline(problem.net, run, problem.sched, heavy=True)
            rec_ns = perf_counter_ns() - t0
            if self.wl.latent_digest(recorded.final_latent) != self.digests.get(("plain_sampler", run.seed)):
                self.fail(f"record_baseline(heavy) and sample() differ on seed {run.seed}")
            if None not in times.values():
                ratios.append(times["plain_sampler"] / times["cached_default"])
                record_self.append(rec_ns - times["plain_sampler"])
            for w in others:
                self.traced_execute(w, run, traced)

        own = traced[args.workload]
        if not (untraced and own and ratios and traced["cached_default"] and traced["analyze_roundtrip"]
                and self.quality):
            self.fail("per-layer run has no correct iterations to summarise")
            return
        self.detail["latency_ms_p50_untraced"] = statistics.median(untraced) / 1e6
        self.detail["tracing_overhead_ms"] = (
            statistics.median(ns for ns, _, _ in own) - statistics.median(untraced)) / 1e6
        self.loop_metrics(own)
        self.engine_metrics(traced["cached_default"], ratios)
        self.analyze_metrics(traced["analyze_roundtrip"], record_self)

    def probes(self) -> None:
        """Per-call timings of stateless layer functions at the shapes one
        block uses (64x256 for the MLP activation, 64x64 otherwise)."""
        sb, problem = self.sb, self.problem
        rng = sb.Rng(self.args.seed)
        x64, y64 = sb.standard_normal(rng, 64, 64), sb.standard_normal(rng, 64, 64)
        x256 = sb.standard_normal(rng, 64, 256)
        entry = SimpleNamespace(value=x64, prev_value=y64, interval=5)  # what linear_predict reads
        img_a, img_b = sb.latent_pair_to_images(x64, y64)
        path = self.workdir / "probe.bin"
        path.parent.mkdir(parents=True, exist_ok=True)
        put = self.put
        put("numerics.gelu_us", per_call(sb.gelu, x256, repeat=400) / 1e3, "us", 400)
        put("numerics.layer_norm_us", per_call(sb.layer_norm, x64, repeat=400) / 1e3, "us", 400)
        put("numerics.softmax_rows_us", per_call(sb.softmax_rows, x64, repeat=400) / 1e3, "us", 400)
        put("numerics.standard_normal_ms",
            per_call(lambda: sb.standard_normal(sb.Rng(self.args.seed), 64, 64), repeat=40) / 1e6, "ms", 40)
        put("engine.cosine_similarity_us", per_call(sb.cosine_similarity, x64, y64, repeat=400) / 1e3,
            "us", 400)
        put("engine.linear_predict_us", per_call(sb.linear_predict, entry, 3, repeat=400) / 1e3, "us", 400)
        put("blob.write_latent_us", per_call(
            self.blob.write_latent, path, x64, 0, problem.problem_hash(0), repeat=200) / 1e3, "us", 200)
        put("blob.read_latent_us", per_call(self.blob.read_latent, path, repeat=200) / 1e3, "us", 200)
        put("metrics.psnr_us", per_call(sb.psnr, img_a, img_b, repeat=400) / 1e3, "us", 400)
        put("metrics.ssim_ms", per_call(sb.ssim, img_a, img_b, repeat=200) / 1e6, "ms", 200)

    def loop_metrics(self, own) -> None:
        tr, put = self.tr, self.put
        splits = [tr.loop_split(spans, ns) for ns, spans, _ in own]
        block = [d for s in splits for d in s["block_forward"]]
        ddim = [d for s in splits for d in s["ddim_step"]]
        put("dit.block_forward_us", tr.median(block) / 1e3, "us", len(block))
        put("dit.block_evals", tr.median([out.evals for _, _, out in own]), "count", len(own))
        put("dit.compute_share", tr.median([s["compute_share"] for s in splits]), "share", len(own))
        put("diffusion.sampler_self_ms", tr.median([s["sampler_self_ns"] for s in splits]) / 1e6,
            "ms", len(own))
        put("diffusion.ddim_step_us", tr.median(ddim) / 1e3, "us", len(ddim))

    def engine_metrics(self, cached, ratios) -> None:
        tr, put = self.tr, self.put
        n = len(cached)
        splits = [tr.engine_split(spans, ns) for ns, spans, _ in cached]
        sweep = [d for s in splits for d in s["rank_sweep"]]
        predict = [d for s in splits for d in s["predict"]]
        ranked_flags = ranked_slots = degenerate = 0
        for _, _, out in cached:
            for rec in out.run_trace.steps:
                degenerate += rec.degenerate_predictions
                if rec.phase == "ranked":
                    ranked_flags += sum(rec.flags)
                    ranked_slots += len(rec.flags)
        speedup = tr.median(ratios)
        eval_speedup = self.problem.full_evals / self.problem.cached_evals
        put("engine.self_ms", tr.median([s["self_ns"] for s in splits]) / 1e6, "ms", n)
        put("engine.overhead_share", tr.median([s["overhead_share"] for s in splits]), "share", n)
        put("engine.rank_sweep_us", tr.median(sweep) / 1e3, "us", len(sweep))
        put("engine.predict_us", tr.median(predict) / 1e3, "us", len(predict))
        put("engine.predictions", tr.median([s["predictions"] for s in splits]), "count", n)
        put("engine.degenerate_predictions", degenerate / n, "count", n)
        put("engine.ranked_waste_ratio", ranked_flags / ranked_slots, "share", n)
        put("engine.wall_speedup_paired", speedup, "x", len(ratios))
        put("engine.eval_wall_gap", eval_speedup / speedup, "x", len(ratios))
        put("engine.rel_l2_vs_full", self.quality["cached_rel_l2_vs_full"], "ratio", 1)

    def analyze_metrics(self, analyze, record_self) -> None:
        tr, put = self.tr, self.put
        n = len(analyze)
        splits = [tr.analyze_split(spans) for _, spans, _ in analyze]
        med = lambda key: tr.median([s[key] for s in splits]) / 1e6  # noqa: E731
        put("trace.record_self_ms", tr.median(record_self) / 1e6, "ms", len(record_self))
        put("trace.save_ms", med("trace.save"), "ms", n)
        put("trace.load_ms", med("trace.load"), "ms", n)
        put("trace.oracle_ms", med("trace.oracle"), "ms", n)
        put("trace.files_written", tr.median([out.extra["files"] for _, _, out in analyze]), "count", n)
        put("trace.bytes_written", tr.median([out.extra["bytes"] for _, _, out in analyze]), "bytes", n)
        put("ratio.measure_l1_curve_ms", med("ratio.measure_l1_curve"), "ms", n)
        put("ratio.fit_ms", med("ratio.fit"), "ms", n)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import sortblock
    except ImportError as exc:
        print(f"cannot import sortblock from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(sortblock.__file__).resolve().parent.parent != SRC:
        print(f"imported sortblock from {sortblock.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from sortblock import blob

    import calibrate
    import tracing
    import workloads

    bench = Bench(args, sortblock, blob, workloads, tracing, calibrate)
    try:
        if args.trace:
            bench.per_layer()
        else:
            bench.end_to_end()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    failed = len(bench.failures)
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": bench.metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(np), "samples": bench.samples,
        "failed_share": failed / max(bench.attempted, 1), "failures": bench.failures,
        **bench.detail, "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in bench.metrics.items():
        print(f"{name:32s} {m['value']:<14.6g} {m['unit']:6s} n={bench.samples[name]}")
    for key in ("latency_tail_percentile", "wall_latency_ms_p50", "wall_setup_s", "calibration_ms_p50",
                "tracing_overhead_ms"):
        if key in bench.detail:
            print(f"{key:32s} {bench.detail[key]:.6g}")
    print(f"failed_share {record['failed_share']:.6g} ({failed}/{bench.attempted}); record: {out_path}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
