import argparse
import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from sortblock import blob, cli
from sortblock.cli import (
    PROBLEM_FIELDS,
    ExperimentConfig,
    build_config,
    main,
    make_parser,
    read_csv,
    write_csv,
)


def _run_main(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def analyze_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    rc = _run_main(["analyze", "--out-dir", out, "--heavy-trace"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def baseline_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline_run")
    rc = _run_main(["run", "--mode", "baseline", "--out-dir", out])
    assert rc == 0
    return out


class TestAnalyze:
    def test_csv_row_counts(self, analyze_dir):
        header, rows = read_csv(analyze_dir / "l1_curve.csv")
        assert header == ["step", "l1"]
        assert len(rows) == 49
        header, rows = read_csv(analyze_dir / "block_profile.csv")
        assert header == ["step", "block", "l1_in_out"]
        assert len(rows) == 50 * 12
        header, rows = read_csv(analyze_dir / "oracle_similarity.csv")
        assert header == ["step", "block", "similarity"]
        assert len(rows) == 49 * 12

    def test_deterministic_bytes(self, analyze_dir, tmp_path):
        rc = _run_main(["analyze", "--out-dir", tmp_path, "--heavy-trace"])
        assert rc == 0
        for name in ("l1_curve.csv", "block_profile.csv", "oracle_similarity.csv"):
            assert (tmp_path / name).read_bytes() == (analyze_dir / name).read_bytes()

    def test_shape_report_printed(self, tmp_path, capsys):
        rc = _run_main(["analyze", "--out-dir", tmp_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "l1 curve shape:" in out
        assert "endpoints_higher=" in out

    def test_light_mode_skips_oracle_csv(self, tmp_path):
        rc = _run_main(["analyze", "--out-dir", tmp_path])
        assert rc == 0
        assert (tmp_path / "l1_curve.csv").exists()
        assert not (tmp_path / "oracle_similarity.csv").exists()

    def test_one_step_is_a_config_error(self, tmp_path, capsys):
        rc = _run_main(["analyze", "--steps", "1", "--window-high", "999", "--window-low", "0", "--out-dir", tmp_path])
        assert rc == 1
        assert capsys.readouterr().err == "error: analyze needs --steps >= 2: the L1 curve compares consecutive steps\n"
        assert not list(tmp_path.iterdir())  # refused before any sampling or output


def _assert_unreadable_input(capsys, path):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}") and "Is a directory" in lines[0]


class TestFit:
    def test_invalid_degree_rejected_with_usage(self, analyze_dir, tmp_path, capsys):
        rc = _run_main(
            ["fit", "--curve", analyze_dir / "l1_curve.csv", "--degree", "7", "--out-dir", tmp_path]
        )
        assert rc == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_curve_file(self, tmp_path):
        rc = _run_main(["fit", "--curve", tmp_path / "nope.csv", "--out-dir", tmp_path])
        assert rc == 1

    def test_directory_as_curve_file(self, tmp_path, capsys):
        assert _run_main(["fit", "--curve", tmp_path, "--out-dir", tmp_path / "out"]) == 1
        _assert_unreadable_input(capsys, tmp_path)

    def test_synthetic_polynomial_curve_recovery(self, tmp_path):
        us = np.linspace(0.0, 1.0, 20)
        ys = 0.05 + 0.9 * us**2  # min-max normalization keeps it polynomial
        ts = 100 + 800 * us
        write_csv(tmp_path / "curve.csv", ["step", "l1"], list(zip(ts, ys)))
        rc = _run_main(
            ["fit", "--curve", tmp_path / "curve.csv", "--degree", "3", "--out-dir", tmp_path]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "ratio_policy.json").read_text())
        # normalized target is u^2 exactly
        assert np.allclose(doc["coefficients"], [0.0, 0.0, 1.0, 0.0], atol=1e-6)
        assert doc["t_min"] == 100.0 and doc["t_max"] == 900.0

    def test_degree5_residual_not_worse_than_degree3(self, analyze_dir, tmp_path, capsys):
        residuals = {}
        for degree in (3, 5):
            rc = _run_main(
                ["fit", "--curve", analyze_dir / "l1_curve.csv", "--degree", degree,
                 "--out-dir", tmp_path / f"d{degree}"]
            )
            assert rc == 0
            line = capsys.readouterr().out
            residuals[degree] = float(line.split("rms residual ")[1].split(";")[0])
        assert residuals[5] <= residuals[3] + 1e-12

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_curve_sample_exits_1(self, tmp_path, capsys, bad):
        """A curve with a non-finite sample would fit all-NaN coefficients,
        which turn recomputation off; fit names the line and writes no
        policy."""
        rows = [(100 * i, 0.1 * i) for i in range(1, 9)]
        rows[3] = (400, bad)
        (tmp_path / "curve.csv").write_text("step,l1\n" + "".join(f"{t},{y}\n" for t, y in rows))
        rc = _run_main(["fit", "--curve", tmp_path / "curve.csv", "--degree", "3", "--out-dir", tmp_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "curve.csv: line 5" in err and "Traceback" not in err
        assert not (tmp_path / "ratio_policy.json").exists()

    def test_malformed_csv_line_number(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("step,l1\n1.0,2.0\noops,not-a-number\n")
        rc = _run_main(["fit", "--curve", tmp_path / "bad.csv", "--out-dir", tmp_path])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err


class TestRun:
    def test_baseline_speedup_is_one(self, baseline_run_dir):
        summary = json.loads((baseline_run_dir / "summary.json").read_text())
        assert summary["block_evals"] == 600
        assert summary["speedup"] == 1.0

    def test_rho_one_blob_byte_identical_to_baseline(self, baseline_run_dir, tmp_path):
        rc = _run_main(["run", "--mode", "sortblock", "--rho", "1.0", "--out-dir", tmp_path])
        assert rc == 0
        assert (tmp_path / "latent.bin").read_bytes() == (baseline_run_dir / "latent.bin").read_bytes()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["speedup"] == 1.0
        assert summary["prediction_events"] > 0  # overhead reported separately

    def test_default_sortblock_accounting(self, tmp_path, capsys):
        rc = _run_main(["run", "--mode", "sortblock", "--out-dir", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["block_evals"] == 344
        assert summary["speedup"] == 600 / 344
        assert summary["speedup"] >= 1.7
        out = capsys.readouterr().out
        assert "speedup=600/344=" in out

    def test_trace_json_written(self, baseline_run_dir):
        doc = json.loads((baseline_run_dir / "trace" / "trace.json").read_text())
        assert doc["total_evals"] == 600
        assert len(doc["steps"]) == 50


DEFAULT_PROBLEM_HASH = "a6dee97077a18531"
# a non-default value for every field that is not part of the generation problem
ACCELERATION_CHANGES = {
    "mode": "baseline", "refresh_interval": 3, "rho": 0.5, "beta": 0.5, "ratio": "adaptive", "predict": "copy",
    "window_high": 800, "window_low": 200, "policy_file": "p.json", "heavy_trace": True, "out_dir": "elsewhere",
    "seeds": [1, 2],
}


class TestProblemHash:
    def test_defaults_are_pinned(self):
        assert ExperimentConfig().problem_hash() == DEFAULT_PROBLEM_HASH

    def test_every_field_is_problem_or_acceleration(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(PROBLEM_FIELDS) | set(ACCELERATION_CHANGES) == names
        assert not set(PROBLEM_FIELDS) & set(ACCELERATION_CHANGES)

    @pytest.mark.parametrize("name", sorted(ACCELERATION_CHANGES))
    def test_acceleration_field_leaves_hash(self, name):
        cfg = dataclasses.replace(ExperimentConfig(), **{name: ACCELERATION_CHANGES[name]})
        assert cfg.problem_hash() == DEFAULT_PROBLEM_HASH

    @pytest.mark.parametrize("name", PROBLEM_FIELDS)
    def test_problem_field_changes_hash(self, name):
        cfg = ExperimentConfig()
        changed = dataclasses.replace(cfg, **{name: getattr(cfg, name) + 1})
        assert changed.problem_hash() != DEFAULT_PROBLEM_HASH

    def test_latent_header_carries_the_hash(self, baseline_run_dir):
        _, header = blob.read_latent(baseline_run_dir / "latent.bin")
        summary = json.loads((baseline_run_dir / "summary.json").read_text())
        assert header["config_hash"] == summary["problem_hash"] == DEFAULT_PROBLEM_HASH


class TestAtomicWrites:
    @pytest.mark.parametrize("stubbed", [("write_latent",), ("write_latent", "save_trace")],
                             ids=["trace.json", "summary.json"])
    def test_failed_run_keeps_earlier_files(self, tmp_path, monkeypatch, write_failing_part_way, stubbed):
        """With the latent write (and the trace save) stubbed out, the first
        write of a second run is trace.json (or summary.json); it fails part
        way, and every file of the first run is as it was."""
        argv = ["run", "--mode", "baseline", "--steps", 4, "--blocks", 2, "--out-dir", tmp_path]
        assert _run_main(argv) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert {p.name for p in before} == {"latent.bin", "trace.json", "tensors.json", "summary.json"}
        with monkeypatch.context() as m:
            m.setattr(blob, "write_latent", lambda *args: None)
            if "save_trace" in stubbed:
                m.setattr(cli, "save_trace", lambda *args: None)
            m.setattr(os, "write", write_failing_part_way)
            assert _run_main(argv) == 2  # an OSError is a runtime error
        after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before  # no temporary left, nothing torn

    def test_failed_csv_write_keeps_old_file(self, tmp_path, monkeypatch, write_failing_part_way):
        path = tmp_path / "x.csv"
        write_csv(path, ["i"], [(1,)])
        with monkeypatch.context() as m:
            m.setattr(os, "write", write_failing_part_way)
            with pytest.raises(OSError, match="No space left"):
                write_csv(path, ["i"], [(2,), (3,)])
        assert path.read_bytes() == b"i\r\n1\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


class TestCompare:
    def test_self_compare_caps(self, baseline_run_dir, tmp_path, capsys):
        rc = _run_main(
            ["compare", "--a", baseline_run_dir / "latent.bin", "--b", baseline_run_dir / "latent.bin"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["psnr_db"] == 100.0
        assert report["ssim"] == 1.0
        assert report["relative_l2"] == 0.0
        assert report["identical_files"] is True

    def test_directory_as_latent(self, tmp_path, capsys):
        assert _run_main(["compare", "--a", tmp_path, "--b", tmp_path]) == 1
        _assert_unreadable_input(capsys, tmp_path)

    def test_baseline_vs_rho_one_short_circuit(self, baseline_run_dir, tmp_path, capsys):
        rc = _run_main(["run", "--mode", "sortblock", "--rho", "1.0", "--out-dir", tmp_path])
        assert rc == 0
        rc = _run_main(
            ["compare", "--a", baseline_run_dir / "latent.bin", "--b", tmp_path / "latent.bin",
             "--out", tmp_path / "report.json"]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["identical_files"] is True
        assert report["same_problem"] is True
        assert report["psnr_db"] == 100.0

    def test_cached_vs_baseline_report(self, baseline_run_dir, tmp_path, capsys):
        rc = _run_main(["run", "--mode", "sortblock", "--out-dir", tmp_path])
        assert rc == 0
        capsys.readouterr()  # drop the run summary line
        rc = _run_main(
            ["compare", "--a", tmp_path / "latent.bin", "--b", baseline_run_dir / "latent.bin"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 < report["relative_l2"] < 1.0
        assert report["psnr_db"] > 20.0
        assert 0.0 < report["ssim"] <= 1.0


class TestMultiSeedCompare:
    def test_per_seed_and_mean_report(self, tmp_path, capsys):
        # paired baseline/cached comparisons across seeds, aggregated
        per_seed = []
        for seed in range(3):
            base_dir = tmp_path / f"b{seed}"
            fast_dir = tmp_path / f"f{seed}"
            assert _run_main(["run", "--mode", "baseline", "--seed", seed, "--out-dir", base_dir]) == 0
            assert _run_main(["run", "--mode", "sortblock", "--seed", seed, "--out-dir", fast_dir]) == 0
            capsys.readouterr()
            rc = _run_main(["compare", "--a", fast_dir / "latent.bin", "--b", base_dir / "latent.bin"])
            assert rc == 0
            per_seed.append(json.loads(capsys.readouterr().out))
        psnrs = [r["psnr_db"] for r in per_seed]
        ssims = [r["ssim"] for r in per_seed]
        print(f"per-seed psnr={[round(p, 2) for p in psnrs]} mean={sum(psnrs)/len(psnrs):.2f}")
        print(f"per-seed ssim={[round(s, 4) for s in ssims]} mean={sum(ssims)/len(ssims):.4f}")
        assert all(p > 20.0 for p in psnrs)
        assert all(0.0 < s <= 1.0 for s in ssims)


class TestPredictModeSwitch:
    def test_copy_mode_runs_and_differs(self, tmp_path):
        lin_dir, copy_dir = tmp_path / "lin", tmp_path / "copy"
        assert _run_main(["run", "--mode", "sortblock", "--predict", "linear", "--out-dir", lin_dir]) == 0
        assert _run_main(["run", "--mode", "sortblock", "--predict", "copy", "--out-dir", copy_dir]) == 0
        a, _ = blob.read_latent(lin_dir / "latent.bin")
        b, _ = blob.read_latent(copy_dir / "latent.bin")
        assert not np.array_equal(a, b)
        lin_sum = json.loads((lin_dir / "summary.json").read_text())
        copy_sum = json.loads((copy_dir / "summary.json").read_text())
        assert lin_sum["block_evals"] == copy_sum["block_evals"]  # same lifecycle cost


class TestSweep:
    def test_k_sweep_speedup_non_decreasing(self, tmp_path):
        rc = _run_main(["sweep", "--axis", "K", "--values", "3,5,9", "--out-dir", tmp_path])
        assert rc == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["k", "block_evals", "speedup", "psnr_db", "ssim", "mean_tau"]
        speedups = [float(r[2]) for r in rows]
        assert speedups == sorted(speedups)
        evals = [int(r[1]) for r in rows]
        assert evals == sorted(evals, reverse=True)

    def test_adaptive_run_keeps_policy_beta_when_unset(self, analyze_dir, tmp_path, capsys):
        rc = _run_main(
            ["fit", "--curve", analyze_dir / "l1_curve.csv", "--degree", "5", "--beta", "0.5",
             "--out-dir", tmp_path]
        )
        assert rc == 0
        for beta_flags, key in ((["--beta", "1.0"], "explicit"), ([], "unset")):
            rc = _run_main(
                ["run", "--mode", "sortblock", "--ratio", "adaptive",
                 "--policy-file", tmp_path / "ratio_policy.json",
                 "--out-dir", tmp_path / key, *beta_flags]
            )
            assert rc == 0
        explicit = json.loads((tmp_path / "explicit" / "summary.json").read_text())
        unset = json.loads((tmp_path / "unset" / "summary.json").read_text())
        # unset beta keeps the fitted 0.5 scale; explicit 1.0 recomputes more
        assert unset["block_evals"] < explicit["block_evals"]

    def test_beta_sweep_evals_non_decreasing(self, analyze_dir, tmp_path):
        rc = _run_main(
            ["fit", "--curve", analyze_dir / "l1_curve.csv", "--degree", "5", "--out-dir", tmp_path]
        )
        assert rc == 0
        rc = _run_main(
            ["sweep", "--axis", "beta", "--values", "0.2,0.5,1.0", "--ratio", "adaptive",
             "--policy-file", tmp_path / "ratio_policy.json", "--out-dir", tmp_path]
        )
        assert rc == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        evals = [int(r[1]) for r in rows]
        assert evals == sorted(evals)

    def test_bad_axis_values_exit_code(self, tmp_path, capsys):
        assert _run_main(["sweep", "--axis", "K", "--values", "3,x", "--out-dir", tmp_path]) == 1
        assert _run_main(["sweep", "--axis", "beta", "--values", "a,b", "--out-dir", tmp_path]) == 1
        assert _run_main(["sweep", "--axis", "window", "--values", "junk", "--out-dir", tmp_path]) == 1
        capsys.readouterr()
        # one step leaves the late stage empty, and its one step cannot span a window
        for stage in ("late-only", "early-only"):
            argv = ["sweep", "--axis", "window", "--values", stage, "--steps", 1,
                    "--window-high", 999, "--window-low", 0, "--out-dir", tmp_path]
            assert _run_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err

    def test_window_sweep_rows(self, tmp_path, capsys):
        rc = _run_main(
            ["sweep", "--axis", "window", "--values", "early-only,late-only", "--out-dir", tmp_path]
        )
        assert rc == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 2
        labels = {r[0] for r in rows}
        assert labels == {"early-only", "late-only"}
        taus = {r[0]: float(r[5]) for r in rows}
        print(f"window-stage fidelity: early={taus['early-only']:.4f} late={taus['late-only']:.4f}")


class TestConfigMerging:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 20, "rho": 0.5}))

        class Args:
            config = str(cfg_file)
            rho = 0.25  # flag overrides file

        args = Args()
        for name in ExperimentConfig.__dataclass_fields__:
            if not hasattr(args, name):
                setattr(args, name, None)
        cfg = build_config(args)
        assert cfg.steps == 20  # from file
        assert cfg.rho == 0.25  # flag wins
        assert cfg.blocks == 12  # default

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["fit", "--curve", "c.csv"], ["run"], ["sweep", "--axis", "K", "--values", "3"],
    ])
    def test_every_config_field_has_a_flag(self, argv):
        """build_config reads flags by field name: a field with no flag of
        the same dest could be set only from a config file."""
        namespace = make_parser().parse_args(argv)
        missing = [f.name for f in dataclasses.fields(ExperimentConfig) if not hasattr(namespace, f.name)]
        assert missing == []

    @pytest.mark.parametrize("doc", [{"ratio": "nope"}, {"predict": "bogus"}], ids=["ratio", "predict"])
    @pytest.mark.parametrize("command", [["analyze"], ["run", "--mode", "baseline"], ["fit", "--curve"]],
                             ids=["analyze", "run", "fit"])
    def test_config_file_choice_is_checked_like_its_flag(self, analyze_dir, tmp_path, capsys, command, doc):
        """A value outside a field's choices exits 1 with one error line
        naming the field, whether or not the command uses the field."""
        if command[0] == "fit":
            command = [*command, analyze_dir / "l1_curve.csv"]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        assert _run_main([*command, "--config", cfg_file, "--out-dir", tmp_path / "out"]) == 1
        (name,) = doc
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name} must be "), lines
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("values", [{"rho": 7}, {"refresh_interval": 1}, {"beta": 2},
                                        {"window_high": 100, "window_low": 900}],
                             ids=["rho", "refresh_interval", "beta", "window"])
    @pytest.mark.parametrize("command", [["analyze"], ["run", "--mode", "baseline"], ["fit", "--curve"]],
                             ids=["analyze", "run", "fit"])
    def test_caching_option_out_of_range_exits_1(self, analyze_dir, tmp_path, capsys, command, values, source):
        """SortblockConfig checks the caching options for every command, also
        for those that never cache: a value out of its range exits 1 with one
        error line naming the option, whether a flag or a config file sets it."""
        if command[0] == "fit":
            command = [*command, analyze_dir / "l1_curve.csv"]
        if source == "flag":
            command = [*command, *(a for name, v in values.items() for a in ("--" + name.replace("_", "-"), v))]
        else:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(values))
            command = [*command, "--config", cfg_file]
        assert _run_main([*command, "--out-dir", tmp_path / "out"]) == 1
        lines = capsys.readouterr().err.splitlines()
        rule = next(iter(values)).split("_")[0]  # window_high -> the window rule
        assert len(lines) == 1 and lines[0].startswith(f"error: {rule}"), lines
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"stepz": 20}))
        rc = _run_main(["run", "--config", cfg_file, "--out-dir", tmp_path])
        assert rc == 1

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "K", "--values", "3"]])
    def test_metrics_is_not_a_run_option(self, tmp_path, capsys, command):
        """Only ``compare`` takes a metric subset: in a config file ``metrics``
        is an unknown key, and ``--metrics`` an unknown flag."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"metrics": ["psnr"]}))
        assert _run_main([*command, "--config", cfg_file, "--out-dir", tmp_path]) == 1
        assert "unknown config keys ['metrics']" in capsys.readouterr().err
        assert _run_main([*command, "--metrics", "psnr", "--out-dir", tmp_path]) == 1
        assert "unrecognized arguments: --metrics psnr" in capsys.readouterr().err

    def test_readme_flag_table_lists_every_run_flag(self):
        """README's "Key flags and defaults" table names each run flag once
        in its first column (``--config`` and ``--help`` aside)."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Key flags and defaults\n", 1)[1].lstrip("\n")
        rows = section[: section.index("\n\n")].splitlines()[2:]  # below the header and the rule
        table = [flag for row in rows for flag in re.findall(r"--[a-z][a-z-]*", row.split("|")[1])]
        assert len(table) == len(set(table))
        sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {s for a in sub.choices["run"]._actions for s in a.option_strings} - {"-h", "--help", "--config"}
        assert set(table) == flags

    def test_unknown_flag_exit_code(self):
        assert _run_main(["run", "--no-such-flag"]) == 1

    def test_invalid_mode_exit_code(self, tmp_path):
        assert _run_main(["run", "--mode", "warp", "--out-dir", tmp_path]) == 1

    def test_adaptive_without_policy_file(self, tmp_path):
        assert _run_main(["run", "--ratio", "adaptive", "--out-dir", tmp_path]) == 1

    def test_shape_mismatch_is_runtime_error(self, tmp_path):
        import numpy as np

        blob.write_latent(tmp_path / "a.bin", np.zeros((4, 4), dtype=np.float32), 0, "h")
        blob.write_latent(tmp_path / "b.bin", np.zeros((8, 8), dtype=np.float32), 0, "h")
        rc = _run_main(["compare", "--a", tmp_path / "a.bin", "--b", tmp_path / "b.bin"])
        assert rc == 2


class TestCsvRoundTrip:
    def test_floats_round_trip_exactly(self, tmp_path):
        rows = [(1, 0.1 + 0.2), (2, math.pi), (3, 1e-17), (4, 12345.6789)]
        path = tmp_path / "x.csv"
        write_csv(path, ["i", "v"], rows)
        _, parsed = read_csv(path)
        for (i, v), row in zip(rows, parsed):
            assert int(row[0]) == i
            assert float(row[1]) == v


class TestBlob:
    def test_round_trip(self, tmp_path):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "x.bin"
        blob.write_latent(path, arr, seed=5, config_hash="abc123")
        loaded, header = blob.read_latent(path)
        assert loaded.tobytes() == arr.tobytes()
        assert header["seed"] == 5 and header["config_hash"] == "abc123"
        assert header["dtype"] == "f32le"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOT-A-LATENT-FILE-AT-ALL")
        from sortblock import ParseError

        with pytest.raises(ParseError):
            blob.read_latent(path)

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((4, 4), dtype=np.float32)
        path = tmp_path / "x.bin"
        blob.write_latent(path, arr, seed=0, config_hash="h")
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        from sortblock import ParseError

        with pytest.raises(ParseError):
            blob.read_latent(path)

    def test_write_failing_part_way_keeps_old_file(self, tmp_path, monkeypatch, write_failing_part_way):
        path = tmp_path / "x.bin"
        blob.write_latent(path, np.zeros((4, 4), dtype=np.float32), seed=0, config_hash="h")
        old = path.read_bytes()
        with monkeypatch.context() as m:
            m.setattr(os, "write", write_failing_part_way)
            with pytest.raises(OSError, match="No space left"):
                blob.write_latent(path, np.ones((8, 8), dtype=np.float32), seed=1, config_hash="h")
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_failing_rename_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.bin"
        blob.write_latent(path, np.zeros((4, 4), dtype=np.float32), seed=0, config_hash="h")
        old = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError("rename refused")

        with monkeypatch.context() as m:
            m.setattr(os, "replace", refuse)
            with pytest.raises(PermissionError):
                blob.write_latent(path, np.ones((8, 8), dtype=np.float32), seed=1, config_hash="h")
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_write_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "x.bin"
        for seed in range(3):
            blob.write_latent(path, np.full((4, 4), seed, dtype=np.float32), seed=seed, config_hash="h")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
        assert blob.read_latent(path)[1]["seed"] == 2

