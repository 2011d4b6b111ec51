"""Malformed input files.  Policy and latent blob files raise ParseError
naming the path, through the library and through the CLI (exit 1, one
``error:`` line); config files and curve CSVs that are not UTF-8, and config
files holding a value of the wrong type for its key, exit 1 too.
A heavy trace with a missing or truncated tensor file, or a ``trace.json`` or
``tensors.json`` that is not JSON, is truncated, or lacks a field or has one
of the wrong type, raises ParseError naming that file."""

import json
import struct

import numpy as np
import pytest

from sortblock import (
    DitConfig,
    ParseError,
    SamplerRun,
    blob,
    init_network,
    load_policy,
    make_run,
    make_schedule,
    record_baseline,
)
from sortblock.cli import main
from sortblock.trace import load_trace, save_trace

GOOD_POLICY = {"degree": 3, "coefficients": [0.1, 0.2, 0.0, 0.3], "beta": 1.0, "t_min": 0.0, "t_max": 900.0}


def _policy_doc(**changes):
    doc = dict(GOOD_POLICY)
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


BAD_POLICIES = {
    "not_json": "degree: 3\n",
    "empty": "",
    "not_utf8": b"\xff\xfe\x00{",
    "list": "[1, 2, 3]",
    "nested_too_deep": "[" * 100_000 + "]" * 100_000,
    "no_coefficients": _policy_doc(coefficients=None),
    "no_degree": _policy_doc(degree=None),
    "no_beta": _policy_doc(beta=None),
    "no_t_max": _policy_doc(t_max=None),
    "coefficients_not_numbers": _policy_doc(coefficients=["a", "b", "c", "d"]),
    "coefficients_scalar": _policy_doc(coefficients=5),
    "degree_not_number": _policy_doc(degree="three"),
    "degree_unsupported": _policy_doc(degree=7, coefficients=[0.0] * 8),
    "coefficient_count": _policy_doc(coefficients=[0.1, 0.2]),
    "beta_out_of_range": _policy_doc(beta=2.0),
    "empty_range": _policy_doc(t_min=5.0, t_max=5.0),
    "coefficient_nan": _policy_doc(coefficients=[0.1, float("nan"), 0.0, 0.3]),
    "coefficient_infinite": _policy_doc(coefficients=[0.1, 0.2, float("-inf"), 0.3]),
    "range_infinite": _policy_doc(t_max=float("inf")),
    "degree_float": _policy_doc(degree=3.7),
    "degree_string": _policy_doc(degree="3"),
    "coefficients_string": _policy_doc(coefficients="1234"),
    "beta_bool": _policy_doc(beta=True),
    "t_min_string": _policy_doc(t_min="10"),
    "coefficient_past_float_range": _policy_doc(coefficients=[10**400, 0, 0, 0]),
    "t_max_past_int_digit_limit": _policy_doc(t_max=None)[:-1] + ', "t_max": ' + "9" * 5000 + "}",
}

# config documents whose one key holds a value of the wrong JSON type
BAD_CONFIGS = {
    "int_as_string": {"steps": "fifty"},
    "int_as_float": {"steps": 50.0},
    "int_as_bool": {"blocks": True},
    "int_as_null": {"seed": None},
    "float_as_bool": {"rho": False},
    "float_as_string": {"beta_start": "1e-4"},
    "bool_as_int": {"heavy_trace": 1},
    "string_as_number": {"mode": 1},
    "list_as_int": {"seeds": 3},
    "list_item_as_string": {"seeds": [0, "1"]},
    "list_item_as_bool": {"seeds": [0, True]},
    "list_as_string": {"seeds": "0,1"},
    "optional_int_as_float": {"window_high": 900.5},
    "optional_float_as_string": {"beta": "0.5"},
}


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


def _blob_bytes(header, payload=b"\0" * 64):
    header_bytes = header if isinstance(header, bytes) else json.dumps(header).encode()
    return blob.MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + payload


BAD_BLOBS = {
    "header_list": _blob_bytes([4, 4]),
    "header_string": _blob_bytes("f32le"),
    "no_shape": _blob_bytes({"dtype": "f32le", "seed": 0, "config_hash": "h"}),
    "shape_scalar": _blob_bytes({"shape": 16, "dtype": "f32le"}),
    "shape_not_numbers": _blob_bytes({"shape": ["four", 4], "dtype": "f32le"}),
    "shape_negative": _blob_bytes({"shape": [-4, -4], "dtype": "f32le"}),
    "shape_infinite": _blob_bytes(b'{"shape": [Infinity, 4], "dtype": "f32le"}'),
    "no_dtype": _blob_bytes({"shape": [4, 4]}),
    "header_not_json": _blob_bytes(b"{shape: [4, 4]}"),
    "header_length_past_end": blob.MAGIC + struct.pack("<I", 1 << 20) + b"{}",
    "bad_magic": b"NOT-A-LATENT-FILE-AT-ALL",
    "shape_float": _blob_bytes({"shape": [4.9, 4], "dtype": "f32le"}),
    "shape_bool": _blob_bytes({"shape": [True, 16], "dtype": "f32le"}),
    "shape_strings": _blob_bytes({"shape": ["4", "4"], "dtype": "f32le"}),
    "shape_string": _blob_bytes({"shape": "44", "dtype": "f32le"}),
    # empty, so the byte count matches, but past numpy's dimension or size limit
    "shape_dimension_past_int64": _blob_bytes({"shape": [0, 2**70], "dtype": "f32le"}, b""),
    "shape_size_past_int64": _blob_bytes({"shape": [0, 2**62, 2**62], "dtype": "f32le"}, b""),
    # a well-formed header and payload whose values are not all finite
    "payload_nan": _blob_bytes({"shape": [4, 4], "dtype": "f32le"}, np.full(16, np.nan, "<f4").tobytes()),
    "payload_inf": _blob_bytes({"shape": [4, 4], "dtype": "f32le"}, np.array([0.0] * 15 + [-np.inf], "<f4").tobytes()),
}

# what the error names beyond the file, where a case has a message of its own
BLOB_MESSAGES = {
    "header_length_past_end": "header length 1048576 runs past the end",
    "payload_nan": "NaN or inf",
    "payload_inf": "NaN or inf",
}


@pytest.mark.parametrize("case", sorted(BAD_POLICIES))
def test_load_policy_raises_parse_error(tmp_path, case):
    path = _write(tmp_path / "policy.json", BAD_POLICIES[case])
    with pytest.raises(ParseError, match="policy.json"):
        load_policy(path)


@pytest.mark.parametrize("case", sorted(BAD_BLOBS))
def test_read_latent_raises_parse_error(tmp_path, case):
    path = _write(tmp_path / "latent.bin", BAD_BLOBS[case])
    with pytest.raises(ParseError, match="latent.bin.*" + BLOB_MESSAGES.get(case, "")):
        blob.read_latent(path)


def test_good_files_still_load(tmp_path):
    policy = load_policy(_write(tmp_path / "policy.json", json.dumps(GOOD_POLICY)))
    assert policy.poly.coefficients == (0.1, 0.2, 0.0, 0.3)
    arr, header = blob.read_latent(_write(tmp_path / "latent.bin", _blob_bytes({"shape": [4, 4], "dtype": "f32le"})))
    assert arr.shape == (4, 4) and not arr.any()
    empty, _ = blob.read_latent(_write(tmp_path / "empty.bin", _blob_bytes({"shape": [0, 4], "dtype": "f32le"}, b"")))
    assert empty.shape == (0, 4)


def _assert_one_error_line(capsys, path):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: ") and str(path) in lines[0]
    assert "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("case", sorted(BAD_POLICIES))
def test_cli_run_with_bad_policy_exits_1(tmp_path, capsys, case):
    path = _write(tmp_path / "policy.json", BAD_POLICIES[case])
    rc = main(["run", "--ratio", "adaptive", "--policy-file", str(path), "--steps", "10",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    _assert_one_error_line(capsys, path)


@pytest.mark.parametrize("case", sorted(BAD_BLOBS))
def test_cli_compare_with_bad_blob_exits_1(tmp_path, capsys, case):
    good = tmp_path / "good.bin"
    blob.write_latent(good, np.zeros((4, 4), dtype=np.float32), 0, "h")
    bad = _write(tmp_path / "latent.bin", BAD_BLOBS[case])
    rc = main(["compare", "--a", str(good), "--b", str(bad)])
    assert rc == 1
    _assert_one_error_line(capsys, bad)


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{path}", "--out-dir", "{out}"],
    ["fit", "--curve", "{path}", "--out-dir", "{out}"],
])
def test_cli_non_utf8_config_and_curve_exit_1(tmp_path, capsys, argv):
    path = _write(tmp_path / "input.txt", b"\xff\xfe\x00step,l1\n")
    rc = main([a.format(path=path, out=tmp_path / "out") for a in argv])
    assert rc == 1
    _assert_one_error_line(capsys, path)


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "K", "--values", "3"]])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_config_value_of_wrong_type_exits_1(tmp_path, capsys, case, command):
    path = _write(tmp_path / "config.json", json.dumps(BAD_CONFIGS[case]))
    rc = main([*command, "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    (key,) = BAD_CONFIGS[case]
    assert repr(key) in _assert_one_error_line(capsys, path)


@pytest.fixture(scope="module")
def heavy_trace():
    sched = make_schedule(1000)
    run = make_run(sched, 50, 0, (64, 64))
    short = SamplerRun(step_list=run.step_list[:3], z_init=run.z_init, seed=0)
    return record_baseline(init_network(DitConfig()), short, sched, heavy=True)


@pytest.mark.parametrize("damage", ["missing", "truncated", "empty", "oversized", "directory"])
def test_load_trace_broken_tensor_file_raises_parse_error(tmp_path, heavy_trace, damage):
    save_trace(heavy_trace, tmp_path)
    path = tmp_path / "delta_s0001_b005.f32"
    if damage in ("missing", "directory"):
        path.unlink()
        if damage == "directory":
            path.mkdir()
    elif damage == "oversized":  # the whole tensor, then extra bytes
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
    else:
        path.write_bytes(path.read_bytes()[: 100 if damage == "truncated" else 0])
    with pytest.raises(ParseError, match="delta_s0001_b005.f32"):
        load_trace(tmp_path)


def _edit_json(edit):
    """A damage that rewrites the parsed document with ``edit`` (in place)."""
    def damage(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return damage


def _step0(edit):
    return _edit_json(lambda doc: edit(doc["steps"][0]))


def _entry0(edit):
    return _edit_json(lambda doc: edit(doc[0]))


BAD_TRACE_JSON = {
    "not_json": lambda text: "{steps: []}",
    "truncated": lambda text: text[:200],
    "empty": lambda text: "",
    "not_utf8": lambda text: b"\xff\xfe\x00{",
    "list": lambda text: "[]",
    "only_steps": lambda text: '{"steps": []}',
    "no_total_evals": _edit_json(lambda doc: doc.pop("total_evals")),
    "total_evals_string": _edit_json(lambda doc: doc.update(total_evals="36")),
    "heavy_number": _edit_json(lambda doc: doc.update(heavy=1)),
    "config_list": _edit_json(lambda doc: doc.update(config=[])),
    "steps_object": _edit_json(lambda doc: doc.update(steps={})),
    "step_not_object": _edit_json(lambda doc: doc["steps"].__setitem__(0, 7)),
    "step_no_flags": _step0(lambda step: step.pop("flags")),
    "step_flags_strings": _step0(lambda step: step.update(flags=["1"] * 12)),
    "step_evals_bool": _step0(lambda step: step.update(evals=True)),
    "step_delta_l1_null": _step0(lambda step: step.update(delta_l1=None)),
    "step_scores_string": _step0(lambda step: step.update(scores="none")),
}

BAD_TENSORS_JSON = {
    "not_json": lambda text: "[{file: x}]",
    "truncated": lambda text: text[:200],
    "object": lambda text: "{}",
    "entry_not_object": _edit_json(lambda doc: doc.__setitem__(0, "delta_s0000_b000.f32")),
    "no_shape": _entry0(lambda entry: entry.pop("shape")),
    "shape_string": _entry0(lambda entry: entry.update(shape="64x64")),
    "shape_negative": _entry0(lambda entry: entry.update(shape=[-64, -64])),
    "shape_dimension_past_int64": _entry0(lambda entry: entry.update(shape=[0, 2**70])),
    "shape_size_past_int64": _entry0(lambda entry: entry.update(shape=[0, 2**62, 2**62])),
    "no_step": _entry0(lambda entry: entry.pop("step")),
    "block_null": _entry0(lambda entry: entry.update(block=None)),
    "unknown_kind": _entry0(lambda entry: entry.update(kind="noise")),
    "file_outside_directory": _entry0(lambda entry: entry.update(file="../trace.json")),
    "missing_entry": _edit_json(lambda doc: doc.pop(5)),
    "step_negative": _edit_json(lambda doc: doc.append({**doc[0], "step": -1})),
    "block_negative": _edit_json(lambda doc: doc.append({**doc[0], "block": -1})),
    "duplicate_entry": _edit_json(lambda doc: doc.append(dict(doc[1]))),
}


@pytest.mark.parametrize("name, case", [("trace.json", c) for c in sorted(BAD_TRACE_JSON)]
                         + [("tensors.json", c) for c in sorted(BAD_TENSORS_JSON)])
def test_load_trace_malformed_json_raises_parse_error(tmp_path, heavy_trace, name, case):
    save_trace(heavy_trace, tmp_path)
    path = tmp_path / name
    damage = (BAD_TRACE_JSON if name == "trace.json" else BAD_TENSORS_JSON)[case]
    _write(path, damage(path.read_text()))
    with pytest.raises(ParseError, match=name):
        load_trace(tmp_path)


def test_saved_heavy_trace_loads(tmp_path, heavy_trace):
    save_trace(heavy_trace, tmp_path)
    loaded = load_trace(tmp_path)
    assert loaded.to_dict() == heavy_trace.to_dict()
    assert len(loaded.deltas) == 3 and len(loaded.outputs) == 3
