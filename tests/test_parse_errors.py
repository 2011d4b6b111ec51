"""Malformed input files.  Policy and latent blob files raise ParseError
naming the path, through the library and through the CLI (exit 1, one
``error:`` line); config files and curve CSVs that are not UTF-8, and config
files holding a value of the wrong type for its key, exit 1 too.
A heavy trace with a missing or truncated tensor file, or a ``trace.json`` or
``tensors.json`` header that is not JSON, is truncated, or lacks a field or
has one of the wrong type, a header of another version (the array of the
first format included), with a negative count, or whose counts disagree with
``trace.json`` or the files, raises ParseError naming that file; so does any
content at all written over either JSON file, if it does not load.  A light
trace without its header is refused too.  Any content at all, arbitrary or
near-valid, read as a latent blob, a ratio policy or a curve CSV gives a
value or a ParseError naming the file."""

import csv
import dataclasses
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sortblock import cli
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
    "shape_65_dimensions": _blob_bytes({"shape": [4, 4] + [1] * 63, "dtype": "f32le"}),
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


def _damage_tensor(path, damage):
    if damage in ("missing", "directory"):
        path.unlink()
        if damage == "directory":
            path.mkdir()
    elif damage in ("oversized", "long_by_one"):  # the whole tensor, then extra bytes
        path.write_bytes(path.read_bytes() + bytes(4 if damage == "oversized" else 1))
    else:
        data = path.read_bytes()
        path.write_bytes(data[: {"truncated": 100, "empty": 0, "short_by_one": len(data) - 1}[damage]])


@pytest.mark.parametrize("damage", ["missing", "truncated", "empty", "oversized", "directory",
                                    "short_by_one", "long_by_one"])
def test_load_trace_broken_tensor_file_raises_parse_error(tmp_path, heavy_trace, damage):
    save_trace(heavy_trace, tmp_path)
    _damage_tensor(tmp_path / "delta_s0001_b005.f32", damage)
    with pytest.raises(ParseError, match="delta_s0001_b005.f32.*tensors.json"):
        load_trace(tmp_path)


@pytest.mark.parametrize("damage", ["short_by_one", "long_by_one", "directory"])
@pytest.mark.parametrize("name", ["delta_s0002_b011.f32", "output_s0000.f32", "output_s0002.f32"])
def test_load_trace_wrongly_sized_first_or_last_tensor_raises_parse_error(tmp_path, heavy_trace, name, damage):
    """The last delta file, whose size is checked before any stack is
    allocated, and the first and last output files."""
    save_trace(heavy_trace, tmp_path)
    _damage_tensor(tmp_path / name, damage)
    with pytest.raises(ParseError, match=f"{name}.*tensors.json"):
        load_trace(tmp_path)


@pytest.mark.parametrize("damage", ["short_by_one", "long_by_one", "directory"])
def test_light_trace_wrongly_sized_last_output_raises_parse_error(tmp_path, heavy_trace, damage):
    """A light trace with outputs (as ``analyze`` saves it) checks its last
    output file before it allocates any."""
    save_trace(dataclasses.replace(heavy_trace, heavy=False, deltas=None), tmp_path)
    _damage_tensor(tmp_path / "output_s0002.f32", damage)
    with pytest.raises(ParseError, match="output_s0002.f32.*tensors.json"):
        load_trace(tmp_path)


def test_heavy_trace_without_header_raises_parse_error(tmp_path, heavy_trace):
    save_trace(heavy_trace, tmp_path)
    (tmp_path / "tensors.json").unlink()
    with pytest.raises(ParseError, match="tensors.json: cannot read"):
        load_trace(tmp_path)


def test_light_trace_without_header_raises_parse_error(tmp_path, heavy_trace):
    """The light format from before every trace had a header is refused."""
    light = dataclasses.replace(heavy_trace, heavy=False, deltas=None, outputs=None)
    save_trace(light, tmp_path)
    (tmp_path / "tensors.json").unlink()
    with pytest.raises(ParseError, match="tensors.json: cannot read"):
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
    # a step record of the format before every record held this field
    "step_no_degenerate_predictions": _step0(lambda step: step.pop("degenerate_predictions")),
    "light_with_deltas": _edit_json(lambda doc: doc.update(heavy=False)),
    # the header counts 3 steps of deltas and 3 outputs
    "fewer_step_records": _edit_json(lambda doc: doc["steps"].pop()),
}


def _version_1(text):
    """The first format's sidecar for the tensors a header lists: an array of
    one entry per tensor."""
    h = json.loads(text)
    return json.dumps(
        [{"file": f"delta_s{s:04d}_b{b:03d}.f32", "shape": h["shape"], "dtype": "f32le", "step": s, "block": b,
          "kind": "delta"} for s in range(h["steps"]) for b in range(h["blocks"])]
        + [{"file": f"output_s{s:04d}.f32", "shape": h["shape"], "dtype": "f32le", "step": s, "block": None,
            "kind": "output"} for s in range(h["outputs"])]
    )


def _header(**changes):
    return _edit_json(lambda doc: doc.update(changes))


BAD_TENSORS_JSON = {
    "not_json": lambda text: "{version: 2}",
    "truncated": lambda text: text[:20],
    "empty": lambda text: "",
    "object": lambda text: "{}",
    "version_1_array": _version_1,
    "no_version": _edit_json(lambda doc: doc.pop("version")),
    "version_1": _header(version=1),
    "version_3": _header(version=3),
    "version_string": _header(version="2"),
    "no_shape": _edit_json(lambda doc: doc.pop("shape")),
    "shape_string": _header(shape="64x64"),
    "shape_negative": _header(shape=[-64, -64]),
    "shape_dimension_past_int64": _header(shape=[0, 2**70]),
    "shape_size_past_int64": _header(shape=[0, 2**62, 2**62]),
    "shape_65_dimensions": _header(shape=[64, 64] + [1] * 63),  # the files' byte count, past numpy's dimensions
    "no_step": _edit_json(lambda doc: doc.pop("steps")),
    "steps_float": _header(steps=3.0),
    "step_negative": _header(steps=-1),
    "block_negative": _header(blocks=-1),
    "block_null": _header(blocks=None),
    "outputs_bool": _header(outputs=True),
    "outputs_negative": _header(outputs=-1),
    "no_deltas_in_heavy_trace": _header(steps=0, blocks=0),
    # more tensors than there are files
    "steps_past_files": _header(steps=4),
    "blocks_past_files": _header(blocks=13),
    "outputs_past_files": _header(outputs=4),
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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _near(doc):
    """``doc``, a JSON object, with some fields dropped and some replaced by
    small integers or arbitrary JSON values."""
    keys = st.sampled_from(sorted(doc))
    return st.builds(
        lambda drop, new: {**{k: v for k, v in doc.items() if k not in drop}, **new},
        st.sets(keys, max_size=1),
        st.dictionaries(keys, st.integers(-2, 64) | _JSON, max_size=2),
    )


@pytest.mark.parametrize("name", ["trace.json", "tensors.json"])
def test_load_trace_fuzzed_json_raises_only_parse_error(tmp_path_factory, heavy_trace, name):
    """Arbitrary bytes, arbitrary JSON values and near-valid documents written
    over one JSON file of a saved 3-step heavy trace: ``load_trace`` returns a
    trace or raises ParseError naming that file, and raises nothing else."""
    directory = tmp_path_factory.mktemp("fuzz")
    save_trace(heavy_trace, directory)
    path = directory / name
    good = path.read_bytes()
    doc = json.loads(good)
    near = _near(doc)
    if name == "trace.json":
        near |= _near(doc["steps"][0]).map(lambda step: {**doc, "steps": [step, *doc["steps"][1:]]})

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | _JSON.map(json.dumps).map(str.encode) | near.map(json.dumps).map(str.encode))
    def check(content):
        path.write_bytes(content)
        try:
            load_trace(directory)
        except ParseError as exc:
            assert name in str(exc), exc

    try:
        check()
    finally:
        path.write_bytes(good)


def _fuzz(path, content, read):
    """Write ``content`` over ``path`` and read it back with ``read``: a
    value, or a ParseError naming the file, and nothing else."""
    path.write_bytes(content)
    try:
        read(path)
    except ParseError as exc:
        assert path.name in str(exc), exc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_latent_fuzzed_raises_only_parse_error(tmp_path_factory, data):
    """Arbitrary bytes, bytes after the magic, and blobs whose header is
    arbitrary JSON or a near-valid header, with a payload of any few bytes or
    of the four floats a [2, 2] shape needs."""
    header = {"shape": [2, 2], "dtype": "f32le", "seed": 0, "config_hash": "h"}
    payload = st.binary(max_size=24) | st.sampled_from([np.zeros(4, "<f4").tobytes(), np.ones(4, "<f4").tobytes()])
    near = st.builds(_blob_bytes, (_JSON | _near(header)).map(json.dumps).map(str.encode), payload)
    content = data.draw(st.binary(max_size=64) | st.binary(max_size=48).map(blob.MAGIC.__add__) | near)
    _fuzz(tmp_path_factory.getbasetemp() / "latent.bin", content, blob.read_latent)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_policy_fuzzed_raises_only_parse_error(tmp_path_factory, data):
    """Arbitrary bytes, arbitrary JSON values and near-valid policies, among
    them the good one with coefficient lists of any length and floats."""
    coefficients = st.lists(st.floats() | st.integers(), max_size=7)
    near = _near(GOOD_POLICY) | coefficients.map(lambda c: {**GOOD_POLICY, "coefficients": c})
    content = data.draw(st.binary(max_size=64) | (_JSON | near).map(json.dumps).map(str.encode))
    _fuzz(tmp_path_factory.getbasetemp() / "policy.json", content, load_policy)


def _csv_bytes(rows):
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_curve_csv_fuzzed_raises_only_parse_error(tmp_path_factory, data):
    """Arbitrary bytes, and CSVs under the ``step,l1`` header (or a near one)
    whose rows hold any few numbers or short strings: the curve reader of
    ``fit --curve`` returns its samples or raises ParseError naming the file."""
    cell = st.floats() | st.integers() | st.text(max_size=6)
    header = st.sampled_from([["step", "l1"], ["step", "l1", "x"], ["step"], [], ["l1", "step"]])
    near = st.builds(lambda h, rows: _csv_bytes([h, *rows]), header, st.lists(st.lists(cell, max_size=3), max_size=4))
    content = data.draw(st.binary(max_size=64) | near)
    _fuzz(tmp_path_factory.getbasetemp() / "l1_curve.csv", content, cli._parse_curve_csv)
