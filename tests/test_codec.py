"""The JSON reader and the [re, im] pair renderer against their stdlib
references: ``_codec.read_json`` parses with orjson and falls back to json
for every refusal, so each document must yield what ``reference.read_json``
yields, or raise what it raises."""

import functools
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sigmalcu import _codec, cli
from sigmalcu.circuits import _json_bytes, circuit_from_json_dict
from sigmalcu.sigma import Decomposition, from_json_dict


def canon(value):
    """``value`` with its types spelled out: a float by its bits, so that
    -0.0 differs from 0.0 and 1.0 from 1; a dict as its items in order."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, (bool, int, str, type(None))):
        return (type(value).__name__, value)
    if isinstance(value, list):
        return ("list", [canon(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, canon(v)) for k, v in value.items()])
    if isinstance(value, Decomposition):
        return ("decomposition", value.n_qubits, value.factors.tobytes(), value.coeffs.tobytes())
    if isinstance(value, cli.StateOracle):
        return ("oracle", value.label, value.matrix.tobytes())
    return ("circuit", _json_bytes(value))


def typed(value):
    """A schema over any document: an integer in int64 stays an integer and
    every other number becomes a float, as the package's schemas read their
    integer and number fields, so that an integer literal past int64 reads
    the same whether json made it an int or orjson a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, int) and -(2**63) <= value < 2**63:
            return value
        try:
            return float(value)
        except OverflowError:
            raise ValueError("number out of floating-point range") from None
    if isinstance(value, list):
        return [typed(v) for v in value]
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    return value


def outcome(read, path, build):
    try:
        return ("value", canon(read(path, build)))
    except Exception as exc:
        return ("error", type(exc), str(exc))


def same_outcome(text: bytes, build) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.json")
        Path(path).write_bytes(text)
        assert outcome(_codec.read_json, path, build) == outcome(reference.read_json, path, build)


# JSON text, built as text so that each literal is written as chosen.
SPECIAL_NUMBERS = [
    "-0", "-0.0", "0e0", "1E+2", "4.9e-324", "2.4703282292062328e-324", "1e-400",
    "2.2250738585072011e-308", "1.7976931348623157e308", "1e308", "1e309", "-1e400",
    "9007199254740993", "0.1000000000000000055511151231257827", "18446744073709551615",
    "-9223372036854775808",
]
STRINGS = [
    '"\\ud800"', '"\\udc00x"', '"\\ud834\\udd1e"', '"\\n\\t\\"\\\\/"', '"[{]}"', '"\\u0000"', '"é"',
]
in_range_leaves = st.one_of(
    st.integers(-(2**63), 2**64 - 1).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(SPECIAL_NUMBERS),
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity"]),
    st.text(max_size=6).map(json.dumps),
    st.text(max_size=3).map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.sampled_from(STRINGS),
)
# Integer literals outside [-2^63, 2^64), which orjson reads as floats, and
# past a float's range, which it refuses.
out_of_range_leaves = st.one_of(
    st.integers(2**64, 10**330), st.integers(-(10**330), -(2**63) - 1)
).map(str)
keys = st.one_of(st.sampled_from(['"a"', '"b"', '"n_qubits"']), st.text(max_size=3).map(json.dumps))


def documents(leaves):
    def containers(children):
        separators = st.sampled_from([", ", ",", ",\r\n", " ,\n "])
        arrays = st.tuples(st.lists(children, max_size=4), separators).map(lambda a: "[" + a[1].join(a[0]) + "]")
        objects = st.tuples(st.lists(st.tuples(keys, children), max_size=4), separators).map(
            lambda o: "{" + o[1].join(f"{k}: {v}" for k, v in o[0]) + "}"
        )
        return arrays | objects

    return st.recursive(leaves, containers, max_leaves=12)


def nested(depth, text=""):
    return "[" * depth + text + "]" * depth


def nested_around_strings(depth, text=""):
    """``text`` nested ``depth`` lists deep, each list's brackets paired
    with brackets inside its strings, so that its brackets alone nest one
    deep."""
    return '["]", ' * depth + (text or "0") + ', "["]' * depth


@st.composite
def document_bytes(draw, leaves):
    """A document, sometimes nested under many brackets (within json's
    limit, past it, and past orjson's 1024), cut short or spliced with a
    stray byte."""
    text = draw(documents(leaves))
    depth = draw(st.sampled_from([0, 0, 0, 0, 2, 40, 1000, 1030]))
    text = draw(st.sampled_from([nested, nested_around_strings]))(depth, text)
    edit = draw(st.sampled_from(["none", "none", "none", "cut", "splice"]))
    data = text.encode("utf-8", "surrogatepass")
    if edit == "cut" and data:
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif edit == "splice":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"x", b",", b"]", b"\xe9", b"\x01", b'"', b"\\"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(text=document_bytes(in_range_leaves))
def test_read_json_returns_json_values_or_json_refusals(text):
    # Integers inside [-2^63, 2^64): the value itself, types and -0.0 included.
    same_outcome(text, lambda value: value)


@settings(max_examples=300, deadline=None)
@given(text=document_bytes(in_range_leaves | out_of_range_leaves))
def test_read_json_through_a_schema_matches_json(text):
    same_outcome(text, typed)


ORACLE = {"n_qubits": 1, "label": "V", "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
DECOMPOSITION = {"n_qubits": 1, "terms": [{"re": 1.5, "im": -0.0, "factors": "P"}]}
CIRCUIT = {"n_qubits": 2, "ancillas": [1], "gates": [{"kind": "x", "target": 0}, {"kind": "h", "target": 1}]}


def with_text(payload, key, text):
    """``payload`` as JSON with ``text`` spliced in as the value of ``key``."""
    return json.dumps({**payload, key: "SLOT"}).replace('"SLOT"', text).encode("utf-8")


SCHEMA_CASES = {
    # orjson reads 2^70 as a float, which the schema refuses; json's int is quoted.
    "oracle width past int64": (functools.partial(cli.oracle_from_json_dict, "U"), with_text(ORACLE, "n_qubits", str(2**70))),
    "oracle entry past int64": (
        functools.partial(cli.oracle_from_json_dict, "U"),
        with_text(ORACLE, "matrix", f"[[{2**70}, 0], [0, 0], [0, 0], [1, 0]]"),
    ),
    "oracle entry past a float": (
        functools.partial(cli.oracle_from_json_dict, "U"),
        with_text(ORACLE, "matrix", f"[[{10**400}, 0], [0, 0], [0, 0], [1, 0]]"),
    ),
    # Nesting an ignored key past json's recursion limit but not orjson's.
    "oracle nesting 1000 deep": (functools.partial(cli.oracle_from_json_dict, "U"), with_text(ORACLE, "extra", nested(1000))),
    "oracle nesting 1000 deep around strings": (
        functools.partial(cli.oracle_from_json_dict, "U"), with_text(ORACLE, "extra", nested_around_strings(1000))
    ),
    # Read as quote-delimited text, the escaped quote ends the string early:
    # the brackets after it close the oracle, and the nesting is inside a string.
    "oracle nesting 1000 deep after an escaped quote": (
        functools.partial(cli.oracle_from_json_dict, "U"),
        with_text(ORACLE, "extra", '["\\"]]", ' + nested(1000) + "]"),
    ),
    "oracle nesting 40 deep": (functools.partial(cli.oracle_from_json_dict, "U"), with_text(ORACLE, "extra", nested(40))),
    "oracle crlf": (functools.partial(cli.oracle_from_json_dict, "U"), json.dumps(ORACLE, indent=1).replace("\n", "\r\n").encode()),
    "oracle non-ascii label": (functools.partial(cli.oracle_from_json_dict, "U"), with_text(ORACLE, "label", '"é"')),
    "oracle lone surrogate label": (functools.partial(cli.oracle_from_json_dict, "U"), with_text(ORACLE, "label", '"\\ud800"')),
    "coefficient past int64": (from_json_dict, with_text(DECOMPOSITION, "terms", f'[{{"re": {2**70}, "im": 0, "factors": "P"}}]')),
    "coefficient past a float": (from_json_dict, with_text(DECOMPOSITION, "terms", f'[{{"re": {10**400}, "im": 0, "factors": "P"}}]')),
    "coefficient 1e400": (from_json_dict, with_text(DECOMPOSITION, "terms", '[{"re": 1e400, "im": 0, "factors": "P"}]')),
    "coefficient NaN": (from_json_dict, with_text(DECOMPOSITION, "terms", '[{"re": NaN, "im": 0, "factors": "P"}]')),
    "factors in brackets": (from_json_dict, with_text(DECOMPOSITION, "terms", '[{"re": 1, "im": 0, "factors": "[P]"}]')),
    "decomposition": (from_json_dict, json.dumps(DECOMPOSITION).encode()),
    "circuit target past int64": (circuit_from_json_dict, with_text(CIRCUIT, "gates", f'[{{"kind": "x", "target": {2**64}}}]')),
    "circuit ancilla at 2^63": (circuit_from_json_dict, with_text(CIRCUIT, "ancillas", f"[{2**63}]")),
    "circuit": (circuit_from_json_dict, json.dumps(CIRCUIT).encode()),
    "circuit cut short": (circuit_from_json_dict, json.dumps(CIRCUIT).encode()[:-3]),
}


@pytest.mark.parametrize("build, text", SCHEMA_CASES.values(), ids=SCHEMA_CASES.keys())
def test_package_schemas_read_what_json_reads(build, text):
    same_outcome(text, build)


def test_width_past_int64_is_quoted_as_json_reads_it(tmp_path):
    path = tmp_path / "u.json"
    path.write_bytes(SCHEMA_CASES["oracle width past int64"][1])
    with pytest.raises(ValueError, match=f"^oracle 'V' declares {2**70} qubits, its matrix acts on 1$"):
        cli.load_oracle(str(path), "U")


complex_values = st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=20).map(
    lambda xs: np.array(xs, dtype=complex)
)


@settings(max_examples=200, deadline=None)
@given(values=complex_values | st.sampled_from([np.array([complex(-0.0, 0.0), 5e-324j, 1e308 + 0j])]))
def test_pairs_json_is_json_dumps(values):
    want = json.dumps(reference.complex_pairs(values), allow_nan=False)
    assert _codec.pairs_json(values) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_pairs_json_refuses_as_json_dumps(bad):
    values = np.array([1.0, bad], dtype=complex)
    with pytest.raises(ValueError) as want:
        json.dumps(reference.complex_pairs(values), allow_nan=False)
    with pytest.raises(ValueError, match=f"^{want.value}$"):
        _codec.pairs_json(values)
