import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from sigmalcu.blockenc import assemble
from sigmalcu.circuits import Circuit
from sigmalcu.matrices import (
    ZERO_TOL,
    Coo,
    SparseMatrix,
    frobenius_distance,
    load_matrix_market,
    save_matrix_market,
)
from sigmalcu.pauli import decompose_pauli
from sigmalcu.sigma import (
    Decomposition,
    SigmaFactor,
    SigmaTerm,
    completion_matrix,
    decompose_numerical,
    merge_terms,
    term_matrix,
)
from sigmalcu.simulate import circuit_to_matrix


def write_mtx(path, text):
    path.write_text(text)
    return str(path)


def test_load_single_entry(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 1.0\n",
    )
    m = load_matrix_market(path)
    assert m.n_qubits == 1
    assert reference.entries(m) == {(1, 0): 1.0}


def test_load_corner_pair(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n4 4 2\n1 4 1.0\n4 1 2.0\n",
    )
    m = load_matrix_market(path)
    assert m.n_qubits == 2
    assert reference.entries(m) == {(0, 3): 1.0, (3, 0): 2.0}


def test_load_complex_field(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 0.5 -1.5\n",
    )
    m = load_matrix_market(path)
    assert reference.entries(m) == {(0, 1): complex(0.5, -1.5)}


def test_load_complex_entry_with_zero_imag(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n2 1 1.0 0.0\n",
    )
    m = load_matrix_market(path)
    assert m.n_qubits == 1
    assert reference.entries(m) == {(1, 0): 1.0}


def test_load_sums_duplicates_and_prunes(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n1 1 2.0\n1 1 3.0\n2 2 1.0\n2 2 -1.0\n",
    )
    m = load_matrix_market(path)
    assert reference.entries(m) == {(0, 0): 5.0}
    assert m.nnz == 1


def test_load_rejects_non_power_of_two(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n",
    )
    with pytest.raises(ValueError, match="power of two"):
        load_matrix_market(path)


def test_load_rejects_non_square(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n4 2 1\n1 1 1.0\n",
    )
    with pytest.raises(ValueError, match="square"):
        load_matrix_market(path)


def test_load_rejects_bad_header(tmp_path):
    path = write_mtx(tmp_path / "m.mtx", "%%NotMatrixMarket nonsense\n2 2 0\n")
    with pytest.raises(ValueError, match="header"):
        load_matrix_market(path)


def test_load_rejects_array_format(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
    )
    with pytest.raises(ValueError, match="coordinate"):
        load_matrix_market(path)


def test_load_rejects_malformed_entry(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops 1.0\n",
    )
    with pytest.raises(ValueError):
        load_matrix_market(path)


# Entry lines holding one value past their field's count, which scipy's
# reader dropped (the real file read as diag(1, 2)), and files that
# scipy's reader refused in its own words: the size line, and coordinates
# or integer values that are not integers in range.
@pytest.mark.parametrize(
    "field, lines, message",
    [
        ("real", ["2 2 2", "1 1 1.0 5.0", "2 2 2.0"], "expected 6 values for 2 real entries, got 7"),
        ("complex", ["2 2 1", "1 1 1.0 2.0 3.0"], "expected 4 values for 1 complex entries, got 5"),
        ("integer", ["2 2 1", "1 1 5 6"], "expected 3 values for 1 integer entries, got 4"),
        # A comment after the size line is entry text; scipy refused it as "file too long".
        ("real", ["2 2 1", "1 1 1.0", "%"], "expected 3 values for 1 real entries, got 4"),
        ("real", ["2 2"], "size line '2 2' on line 2 is not three non-negative integers"),
        ("real", ["2 2 1 7", "1 1 1.0"], "size line '2 2 1 7' on line 2 is not three non-negative integers"),
        ("real", ["2 2 x"], "size line '2 2 x' on line 2 is not three non-negative integers"),
        ("real", ["2 2 -1"], "size line '2 2 -1' on line 2 is not three non-negative integers"),
        ("real", ["% only a comment"], "no size line"),
        ("real", [], "no size line"),
        ("real", ["2 2 1", "0 1 1.0"], "row '0' on line 3 is outside 1..2"),
        ("real", ["2 2 1", "1 3 1.0"], "column '3' on line 3 is outside 1..2"),
        ("real", ["2 2 1", "1.5 1 1.0"], "row '1.5' on line 3 is not an integer"),
        ("complex", ["2 2 1", "1 1e0 1.0 0"], "column '1e0' on line 3 is not an integer"),
        ("real", ["2 2 1", "9223372036854775808 1 1.0"], "row '9223372036854775808' on line 3 is outside 1..2"),
        (
            "integer",
            ["2 2 2", "1 1 1", "", "2 2 9223372036854775808"],
            "value '9223372036854775808' on line 5 is outside -9223372036854775808..9223372036854775807",
        ),
        (
            "integer",
            ["2 2 1", "1 1 -9223372036854775809"],
            "value '-9223372036854775809' on line 3 is outside -9223372036854775808..9223372036854775807",
        ),
    ],
    ids=[
        "real", "complex", "integer", "trailing-comment",
        "two-sizes", "four-sizes", "letter-size", "negative-count", "comment-only", "header-only",
        "row-0", "column-3", "row-1.5", "column-1e0", "row-past-int64", "value-past-int64", "value-below-int64",
    ],
)
def test_load_refuses_an_extra_value(tmp_path, field, lines, message):
    text = "\n".join([f"%%MatrixMarket matrix coordinate {field} general", *lines, ""])
    path = write_mtx(tmp_path / "m.mtx", text)
    with pytest.raises(ValueError, match=f"^malformed Matrix Market file {re.escape(path)}: {re.escape(message)}$"):
        load_matrix_market(path)


@pytest.mark.parametrize(
    "lines, end",
    [
        (["", "%", "", "2 2 2", "", "1 1 1.0", "", "2 2 2.0", ""], "\n"),
        (["2 2 2  ", "1 1 1.0 \t", "2 2 2.0   "], "\n"),
        (["2 2 2", "1 1 1.0", "2 2 2.0"], "\r\n"),
        (["2 2 2", "1 1 1.0", "2 2 2.0"], ""),
        # Entries are one stream of tokens, as the format's reference
        # reader scans them with fscanf; scipy refused both layouts.
        (["2 2 2", "1 1", "1.0 2 2 2.0"], "\n"),
        (["2 2 2", "+1 01 +1.0", "2 2 2.0"], "\n"),
    ],
    ids=["blank-lines", "trailing-spaces", "crlf", "no-final-newline", "entries-across-lines", "signed-and-padded"],
)
def test_load_accepts_layouts_around_the_values(tmp_path, lines, end):
    newline = "\r\n" if end == "\r\n" else "\n"
    text = newline.join(["%%MatrixMarket matrix coordinate real general", *lines]) + end
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode("ascii"))
    assert reference.entries(load_matrix_market(str(path))) == {(0, 0): 1.0, (1, 1): 2.0}


# Values that scipy's reader reads only in part, by its longest valid
# prefix (0x10 and 0x1p3 as 0, the integer field's 1.5 and 1e5 as 1):
# decompose wrote the coefficient 1.0 for the entry 1D3.
MISREAD_VALUES = [
    ("real", v) for v in
    ["1.0x", "1e5x", "1.2.3", "1e5e3", "1+2", "1-", "1e+", "1.0e", "1_0", "1d3", "1D3", "0x10", "0x1p3", "2.0,"]
] + [("integer", "1.5"), ("integer", "1e5"), ("integer", "3x"), ("complex", "1.0 2.0x")]


@pytest.mark.parametrize("field, values", MISREAD_VALUES, ids=[f"{f}-{v}" for f, v in MISREAD_VALUES])
def test_load_refuses_a_value_read_in_part(tmp_path, field, values):
    bad = values.split()[-1]
    want = reference.INTEGER if field == "integer" else reference.DECIMAL_NUMBER
    assert not want.fullmatch(bad)
    first = "2 2 1 0" if field == "complex" else "2 2 1"
    text = f"%%MatrixMarket matrix coordinate {field} general\n% a comment\n2 2 2\n{first}\n1 1 {values}\n"
    path = write_mtx(tmp_path / "m.mtx", text)
    kind = "an integer" if field == "integer" else "a decimal number"
    message = f"malformed Matrix Market file {path}: value {bad!r} on line 5 is not {kind}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_matrix_market(path)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_load_still_refuses_nan_and_inf_as_non_finite(tmp_path, value):
    path = write_mtx(tmp_path / "m.mtx", f"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {value}\n")
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) stores a non-finite value$"):
        load_matrix_market(path)


@pytest.mark.parametrize("value", [".5", "-.5", "5.", "5.e-1", "-0", "1E+2"])
def test_load_reads_every_decimal_form(tmp_path, value):
    # A value with no digit before its point is read by the slow check.
    path = write_mtx(tmp_path / "m.mtx", f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 {value}\n2 2 1\n")
    want = {(0, 0): complex(float(value))} if float(value) else {}
    assert reference.entries(load_matrix_market(path)) == {**want, (1, 1): 1.0}


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(["real", "integer"]),
    value=st.text(alphabet="0123456789+-.eExdD_ ", min_size=1, max_size=8).filter(str.strip),
)
def test_load_reads_whole_values_or_refuses(tmp_path_factory, field, value):
    # A loaded value is float(value), or int(value) in an integer field, bit
    # for bit; a value outside the reference grammar never loads.
    path = tmp_path_factory.mktemp("mtx") / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate {field} general\n2 2 1\n1 1 {value}\n")
    grammar = reference.INTEGER if field == "integer" else reference.DECIMAL_NUMBER
    try:
        m = load_matrix_market(str(path))
    except ValueError:
        return
    assert grammar.fullmatch(value.strip())
    number = float(int(value)) if field == "integer" else float(value)
    want = {} if abs(number) <= ZERO_TOL else {(0, 0): complex(number)}
    assert reference.entries(m) == want
    assert all(v.real == number and math.copysign(1, v.real) == math.copysign(1, number) for v in m.vals)


def _real_tokens(x: float | int, loose: bool) -> list[str]:
    """Spellings of ``x`` that read as ``x``: JSON numbers, and with
    ``loose`` the forms JSON refuses (+1, 5., .5, 01).  An int is spelt as
    an integer, which a real field rounds to the nearest float."""
    if isinstance(x, int):
        return _integer_tokens(x, loose)
    text = repr(x)
    forms = [text, re.sub(r"e(?=\d)", "E+", text).upper(), f"{x:.20e}"]
    if x.is_integer() and abs(x) < 2**63:
        forms.append(("-" if math.copysign(1, x) < 0 else "") + str(abs(int(x))))
    if loose:
        sign, digits = ("-", text[1:]) if text[0] == "-" else ("+", text)
        forms += [sign + digits, sign + "0" + digits]
        if digits.startswith("0."):
            forms.append(sign + digits[1:])
        if x.is_integer() and abs(x) < 2**63:
            forms.append(sign + str(abs(int(x))) + ".")
    return forms


def _integer_tokens(k: int, loose: bool) -> list[str]:
    forms = [str(k)]
    if loose:
        sign, digits = ("-", str(-k)) if k < 0 else ("+", str(k))
        forms += [sign + digits, sign + "00" + digits]
    return forms


@st.composite
def matrix_market_files(draw) -> bytes:
    """Matrix Market files that scipy.io.mmread reads, once a token's
    leading + is dropped: real, complex and integer fields, values in
    every spelling, duplicates that cancel, and the layouts around them."""
    field = draw(st.sampled_from(["real", "complex", "integer"]))
    dim = 1 << draw(st.integers(1, 3))
    # Plain tokens and layouts are JSON once the separators are commas;
    # loose tokens take the forms JSON refuses, and loose layouts runs of
    # separators.
    loose, runs = draw(st.booleans()), draw(st.booleans())
    if field == "integer":
        # Symmetric, so that a cancelling entry stays in int64.
        number = st.one_of(st.integers(-9, 9), st.integers(1 - (1 << 63), (1 << 63) - 1))
    else:
        number = st.one_of(
            st.floats(-1e300, 1e300, allow_subnormal=True),
            st.integers(-9, 9).map(float),
            st.integers(-(1 << 62), 1 << 62).map(float),
            st.integers(-(1 << 65), 1 << 65),
        )

    def spelt(v, spellings=_integer_tokens if field == "integer" else _real_tokens):
        return draw(st.sampled_from(spellings(v, loose)))

    width = 2 if field == "complex" else 1
    coordinate = st.integers(1, dim)
    entries = draw(st.lists(st.tuples(coordinate, coordinate, st.lists(number, min_size=width, max_size=width)), max_size=8))
    if entries and draw(st.booleans()):
        r, c, vals = entries[0]
        entries.append((r, c, [-v for v in vals]))  # cancels the first entry
    tokens = [[spelt(r, _integer_tokens), spelt(c, _integer_tokens), *map(spelt, vals)] for r, c, vals in entries]
    if field == "real" and draw(st.booleans()):  # an integer past 2^64 and a negative zero
        tokens.append(["1", "1", "123456789012345678901234567890"])
        tokens.append(["1", "1", "-0"])
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t"] if runs else [" ", "\t"]))
    end = draw(st.sampled_from(["\n", "\r\n", "  \n", "\n\n"])) if runs else "\n"
    head = draw(st.sampled_from([[], ["%"], ["% a comment", ""], [""]]))
    lines = [f"%%MatrixMarket matrix coordinate {field} general", *head, f"{dim} {dim} {len(tokens)}"]
    text = end.join(lines + [sep.join(line) for line in tokens])
    return (text + draw(st.sampled_from(["", end]))).encode("ascii")


@settings(max_examples=400, deadline=None)
@given(text=matrix_market_files())
@example(text=b"%%MatrixMarket matrix coordinate real general\n4 4 3\n+1 01 +1\n2 2 5.\n3 3 .5\n")
@example(text=b"%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1E+2 -0\n1 1 -1E+2 0\n")
@example(text=b"%%MatrixMarket matrix coordinate integer general\r\n\r\n2 2 1\r\n2\t1  -9223372036854775808 \r\n")
def test_load_equals_scipy_mmread_bit_for_bit(tmp_path_factory, text):
    # Both of the reader's paths run here: orjson over the file's tokens,
    # and the token-by-token reader.
    path = tmp_path_factory.mktemp("mtx") / "m.mtx"
    path.write_bytes(text)
    reference.assert_same_arrays(load_matrix_market(str(path)), reference.read_matrix_market(str(path)))


@pytest.mark.parametrize(
    "row, build",
    [
        (2**63, lambda: SparseMatrix.from_entries(1, Coo(np.array([2**63], dtype=np.uint64), np.array([0]), np.array([1.0])))),
    ],
    ids=["uint64-coo"],
)
def test_coordinates_past_int64_are_outside_the_matrix(row, build):
    # The uint64 row wrapped to -2^63.
    with pytest.raises(ValueError, match=rf"^entry \({row}, 0\) outside 2x2 matrix$"):
        build()


def test_to_dense_cases():
    m = SparseMatrix.from_entries(1, reference.coo([(1, 0, 1.0)]))
    assert np.array_equal(m.to_dense(), np.array([[0, 0], [1, 0]], dtype=complex))

    empty = SparseMatrix.from_entries(1, reference.coo([]))
    assert np.array_equal(empty.to_dense(), np.zeros((2, 2), dtype=complex))

    corner = SparseMatrix.from_entries(2, reference.coo([(0, 3, 1.0), (3, 0, 2.0)]))
    dense = corner.to_dense()
    assert dense[0, 3] == 1.0 and dense[3, 0] == 2.0
    assert np.count_nonzero(dense) == 2


def test_to_dense_guard():
    m = SparseMatrix.from_entries(15, reference.coo([(0, 0, 1.0)]))
    with pytest.raises(ValueError, match="limited to 12 qubits, got 15"):
        m.to_dense()


def test_dense_round_trip_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        dim = 1 << n
        dense = np.zeros((dim, dim), dtype=complex)
        for _ in range(int(rng.integers(1, dim))):
            r, c = rng.integers(0, dim, size=2)
            dense[r, c] = complex(rng.standard_normal(), rng.standard_normal())
        m = SparseMatrix.from_dense(dense)
        assert SparseMatrix.from_dense(m.to_dense()) == m
        assert m.nnz == np.count_nonzero(dense)


def test_matrix_market_round_trip(tmp_path):
    m = SparseMatrix.from_entries(2, reference.coo([(0, 3, 1.5), (3, 0, complex(0, -2.0)), (2, 2, 4.0)]))
    path = str(tmp_path / "rt.mtx")
    save_matrix_market(m, path)
    assert load_matrix_market(path) == m


def test_matrix_market_real_round_trip(tmp_path):
    m = SparseMatrix.from_entries(1, reference.coo([(0, 1, -3.0)]))
    path = str(tmp_path / "rt.mtx")
    save_matrix_market(m, path)
    with open(path) as fh:
        assert "real" in fh.readline()
    assert load_matrix_market(path) == m


def test_frobenius_distance():
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert frobenius_distance(m, m) == 0.0
    assert frobenius_distance(np.array([[1.0]]), np.array([[0.0]])) == 1.0
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1, 0]], dtype=complex)
    assert frobenius_distance(a, b) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_frobenius_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        frobenius_distance(np.zeros((2, 2)), np.zeros((4, 4)))


def test_from_entries_refuses_non_integer_triples():
    # int() truncated 0.9 to 0, storing the entry at (0, 0).  Triples are
    # refused whole now: three integer triples would unpack as rows, cols
    # and vals, and build another matrix.
    for items in ([(0.9, 0, 1.0)], [(0, 1, 1), (1, 0, 1), (1, 1, 1)]):
        with pytest.raises(TypeError, match="^from_entries takes Coo arrays, got list$"):
            SparseMatrix.from_entries(1, items)


def test_from_entries_refuses_non_integer_arrays():
    # The int64 cast truncated 1.7 to 1, storing the entry at (1, 0).
    with pytest.raises(ValueError, match="^coordinates must be integers, got float64 values$"):
        SparseMatrix.from_entries(1, Coo(np.array([1.7]), np.array([0]), np.array([1.0])))
    coo = Coo(np.array([1], dtype=np.int32), np.array([0], dtype=np.uint8), np.array([1.0]))
    assert SparseMatrix.from_entries(1, coo) == reference.stored_matrix(1, {(1, 0): 1.0})
    # An empty array holds no coordinate, whatever its dtype.
    empty = np.array([])
    assert SparseMatrix.from_entries(1, Coo(empty, empty, empty)) == reference.stored_matrix(1, {})
    # Arrays that are not a Coo are refused, not unpacked.
    with pytest.raises(TypeError, match="^from_entries takes Coo arrays, got tuple$"):
        SparseMatrix.from_entries(1, tuple(coo))


def test_removed_constructors_refuse_every_call():
    with pytest.raises(TypeError):
        SparseMatrix(1, {(0, 1): 2.0})
    with pytest.raises(TypeError):
        Decomposition(1, [SigmaTerm(1.0, "P")])


def test_entries_validated():
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix.from_entries(1, reference.coo([(2, 0, 1.0)]))
    assert SparseMatrix.from_entries(1, reference.coo([(0, 0, 0.0)])) == reference.stored_matrix(1, {})


# The last is finite, but its magnitude overflows a float.
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf), complex(1.7e308, 1.7e308)])
def test_non_finite_entries_refused_by_every_constructor(bad):
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix.from_entries(1, reference.coo([(0, 0, 1.0), (1, 1, bad)]))
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, bad]], dtype=complex))


def test_overflowing_magnitude_in_matrix_market_is_refused(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.7e308 1.7e308\n",
    )
    with pytest.raises(ValueError, match=r"entry \(0, 0\) stores a non-finite value"):
        load_matrix_market(path)


def test_opposite_infinities_are_refused_not_pruned():
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix.from_entries(1, reference.coo([(0, 0, math.inf), (0, 0, -math.inf)]))


# Every builder of a dense 2^n x 2^n array, called one qubit past the
# limit, where the array would take 1 GiB; and the Pauli decomposition one
# mask past its budget of 2^25 mask x column values (2^12 masks at 13 qubits).
WIDE = 13
LADDERS = (SigmaFactor.SPLUS,) * WIDE
OVER_MASK_BUDGET = SparseMatrix.from_entries(WIDE, reference.coo([(x, 0, 1.0) for x in range(4097)]))
GUARDED_BUILDERS = {
    "to_dense": lambda: reference.stored_matrix(WIDE, {(0, 0): 1.0}).to_dense(),
    "completion_matrix": lambda: completion_matrix(SigmaTerm(1.0, LADDERS)),
    "circuit_to_matrix": lambda: circuit_to_matrix(Circuit(WIDE, ())),
    "decompose_pauli": lambda: decompose_pauli(OVER_MASK_BUDGET),
    # 12 system qubits and one term: no selector, plus the completion ancilla.
    "assemble": lambda: assemble(Decomposition.build(WIDE - 1, [SigmaTerm(1.0, LADDERS[1:])])),
}

REFUSALS = {"decompose_pauli": rf"limited to 2\^25 mask x column values, got 4097 x 2\^{WIDE}$"}


@pytest.mark.parametrize("name", sorted(GUARDED_BUILDERS))
def test_dense_builders_refuse_before_allocating(name):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=REFUSALS.get(name, f"limited to 12 qubits, got {WIDE}")):
            GUARDED_BUILDERS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda: SparseMatrix.from_entries(40, reference.coo([])),
    lambda: SparseMatrix.from_entries(32, reference.coo([])),
    # An all-identity term would hold 2^40 entries.
    lambda: term_matrix(SigmaTerm(1.0, "I" * 40)),
])
def test_sparse_width_refused_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^sparse matrices limited to 31 qubits, got (40|32)$"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda: SparseMatrix.from_entries(1, reference.coo([(0, 0, 1.0)]), tol=math.nan),
    # A NaN tolerance would otherwise keep the zeros of the diagonal.
    lambda: SparseMatrix.from_dense(np.diag([1.0, 2.0]), tol=math.nan),
])
def test_nan_tolerance_is_refused(build):
    with pytest.raises(ValueError, match="^zero-prune tolerance must be a number, got nan$"):
        build()


# Signed zeros, values pruned at ZERO_TOL, values whose sum overflows, and
# non-finite values, next to ordinary ones.
EDGE_PARTS = [0.0, -0.0, 1.0, -1.0, 2.5, 1e-15, -3e-15, 1e308, -1.7e308, math.nan, math.inf, -math.inf]


@st.composite
def triples(draw):
    """A width and (row, col, value) triples on few coordinates, so that
    most draws repeat a coordinate and some sums cancel to zero."""
    n = draw(st.integers(1, 3))
    index = st.integers(0, (1 << n) - 1)
    part = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(-4, 4))
    items = draw(st.lists(st.tuples(index, index, part, part), max_size=24))
    return n, [(r, c, complex(re, im)) for r, c, re, im in items]


@settings(max_examples=400, deadline=None)
@given(case=triples(), tol=st.sampled_from([ZERO_TOL, 0.75]))
@example(case=(2, []), tol=ZERO_TOL)
@example(case=(1, [(0, 0, 1.0), (0, 0, -1.0), (1, 0, complex(-0.0, 2.0))]), tol=ZERO_TOL)
@example(case=(1, [(1, 1, complex(-0.0, -0.0)), (1, 1, 3.0)]), tol=ZERO_TOL)
@example(case=(1, [(0, 1, math.inf), (0, 1, -math.inf)]), tol=ZERO_TOL)
def test_from_entries_matches_dict_reference(case, tol):
    """Coo arrays coalesce to the bytes of the dict loop over their
    triples, and sums the loop refuses (NaN, infinite or overflowing) are
    refused."""
    n, items = case
    try:
        want = reference.from_entries(n, items, tol)
    except (ValueError, OverflowError):
        with pytest.raises(ValueError, match="non-finite"):
            SparseMatrix.from_entries(n, reference.coo(items), tol)
        return
    reference.assert_same_arrays(SparseMatrix.from_entries(n, reference.coo(items), tol), want)


# Parts whose text is hardest to get right: signed zeros, the smallest
# subnormal, the largest float, integers with trailing zeros, and values
# whose shortest digits need the full 17.
TEXT_PARTS = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1.0, -7.0, 100.0, 1e22, 2.4, 0.1, 1 / 3, 2.0**-1074 * 3]


@st.composite
def stored_matrices(draw):
    """A matrix of 1-14 qubits stored as given, real or complex, with parts
    drawn from every float and from ``TEXT_PARTS``.  Entries whose
    magnitude is zero or overflows are left out."""
    n = draw(st.integers(1, 14))
    index = st.integers(0, (1 << n) - 1)
    part = st.one_of(st.sampled_from(TEXT_PARTS), st.floats(allow_nan=False, allow_infinity=False))
    imag = part if draw(st.booleans()) else st.sampled_from([0.0, -0.0])
    items = draw(st.lists(st.tuples(index, index, part, imag), max_size=40))
    entries = {(r, c): complex(re, im) for r, c, re, im in items}
    return reference.stored_matrix(n, {k: v for k, v in entries.items() if ZERO_TOL < reference.magnitude(v) < math.inf})


@settings(max_examples=300, deadline=None)
@given(m=stored_matrices())
@example(m=reference.stored_matrix(1, {}))
@example(m=reference.stored_matrix(14, {(9998, 9999): complex(-3.0, -0.0), (9999, 0): complex(1e22, 0.0)}))
@example(m=reference.stored_matrix(14, {(9998, 9999): complex(5e-324, 2.0), (9999, 0): complex(-0.0, -1e-3)}))
def test_matrix_market_bytes_match_scipy(m, tmp_path_factory):
    path = tmp_path_factory.mktemp("mtx") / "m.mtx"
    save_matrix_market(m, str(path))
    assert path.read_bytes() == reference.matrix_market_bytes(m)


_ENTRIES = [(0, 0, 1.5), (1, 1, 1.5), (0, 3, 2j), (3, 2, -1.0)]
_MATRIX = SparseMatrix.from_entries(2, reference.coo(_ENTRIES))
_SIGMA_TERMS = [SigmaTerm(1.0, "PI"), SigmaTerm(2j, "AB")]

# Every constructor of the three columnar values, public or private;
# SparseMatrix and Decomposition are the one they share, _from_columns alone.
COLUMNAR_CONSTRUCTORS = {
    "SparseMatrix": lambda: reference.stored_matrix(2, {(r, c): v for r, c, v in _ENTRIES}),
    "from_entries": lambda: SparseMatrix.from_entries(2, reference.coo(_ENTRIES)),
    "from_dense": lambda: SparseMatrix.from_dense(_MATRIX.to_dense()),
    "term_matrix": lambda: term_matrix(SigmaTerm(3.0, "PI")),
    "Decomposition": lambda: reference.stored_decomposition(2, _SIGMA_TERMS),
    "build": lambda: Decomposition.build(2, _SIGMA_TERMS + _SIGMA_TERMS),
    "_coalesced": lambda: Decomposition._coalesced(2, np.array([b"PI", b"MA", b"PI"]), [1.0, 2.0, 3.0]),
    "decompose_numerical": lambda: decompose_numerical(_MATRIX),
    "merge_terms": lambda: merge_terms(decompose_numerical(_MATRIX)),
    "decompose_pauli": lambda: decompose_pauli(_MATRIX),
}


@pytest.mark.parametrize("construct", COLUMNAR_CONSTRUCTORS.values(), ids=COLUMNAR_CONSTRUCTORS)
def test_columnar_values_are_read_only_and_equal_field_by_field(construct):
    value = construct()
    names = [f.name for f in dataclasses.fields(value)]
    fields = [getattr(value, name) for name in names]
    assert names[0] == "n_qubits" and len(fields) > 2
    for column in fields[1:]:
        assert isinstance(column, np.ndarray) and column.size and not column.flags.writeable
    # Equal fields in fresh arrays make an equal value.
    assert value == type(value)._from_columns(fields[0], *(column.copy() for column in fields[1:]))
    for i, name in enumerate(names):
        changed = list(fields)
        if i == 0:
            changed[0] += 1
        else:
            changed[i] = fields[i].copy()
            changed[i].flat[-1] += 1
        assert value != type(value)._from_columns(*changed), name
    others = [construct() for construct in COLUMNAR_CONSTRUCTORS.values()]
    for other in [tuple(fields), None, *(o for o in others if type(o) is not type(value))]:
        assert (value == other) is False and (other == value) is False
    if isinstance(value, Decomposition):
        assert hash(value) == hash(construct())
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
