"""Sparse complex matrices of power-of-two dimension.

A matrix is stored in coordinate (COO) form as three numpy arrays: ``rows``
and ``cols`` (int64) and ``vals`` (complex128), sorted row-major with no
repeated coordinate and no stored zero.  The dimension is fixed to
``2**n_qubits``.  Bit ``p`` of a row or column index is the value of qubit
``p``, with ``p = 0`` the most significant bit, i.e.
``r = sum_p 2**(n-1-p) * bit_p``.  This convention is shared by every
module in the package.

All values are immutable after construction (:class:`_Columnar` makes the
arrays read-only); operations return new objects and are safe to call
concurrently.

Matrix Market files are read from their bytes, parsed by orjson (imported on
the first read), and written with numpy alone, byte for byte as
``scipy.io.mmwrite`` writes them; the package imports no scipy.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple

import numpy as np

from . import _codec
from ._codec import _require_power_of_two

# Magnitudes at or below this are zero: pruned from sparse entries and
# merged coefficients, and skipped as selector phases and PREP reflections.
# All the matrices this package targets have O(1) integer-like entries, far
# above it.
ZERO_TOL = 1e-14

# Widest register held as a dense 2^n x 2^n complex array: 2^24 values,
# 256 MiB.
DENSE_QUBIT_LIMIT = 12

# Widest matrix that from_entries and term_matrix accept: a (row, col)
# pair packs into one int64 sort key.
SPARSE_QUBIT_LIMIT = 31


def _require_width(n_qubits: int, what: str, limit: int = DENSE_QUBIT_LIMIT) -> None:
    """Raise ValueError before ``what`` allocates arrays for a register wider
    than ``limit`` qubits (by default the dense limit)."""
    if n_qubits > limit:
        raise ValueError(f"{what} limited to {limit} qubits, got {n_qubits}")


def _magnitudes(vals: np.ndarray) -> np.ndarray:
    """``|v|`` per value; a finite value whose magnitude overflows reads inf."""
    with np.errstate(over="ignore"):
        return np.abs(vals)


def _require_tol(tol: float) -> None:
    """Refuse a NaN tolerance, under which no magnitude compares as small."""
    if math.isnan(tol):
        raise ValueError(f"zero-prune tolerance must be a number, got {tol}")


def _coalesce(keys, vals, tol: float = ZERO_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys (packed coordinates or factor strings) and the
    sums of their complex values: the package's one summation rule.  Each
    key's values are added in input order from 0.0, real and imaginary
    parts apart, and sums of magnitude at or below ``max(tol, ZERO_TOL)``
    dropped; NaN and infinite sums are kept for the caller to refuse."""
    _require_tol(tol)
    keys, slot = np.unique(keys, return_inverse=True)
    vals = np.asarray(vals, dtype=complex)
    sums = np.empty(keys.size, dtype=complex)
    sums.real = np.bincount(slot, weights=vals.real, minlength=keys.size)
    sums.imag = np.bincount(slot, weights=vals.imag, minlength=keys.size)
    keep = ~(_magnitudes(sums) <= max(tol, ZERO_TOL))
    return keys[keep], sums[keep]


class Coo(NamedTuple):
    """Unsorted coordinate arrays, possibly with repeated coordinates: the
    input of :meth:`SparseMatrix.from_entries`."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


class _Columnar:
    """Base of the columnar values: a register width, then numpy columns, as
    dataclass fields.  They are set once, the arrays read-only, and a value
    equals another of its type when every field is ``np.array_equal``."""

    @classmethod
    def _from_columns(cls, n_qubits: int, *columns: np.ndarray):
        """The one constructor of every columnar value: ``n_qubits`` and the
        columns as its fields, the columns made read-only, without a check.
        The public builders check first; the columns must hold ``cls``'s
        invariants: for a :class:`SparseMatrix`, coordinates inside it,
        sorted row-major and unique, and values nonzero with finite magnitude."""
        out = object.__new__(cls)
        for array in columns:
            array.flags.writeable = False
        # Past the frozen __setattr__; __match_args__ names the fields, even with init=False.
        vars(out).update(zip(cls.__match_args__, (n_qubits, *columns)))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__match_args__)


@dataclass(frozen=True, init=False, eq=False)
class SparseMatrix(_Columnar):
    """Coordinate-form complex matrix of dimension ``2**n_qubits``.

    Build one with :meth:`from_entries` from :class:`Coo` arrays or with
    :meth:`from_dense`; both sum repeated coordinates and prune magnitudes
    at ``ZERO_TOL``, and refuse a sum that is not finite in magnitude and
    a coordinate that is not an integer or lies outside the matrix.
    """

    n_qubits: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def nnz(self) -> int:
        return self.vals.size

    @classmethod
    def from_entries(cls, n_qubits: int, coo: Coo, tol: float = ZERO_TOL) -> "SparseMatrix":
        """Accumulate :class:`Coo` arrays, coalesced by :func:`_coalesce`;
        a NaN or infinite sum is refused.  Any other input is refused with
        TypeError, not unpacked as three arrays."""
        if not isinstance(coo, Coo):
            raise TypeError(f"from_entries takes Coo arrays, got {type(coo).__name__}")
        rows, cols = _checked_coords(n_qubits, coo.rows, coo.cols)
        keys, sums = _coalesce((rows << n_qubits) | cols, coo.vals, tol)
        rows, cols = keys >> n_qubits, keys & ((1 << n_qubits) - 1)
        _check_values(rows, cols, sums)
        return cls._from_columns(n_qubits, rows, cols, sums)

    @classmethod
    def from_dense(cls, array: np.ndarray, tol: float = ZERO_TOL) -> "SparseMatrix":
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square 2-d array, got shape {arr.shape}")
        n = _require_power_of_two(arr.shape[0])
        rows, cols = np.nonzero(~(_magnitudes(arr) <= tol))
        return cls.from_entries(n, Coo(rows, cols, arr[rows, cols]), tol=tol)

    def to_dense(self) -> np.ndarray:
        """Dense complex array, at most ``DENSE_QUBIT_LIMIT`` qubits wide;
        round trip with :meth:`from_dense` is exact."""
        _require_width(self.n_qubits, "to_dense")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self.rows, self.cols] = self.vals
        return out


def _check_values(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
    """Raise ValueError at the first value whose magnitude is not finite."""
    bad = ~(_magnitudes(vals) < math.inf)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"entry ({rows[i]}, {cols[i]}) stores a non-finite value")


def _checked_coords(n_qubits: int, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and ``cols`` as int64 arrays, after raising ValueError unless
    each holds integers (its dtype is read once, not each value; an empty
    array holds none, whatever its dtype), the register width is supported
    and every coordinate lies inside the ``2**n_qubits`` square.  The check
    reads the integers as given, so that a uint64 past int64 is quoted as
    it is, not wrapped."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    for array in (rows, cols):
        if array.size and array.dtype.kind not in "iu":
            raise ValueError(f"coordinates must be integers, got {array.dtype} values")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    _require_width(n_qubits, "sparse matrices", SPARSE_QUBIT_LIMIT)
    dim = 1 << n_qubits
    outside = (rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"entry ({rows[i]}, {cols[i]}) outside {dim}x{dim} matrix")
    return rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(sum |a_ij - b_ij|^2); shapes must match."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _shown(token: bytes) -> str:
    """A token of a file as a refusal quotes it."""
    return repr(token.decode("ascii", "backslashreplace"))


def _read_head(path: str, fh: BinaryIO) -> tuple[str, int, int, int]:
    """The field, dimension and entry count that a Matrix Market file's
    header and size line declare, and the size line's number, read from
    ``fh`` up to the entry lines, after refusing an unsupported header, a
    size line that is not three non-negative integers and a matrix that is
    not square."""
    header = fh.readline().decode("ascii", "replace").split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ValueError(f"malformed Matrix Market header in {path}")
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise ValueError(f"expected 'matrix coordinate' header, got {obj} {fmt}")
    if field not in ("real", "complex", "integer"):
        raise ValueError(f"unsupported Matrix Market field {field!r}")
    if symmetry != "general":
        raise ValueError(f"unsupported Matrix Market symmetry {symmetry!r}")
    for number, line in enumerate(fh, start=2):  # comment and blank lines, then the size line
        if line.strip() and not line.lstrip().startswith(b"%"):
            break
    else:
        raise ValueError(f"malformed Matrix Market file {path}: no size line")
    sizes = line.split()
    if len(sizes) != 3 or not all(size.isdigit() for size in sizes):
        raise ValueError(
            f"malformed Matrix Market file {path}: "
            f"size line {_shown(line.strip())} on line {number} is not three non-negative integers"
        )
    rows, cols, nnz = map(int, sizes)
    if rows != cols:
        raise ValueError(f"matrix is not square: {rows}x{cols}")
    return field, rows, nnz, number


# bytes.translate table that keeps the bytes of JSON numbers, turns the
# separators (space, and tab to carriage return) into commas and every
# other byte into "#", which no JSON text holds outside a string.
_AS_JSON = bytes(b if b in b"0123456789+-.eE" else ord(",") if b in b" \t\n\v\f\r" else ord("#") for b in range(256))

# One token as the token reader reads it: an integer (a coordinate, or a
# value in an integer field), or a decimal number or, outside integer
# fields, NaN or infinity, which load as non-finite and are refused as such.
_VALUE = {
    "integer": re.compile(rb"[+-]?\d+"),
    "real": re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?(?:nan|inf|infinity)", re.IGNORECASE),
}


def _json_numbers(text: bytes) -> list | None:
    """The whitespace-separated tokens of ``text`` as orjson reads them
    joined by commas into an array, or None if that is no JSON: a run of
    separators, or a token outside JSON's number grammar, itself a subset
    of the decimal numbers a Matrix Market file may hold.  orjson reads an
    integer token as an int, and one outside [-2^63, 2^64) as a float."""
    import orjson  # imported here, as by _codec.read_json

    try:
        return orjson.loads(b"[" + text.translate(_AS_JSON).strip(b",") + b"]")
    except orjson.JSONDecodeError:
        return None


def _packed(code: str, numbers: list) -> np.ndarray:
    """Python numbers as an int64 (``code`` "q") or float64 ("d") array.
    Packing as int64 raises struct.error for a float or an int past int64;
    as float64, each int is rounded to the nearest float."""
    return np.frombuffer(struct.pack(f"{len(numbers)}{code}", *numbers), dtype=code)


def _reals(numbers: list) -> np.ndarray:
    """Python ints and floats as a float64 array, each int rounded to the
    nearest float.  A column of ints packs faster as int64: packing an int
    as a double makes a float object of it first."""
    try:
        return _packed("q", numbers).astype(float)
    except struct.error:
        return _packed("d", numbers)


def _entries(numbers: list, field: str, nnz: int, dim: int) -> Coo | None:
    """The 0-based entries in a file's numbers, ``nnz`` rows of row,
    column and value (real and imaginary parts if complex), or None unless
    there are that many numbers, the coordinates are ints in ``1..dim`` and
    an integer field's values ints in int64.  orjson reads -0 as the int
    0, dropping a sign that ``_coalesce`` drops anyway: it adds each value
    to 0.0."""
    stride = 4 if field == "complex" else 3
    if len(numbers) != nnz * stride:
        return None
    try:
        rows, cols = _packed("q", numbers[0::stride]), _packed("q", numbers[1::stride])
        vals = _packed("q", numbers[2::3]) if field == "integer" else _reals(numbers[2::stride])
    except struct.error:
        return None
    if field == "complex":
        vals = vals.astype(complex)
        vals.imag = _reals(numbers[3::4])
    if ((rows < 1) | (rows > dim) | (cols < 1) | (cols > dim)).any():
        return None
    return Coo(rows - 1, cols - 1, vals)


def _token_numbers(path: str, body: bytes, line: int, field: str, nnz: int, dim: int) -> list:
    """The numbers of the entry lines ``body``, which start after line
    ``line``, read one token at a time with ``int`` and ``float``, after
    raising ValueError unless there are ``nnz`` entries and each token is a
    number of its kind: a coordinate an integer in ``1..dim``, a value an
    integer in int64 in an integer field and a decimal number otherwise."""
    stride = 4 if field == "complex" else 3
    want, got = nnz * stride, len(body.split())
    if got != want:
        raise ValueError(
            f"malformed Matrix Market file {path}: "
            f"expected {want} values for {nnz} {field} entries, got {got}"
        )
    numbers: list = []
    for number, row in enumerate(body.split(b"\n"), start=line + 1):
        for token in row.split():
            role = len(numbers) % stride
            what = ("row", "column")[role] if role < 2 else "value"
            integer = role < 2 or field == "integer"
            if not _VALUE["integer" if integer else "real"].fullmatch(token):
                kind = "an integer" if integer else "a decimal number"
                raise ValueError(
                    f"malformed Matrix Market file {path}: {what} {_shown(token)} on line {number} is not {kind}"
                )
            value = int(token) if integer else float(token)
            low, high = (1, dim) if role < 2 else (-(1 << 63), (1 << 63) - 1)
            if integer and not low <= value <= high:
                raise ValueError(
                    f"malformed Matrix Market file {path}: {what} {_shown(token)} on line {number} is outside {low}..{high}"
                )
            numbers.append(value)
    return numbers


def load_matrix_market(path: str, tol: float = ZERO_TOL) -> SparseMatrix:
    """Read a Matrix Market coordinate file (real, complex or integer,
    general).

    The declared dimensions must be equal and a power of two, and the
    entry lines must hold nnz * (3, or 4 if complex) numbers: each entry's
    1-based row and column, integers in range, then its value, a decimal
    number (an integer in int64 in an integer field).  Entries are read
    as one stream of tokens, as the format's reference reader scans them.
    Duplicate coordinates are summed and pruned at ``tol`` (never below
    ``ZERO_TOL``).

    The file is read once.  orjson parses the entry lines with their
    separators turned into commas; a file that is no JSON that way (a run
    of separators, numbers such as ``+1``, ``5.``, ``.5`` and ``01``, or a
    fault) is read token by token, which quotes the first fault.
    """
    with open(path, "rb") as fh:
        field, dim, nnz, line = _read_head(path, fh)
        body = fh.read()
    n = _require_power_of_two(dim)
    numbers = _json_numbers(body)
    entries = None if numbers is None else _entries(numbers, field, nnz, dim)
    if entries is None:
        entries = _entries(_token_numbers(path, body, line, field, nnz, dim), field, nnz, dim)
    return SparseMatrix.from_entries(n, entries, tol=tol)


def _matrix_market_number(v: float) -> str:
    """A float as fast_matrix_market writes it, and so ``scipy.io.mmwrite``:
    the shortest digits that read back as ``v``, as ``d[.ddd]E<exp>`` with
    ``E0`` left out (``1``, ``-7E-1``, ``2.4``, ``1.25E1``, ``-0``).  The
    digits are those of ``repr(v)``."""
    text = repr(v)
    sign = "-" if text[0] == "-" else ""
    mantissa, _, exp = text.lstrip("-").partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = whole + frac
    significant = digits.lstrip("0")
    if not significant:
        return sign + "0"
    # The power of ten of the first significant digit.
    power = int(exp or 0) + len(whole) - 1 - (len(digits) - len(significant))
    head, tail = significant[0], significant[1:].rstrip("0")
    return sign + head + ("." + tail if tail else "") + (f"E{power}" if power else "")


def save_matrix_market(m: SparseMatrix, path: str) -> None:
    """Write coordinate Matrix Market, general symmetry, entries in
    row-major order: byte for byte what ``scipy.io.mmwrite(path, coo,
    symmetry="general")`` writes for the same entries.  The field is
    complex iff some imaginary part is nonzero.  The text is rendered
    before the file is opened, so that a failure leaves no partial file."""
    is_complex = bool((m.vals.imag != 0).any())
    field = "complex" if is_complex else "real"
    head = f"%%MatrixMarket matrix coordinate {field} general\n%\n{m.dim} {m.dim} {m.nnz}\n"
    columns = [_codec.int_column(m.rows + 1), b" ", _codec.int_column(m.cols + 1), b" "]
    columns.append(_codec.float_column(m.vals.real, _matrix_market_number))
    if is_complex:
        columns += [b" ", _codec.float_column(m.vals.imag, _matrix_market_number)]
    text = head.encode("ascii") + _codec.join_rows([*columns, b"\n"])
    with open(path, "wb") as fh:
        fh.write(text)
