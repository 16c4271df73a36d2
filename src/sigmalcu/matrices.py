"""Sparse complex matrices of power-of-two dimension.

A matrix is stored in coordinate (COO) form as three numpy arrays: ``rows``
and ``cols`` (int64) and ``vals`` (complex128), sorted row-major with no
repeated coordinate and no stored zero.  The dimension is fixed to
``2**n_qubits``.  Bit ``p`` of a row or column index is the value of qubit
``p``, with ``p = 0`` the most significant bit, i.e.
``r = sum_p 2**(n-1-p) * bit_p``.  This convention is shared by every
module in the package.  ``entries``, a ``{(row, col): value}`` mapping, is
a read-only view derived from the arrays on request, for inspection and
tests; the package's own code reads the arrays.

All values are immutable after construction (the arrays are read-only);
operations return new objects and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

# Magnitudes at or below this are zero: pruned from sparse entries and
# merged coefficients, and skipped as selector phases and PREP reflections.
# All the matrices this package targets have O(1) integer-like entries, far
# above it.
ZERO_TOL = 1e-14

# Widest register held as a dense 2^n x 2^n complex array or a 4^n Pauli
# vector: 2^24 values, 256 MiB.
DENSE_QUBIT_LIMIT = 12

# Widest matrix that from_entries and the mapping constructor accept: a
# (row, col) pair packs into one int64 sort key.
SPARSE_QUBIT_LIMIT = 31


def _require_power_of_two(dim: int) -> int:
    """Return log2(dim), raising ValueError if dim is not a power of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _require_width(n_qubits: int, what: str, limit: int = DENSE_QUBIT_LIMIT) -> None:
    """Raise ValueError before ``what`` allocates arrays for a register wider
    than ``limit`` qubits (by default the dense limit)."""
    if n_qubits > limit:
        raise ValueError(f"{what} limited to {limit} qubits, got {n_qubits}")


def _magnitudes(vals: np.ndarray) -> np.ndarray:
    """``|v|`` per value; a finite value whose magnitude overflows reads inf."""
    with np.errstate(over="ignore"):
        return np.abs(vals)


def _coalesce(keys, vals, tol: float = ZERO_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys (packed coordinates or factor strings) and the
    sums of their complex values: the package's one summation rule.  Each
    key's values are added in input order from 0.0, real and imaginary
    parts apart, and sums of magnitude at or below ``max(tol, ZERO_TOL)``
    dropped; NaN and infinite sums are kept for the caller to refuse."""
    if math.isnan(tol):
        raise ValueError(f"zero-prune tolerance must be a number, got {tol}")
    keys, slot = np.unique(keys, return_inverse=True)
    vals = np.asarray(vals, dtype=complex)
    sums = np.empty(keys.size, dtype=complex)
    sums.real = np.bincount(slot, weights=vals.real, minlength=keys.size)
    sums.imag = np.bincount(slot, weights=vals.imag, minlength=keys.size)
    keep = ~(_magnitudes(sums) <= max(tol, ZERO_TOL))
    return keys[keep], sums[keep]


class Coo(NamedTuple):
    """Unsorted coordinate arrays, possibly with repeated coordinates: the
    array form of the triples :meth:`SparseMatrix.from_entries` takes."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True, init=False, eq=False)
class SparseMatrix:
    """Coordinate-form complex matrix of dimension ``2**n_qubits``.

    ``SparseMatrix(n, {(row, col): value})`` stores the mapping as given.
    Use :meth:`from_entries` or :meth:`from_dense` to build one from raw
    data; they sum repeated coordinates and prune magnitudes at
    ``ZERO_TOL``.  Zero and non-finite entries are refused, whichever
    constructor is used; so is a finite value whose magnitude overflows.
    """

    n_qubits: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __init__(self, n_qubits: int, entries: Mapping[tuple[int, int], complex]) -> None:
        coords = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        rows, cols = coords[:, 0], coords[:, 1]
        _check_coords(n_qubits, rows, cols)
        vals = np.fromiter(entries.values(), dtype=complex, count=len(entries))
        _check_values(rows, cols, vals)
        order = np.argsort((rows << n_qubits) | cols)
        self._store(n_qubits, rows[order], cols[order], vals[order])

    @classmethod
    def _from_sorted(
        cls, n_qubits: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> "SparseMatrix":
        """Matrix over checked arrays: coordinates inside it, sorted
        row-major and unique, and values nonzero with finite magnitude."""
        out = object.__new__(cls)
        out._store(n_qubits, rows, cols, vals)
        return out

    def _store(self, n_qubits: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        for array in (rows, cols, vals):
            array.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def entries(self) -> Mapping[tuple[int, int], complex]:
        """Read-only ``{(row, col): value}`` view, rebuilt on each access."""
        coords = zip(self.rows.tolist(), self.cols.tolist())
        return MappingProxyType(dict(zip(coords, self.vals.tolist())))

    @classmethod
    def from_entries(
        cls,
        n_qubits: int,
        items: Iterable[tuple[int, int, complex]] | Coo,
        tol: float = ZERO_TOL,
    ) -> "SparseMatrix":
        """Accumulate (row, col, value) triples, given one by one or as
        :class:`Coo` arrays, coalesced by :func:`_coalesce`; a NaN or
        infinite sum is refused."""
        if not isinstance(items, Coo):
            triples = [(int(r), int(c), complex(v)) for r, c, v in items]
            items = Coo(
                np.array([t[0] for t in triples], dtype=np.int64),
                np.array([t[1] for t in triples], dtype=np.int64),
                np.array([t[2] for t in triples], dtype=complex),
            )
        rows = np.asarray(items.rows, dtype=np.int64)
        cols = np.asarray(items.cols, dtype=np.int64)
        _check_coords(n_qubits, rows, cols)
        keys, sums = _coalesce((rows << n_qubits) | cols, items.vals, tol)
        rows, cols = keys >> n_qubits, keys & ((1 << n_qubits) - 1)
        _check_values(rows, cols, sums)
        return cls._from_sorted(n_qubits, rows, cols, sums)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )


def _check_values(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
    """Raise ValueError at the first value that is zero or whose magnitude
    is not finite."""
    mag = _magnitudes(vals)
    bad = ~((mag > ZERO_TOL) & (mag < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        kind = "zero" if mag[i] <= ZERO_TOL else "non-finite"
        raise ValueError(f"entry ({rows[i]}, {cols[i]}) stores a {kind} value")


def _check_coords(n_qubits: int, rows: np.ndarray, cols: np.ndarray) -> None:
    """Raise ValueError unless the register width is supported and every
    coordinate lies inside the ``2**n_qubits`` square."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    _require_width(n_qubits, "sparse matrices", SPARSE_QUBIT_LIMIT)
    dim = 1 << n_qubits
    outside = (rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"entry ({rows[i]}, {cols[i]}) outside {dim}x{dim} matrix")


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(sum |a_ij - b_ij|^2); shapes must match."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _validate_header(path: str) -> None:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().strip().split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise ValueError(f"malformed Matrix Market header in {path}")
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise ValueError(f"expected 'matrix coordinate' header, got {obj} {fmt}")
    if field not in ("real", "complex", "integer"):
        raise ValueError(f"unsupported Matrix Market field {field!r}")
    if symmetry != "general":
        raise ValueError(f"unsupported Matrix Market symmetry {symmetry!r}")


def load_matrix_market(path: str, tol: float = ZERO_TOL) -> SparseMatrix:
    """Read a Matrix Market coordinate file (real or complex, general).

    The declared dimensions must be equal and a power of two.  1-indexed
    file entries become 0-indexed; duplicate coordinates are summed and
    pruned at ``tol`` (never below ``ZERO_TOL``).
    """
    import scipy.io  # imported here: only Matrix Market files need scipy
    import scipy.sparse

    _validate_header(path)
    try:
        coo = scipy.sparse.coo_matrix(scipy.io.mmread(path))
    except ValueError as exc:
        raise ValueError(f"malformed Matrix Market file {path}: {exc}") from exc
    rows, cols = coo.shape
    if rows != cols:
        raise ValueError(f"matrix is not square: {rows}x{cols}")
    n = _require_power_of_two(rows)
    return SparseMatrix.from_entries(n, Coo(coo.row, coo.col, coo.data), tol=tol)


def save_matrix_market(m: SparseMatrix, path: str) -> None:
    """Write coordinate Matrix Market; complex field iff any imaginary part."""
    import scipy.io
    import scipy.sparse

    data = m.vals
    if not np.any(np.abs(data.imag) > 0):
        data = data.real
    coo = scipy.sparse.coo_matrix((data, (m.rows, m.cols)), shape=(m.dim, m.dim))
    scipy.io.mmwrite(path, coo, symmetry="general")
