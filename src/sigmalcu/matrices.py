"""Sparse complex matrices of power-of-two dimension.

Matrices live in coordinate form: a mapping from ``(row, col)`` to a nonzero
complex value, with the dimension fixed to ``2**n_qubits``.  Bit ``p`` of a
row or column index is the value of qubit ``p``, with ``p = 0`` the most
significant bit, i.e. ``r = sum_p 2**(n-1-p) * bit_p``.  This convention is
shared by every module in the package.

All values are immutable after construction; operations return new objects
and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.io
import scipy.sparse

# Magnitudes at or below this are zero: pruned from sparse entries and
# merged coefficients, and skipped as selector phases and PREP reflections.
# All the matrices this package targets have O(1) integer-like entries, far
# above it.
ZERO_TOL = 1e-14

# Widest register held as a dense 2^n x 2^n complex array or a 4^n Pauli
# vector: 2^24 values, 256 MiB.
DENSE_QUBIT_LIMIT = 12


def _require_power_of_two(dim: int) -> int:
    """Return log2(dim), raising ValueError if dim is not a power of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _require_dense_size(n_qubits: int, what: str) -> None:
    """Raise ValueError before ``what`` allocates a dense array wider than
    ``DENSE_QUBIT_LIMIT`` qubits."""
    if n_qubits > DENSE_QUBIT_LIMIT:
        raise ValueError(f"{what} limited to {DENSE_QUBIT_LIMIT} qubits, got {n_qubits}")


@dataclass(frozen=True)
class SparseMatrix:
    """Coordinate-form complex matrix of dimension ``2**n_qubits``.

    ``entries`` maps ``(row, col)`` to a nonzero complex value.  Use
    :meth:`from_entries` or :meth:`from_dense` to build one from raw data;
    they deduplicate coordinates and prune magnitudes at ``ZERO_TOL``.
    Non-finite entries are refused, whichever constructor is used.
    """

    n_qubits: int
    entries: dict[tuple[int, int], complex]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = self.dim
        for (r, c), v in self.entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r}, {c}) outside {dim}x{dim} matrix")
            if not ZERO_TOL < abs(v) < math.inf:
                kind = "zero" if abs(v) <= ZERO_TOL else "non-finite"
                raise ValueError(f"entry ({r}, {c}) stores a {kind} value")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @classmethod
    def from_entries(
        cls,
        n_qubits: int,
        items: Iterable[tuple[int, int, complex]],
        tol: float = ZERO_TOL,
    ) -> "SparseMatrix":
        """Accumulate (row, col, value) triples, summing duplicate coordinates
        and dropping magnitudes at or below ``max(tol, ZERO_TOL)``.  NaN
        sums are kept, so that construction refuses them."""
        acc: dict[tuple[int, int], complex] = {}
        for r, c, v in items:
            key = (int(r), int(c))
            acc[key] = acc.get(key, 0j) + complex(v)
        floor = max(tol, ZERO_TOL)
        pruned = {k: v for k, v in acc.items() if not abs(v) <= floor}
        return cls(n_qubits, pruned)

    @classmethod
    def from_dense(cls, array: np.ndarray, tol: float = ZERO_TOL) -> "SparseMatrix":
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square 2-d array, got shape {arr.shape}")
        n = _require_power_of_two(arr.shape[0])
        rows, cols = np.nonzero(~(np.abs(arr) <= tol))
        items = [(int(r), int(c), complex(arr[r, c])) for r, c in zip(rows, cols)]
        return cls.from_entries(n, items, tol=tol)

    def to_dense(self) -> np.ndarray:
        """Dense complex array, at most ``DENSE_QUBIT_LIMIT`` qubits wide;
        round trip with :meth:`from_dense` is exact."""
        _require_dense_size(self.n_qubits, "to_dense")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, c), v in self.entries.items():
            out[r, c] = v
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.entries == other.entries


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
    _validate_header(path)
    try:
        coo = scipy.sparse.coo_matrix(scipy.io.mmread(path))
    except ValueError as exc:
        raise ValueError(f"malformed Matrix Market file {path}: {exc}") from exc
    rows, cols = coo.shape
    if rows != cols:
        raise ValueError(f"matrix is not square: {rows}x{cols}")
    n = _require_power_of_two(rows)
    items = zip(coo.row, coo.col, coo.data)
    return SparseMatrix.from_entries(
        n, ((int(r), int(c), complex(v)) for r, c, v in items), tol=tol
    )


def save_matrix_market(m: SparseMatrix, path: str) -> None:
    """Write coordinate Matrix Market; complex field iff any imaginary part."""
    keys = sorted(m.entries)
    rows = np.array([k[0] for k in keys], dtype=int)
    cols = np.array([k[1] for k in keys], dtype=int)
    data = np.array([m.entries[k] for k in keys])
    if not np.any(np.abs(data.imag) > 0):
        data = data.real
    coo = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(m.dim, m.dim))
    scipy.io.mmwrite(path, coo, symmetry="general")
