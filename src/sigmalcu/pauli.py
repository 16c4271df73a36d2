"""Pauli-basis decomposition by a tensorized transform, for term-count comparison.

The coefficient of a Pauli string P in a matrix A is Tr(P^dag A) / 2^n.
Both factorize over qubits, so the entries of A are laid out as a
``(4,)*n`` array whose axis ``p`` is qubit p's (row bit, col bit) pair, and
one 4x4 transform per axis turns the pairs (00, 01, 10, 11) into the traces
against (I, X, Y, Z) (Hantzko, Binkowski and Gupta, "Tensorized Pauli
decomposition algorithm").  The inverse transform rebuilds the matrix from
the coefficients (as in Romero and Santos-Suarez, "PauliComposer").  Both
take n passes over 4^n values instead of a 4^n outer product per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import SparseMatrix, _require_width

PAULI_CHARS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Row k: values of Pauli k at bit pairs (0,0), (0,1), (1,0), (1,1).
_PAULI_AT_PAIR = np.array([PAULI_MATRICES[ch].reshape(-1) for ch in PAULI_CHARS])

_PAULI_BYTES = np.frombuffer(PAULI_CHARS.encode("ascii"), dtype=np.uint8)
_PAULI_DIGITS = str.maketrans(PAULI_CHARS, "0123")


@dataclass(frozen=True)
class PauliTerm:
    coeff: complex
    factors: str  # over "IXYZ", position 0 first

    @property
    def n_qubits(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class PauliDecomposition:
    n_qubits: int
    terms: tuple[PauliTerm, ...]

    def __len__(self) -> int:
        return len(self.terms)


def _transform(a: np.ndarray, n: int, inverse: bool) -> None:
    """Apply the per-qubit 4x4 transform to the flat ``(4,)*n`` array ``a``
    in place, one pair of butterflies per axis.

    Forward, (a00, a01, a10, a11) -> (I, X, Y, Z) = the rows of
    ``_PAULI_AT_PAIR.conj()`` applied to the pair: I, Z = a00 +- a11 and
    X, Y = a01 + a10, i(a01 - a10).  Inverse, (cI, cX, cY, cZ) -> the pair:
    a00, a11 = cI +- cZ and a01, a10 = cX -+ i cY.
    """
    scratch = np.empty(a.size // 4, dtype=complex)
    for p in range(n):
        v = a.reshape(4**p, 4, -1)
        t = scratch.reshape(4**p, -1)
        s0, s1, s2, s3 = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        np.subtract(s0, s3, out=t)
        s0 += s3
        s3[...] = t
        if inverse:
            np.multiply(s2, 1j, out=t)
            np.add(s1, t, out=s2)
            s1 -= t
        else:
            np.subtract(s1, s2, out=t)
            s1 += s2
            np.multiply(t, 1j, out=s2)


def decompose_pauli(m: SparseMatrix, tol: float = 1e-12) -> PauliDecomposition:
    """All Pauli strings with |Tr(P^dag A)| / 2^n above ``tol``.

    Terms come out sorted by factor string.  Reconstruction from the kept
    terms matches the input within tol * L in Frobenius norm.
    """
    n = m.n_qubits
    # The transform holds all 4**n coefficients at once.
    _require_width(n, "pauli decomposition")
    # Bit k of the row goes to bit 2k+1 of the flat index, bit k of the
    # column to bit 2k, so qubit p's pair is digit n-1-p in base 4.
    flat = np.zeros(m.nnz, dtype=np.int64)
    for k in range(n):
        flat |= ((m.rows >> k) & 1) << (2 * k + 1) | ((m.cols >> k) & 1) << (2 * k)
    a = np.zeros(4**n, dtype=complex)
    a[flat] = m.vals
    _transform(a, n, inverse=False)
    a /= m.dim

    kept = np.flatnonzero(np.abs(a) > tol)
    digits = (kept[:, None] >> (2 * np.arange(n - 1, -1, -1))) & 3
    strings = _PAULI_BYTES[digits].view(f"S{n}").ravel().astype(str).tolist()
    coeffs = a[kept].tolist()
    return PauliDecomposition(n, tuple(map(PauliTerm, coeffs, strings)))


def pauli_matrix(factors: str) -> np.ndarray:
    """Dense matrix of a Pauli string, position 0 most significant."""
    _require_width(len(factors), "pauli_matrix")
    out = np.array([[1]], dtype=complex)
    for ch in factors:
        out = np.kron(out, PAULI_MATRICES[ch])
    return out


def pauli_reconstruct(pd: PauliDecomposition) -> np.ndarray:
    """Dense sum of the terms; repeated strings add up."""
    n = pd.n_qubits
    _require_width(n, "pauli_reconstruct")
    index = []
    for t in pd.terms:
        if len(t.factors) != n:
            raise ValueError(f"Pauli string {t.factors!r} does not act on {n} qubits")
        index.append(int(t.factors.translate(_PAULI_DIGITS), 4))
    a = np.zeros(4**n, dtype=complex)
    np.add.at(a, np.array(index, dtype=np.int64), [t.coeff for t in pd.terms])
    _transform(a, n, inverse=True)
    rows_then_cols = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return a.reshape((2,) * (2 * n)).transpose(rows_then_cols).reshape(1 << n, 1 << n)
