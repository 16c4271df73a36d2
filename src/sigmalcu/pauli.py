"""Pauli-basis decomposition by matrix splicing, for term-count comparison.

The coefficient of a Pauli string P in a matrix A is Tr(P^dag A) / 2^n.
Each trace is accumulated from the sparse entries of A: a Pauli string
factorizes over qubits, so P[r, c] is a product of one tabulated value per
qubit, indexed by the (row_bit, col_bit) pair at that position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import SparseMatrix

PAULI_QUBIT_LIMIT = 10  # 4**n inner products; fine at desk scale

PAULI_CHARS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Row k: values of Pauli k at bit pairs (0,0), (0,1), (1,0), (1,1).
_PAULI_AT_PAIR = np.array([PAULI_MATRICES[ch].reshape(-1) for ch in PAULI_CHARS])


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


def decompose_pauli(m: SparseMatrix, tol: float = 1e-12) -> PauliDecomposition:
    """All Pauli strings with |Tr(P^dag A)| / 2^n above ``tol``.

    Terms come out sorted by factor string.  Reconstruction from the kept
    terms matches the input within tol * L in Frobenius norm.
    """
    n = m.n_qubits
    if n > PAULI_QUBIT_LIMIT:
        raise ValueError(
            f"pauli splicing limited to {PAULI_QUBIT_LIMIT} qubits, got {n}"
        )
    coeffs = np.zeros((4,) * n, dtype=complex)
    for (r, c), v in m.entries.items():
        prod = np.ones((), dtype=complex)
        for p in range(n):
            row_bit = (r >> (n - 1 - p)) & 1
            col_bit = (c >> (n - 1 - p)) & 1
            prod = np.multiply.outer(prod, _PAULI_AT_PAIR[:, 2 * row_bit + col_bit])
        coeffs += v * prod.conj()
    coeffs /= m.dim

    terms = []
    for digits in np.argwhere(np.abs(coeffs) > tol):
        factors = "".join(PAULI_CHARS[d] for d in digits)
        terms.append(PauliTerm(complex(coeffs[tuple(digits)]), factors))
    return PauliDecomposition(n, tuple(terms))


def pauli_matrix(factors: str) -> np.ndarray:
    """Dense matrix of a Pauli string, position 0 most significant."""
    out = np.array([[1]], dtype=complex)
    for ch in factors:
        out = np.kron(out, PAULI_MATRICES[ch])
    return out


def pauli_reconstruct(pd: PauliDecomposition) -> np.ndarray:
    out = np.zeros((1 << pd.n_qubits, 1 << pd.n_qubits), dtype=complex)
    for t in pd.terms:
        out += t.coeff * pauli_matrix(t.factors)
    return out
