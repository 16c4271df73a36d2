"""Pauli-basis decomposition by bit-flip masks, for term-count comparison.

A Pauli string is a bit flip times a diagonal of signs and phases
(Romero and Santos-Suarez, "PauliComposer", arXiv:2301.00560).  With bit
k of ``x`` set where the factor at position n-1-k is X or Y, and bit k of
``z`` set where it is Z or Y, the string is P(x, z) = i^|x&z| X^x Z^z:
column c holds its one nonzero at row c ^ x, with value
i^|x&z| (-1)^|z&c|.  The coefficient of P(x, z) in a matrix A is then

    Tr(P^dag A) / 2^n = (-i)^|x&z| / 2^n * sum_c (-1)^|z&c| A[c ^ x, c],

the unnormalized Walsh-Hadamard transform over z of the entries on A's
mask-x diagonal.  The nonzeros are grouped by x = row ^ col, and one
transform per mask present gives every coefficient of that mask.  The
transform factors over bits, so it is applied four bits at a time as a
product with the 16 x 16 Hadamard matrix: about 4n multiply-adds per
value.  The work is O(nnz + masks * n * 2^n): for a dense matrix the
O(n * 4^n) of the tensorized transform (Hantzko, Binkowski and Gupta,
arXiv:2310.13421), for a PDE matrix, which has n + 1 masks,
O(n^2 * 2^n).

No string is built: each kept P(x, z) is a base-4 key whose digit at
position n-1-k, 2 z_k + (x ^ z)_k, indexes its factor in ``PAULI_CHARS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import SparseMatrix, _Columnar, _require_tol

PAULI_CHARS = "IXYZ"  # the factor each base-4 digit of a key stands for

# Most mask x column values one decomposition transforms: 4^12 for a dense
# 12-qubit matrix, 21 x 2^20 for poisson s=20.
_MASK_BUDGET = 1 << 25
# Values transformed at once, in whole mask rows: 32 MiB of complex128,
# and as much again for each matrix product.
_CHUNK = 1 << 21

_BYTE = np.arange(256, dtype=np.int64)
_POPCOUNT_8 = sum((_BYTE >> k) & 1 for k in range(8))
_SPREAD_8 = sum(((_BYTE >> k) & 1) << (2 * k) for k in range(8))
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])  # (-i)^k at k mod 4
# Entry (z, c) is (-1)^|z & c|; its top-left 2^b block is that of b bits.
_HADAMARD_16 = (-1.0) ** _POPCOUNT_8[np.bitwise_and.outer(np.arange(16), np.arange(16))]


@dataclass(frozen=True, init=False, eq=False)
class PauliDecomposition(_Columnar):
    """The Pauli strings :func:`decompose_pauli` keeps, as two columns.

    ``keys`` holds each string as an int64 base-4 number, sorted, one digit
    per position, position 0 most significant; digit k stands for
    ``PAULI_CHARS[k]``.  ``coeffs`` holds the complex128 coefficients."""

    n_qubits: int
    keys: np.ndarray
    coeffs: np.ndarray

    def __len__(self) -> int:
        return self.coeffs.size


def _require_mask_budget(masks: int, n_qubits: int) -> None:
    """Raise ValueError before a decomposition of ``masks`` bit-flip masks
    on ``n_qubits`` allocates more than the budget of mask x column values."""
    # masks * 2^n_qubits over budget, without forming masks << n_qubits; a
    # width below 1 is the grid's to refuse, and >> would raise on it.
    if n_qubits >= 1 and masks > _MASK_BUDGET >> n_qubits:
        raise ValueError(
            f"pauli decomposition limited to 2^{_MASK_BUDGET.bit_length() - 1} mask x column values, "
            f"got {masks} x 2^{n_qubits}"
        )


def _popcount(v: np.ndarray, n: int) -> np.ndarray:
    """Number of set bits of each n-bit value."""
    return sum(_POPCOUNT_8[(v >> k) & 255] for k in range(0, n, 8))


def _spread(v: np.ndarray, n: int) -> np.ndarray:
    """Each n-bit value with its bit k moved to bit 2k."""
    return sum(_SPREAD_8[(v >> k) & 255] << (2 * k) for k in range(0, n, 8))


def _walsh_hadamard(block: np.ndarray, n: int) -> None:
    """Unnormalized Walsh-Hadamard transform of each 2^n row of the
    contiguous ``block``, in place: bits k to k + 3 at a time, as a
    product with the Hadamard matrix of those bits."""
    for k in range(0, n, 4):
        size = 1 << min(4, n - k)
        h = _HADAMARD_16[:size, :size]
        if k == 0:  # contiguous groups of ``size``: one matrix product
            v = block.reshape(-1, size)
            v[...] = v @ h
        else:
            v = block.reshape(-1, size, 1 << k)
            v[...] = h @ v


def decompose_pauli(m: SparseMatrix, tol: float = 1e-12) -> PauliDecomposition:
    """All Pauli strings with |Tr(P^dag A)| / 2^n above ``tol``.

    Keys come out sorted, which is string order.  Reconstruction from
    the kept terms matches the input within tol * L in Frobenius norm.  A
    matrix whose masks x 2^n exceed the budget is refused before any
    transform is allocated.  A NaN ``tol`` is refused.
    """
    _require_tol(tol)
    n, dim = m.n_qubits, m.dim
    masks, slot = np.unique(m.rows ^ m.cols, return_inverse=True)
    _require_mask_budget(masks.size, n)
    # A real matrix, such as every PDE system, transforms in real arithmetic.
    vals = m.vals if m.vals.imag.any() else m.vals.real
    per_chunk = max(1, _CHUNK >> n)
    keys, coeffs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=complex)]
    for first in range(0, masks.size, per_chunk):
        x = masks[first : first + per_chunk]
        here = (slot >= first) & (slot < first + x.size)
        block = np.zeros((x.size, dim), dtype=vals.dtype)
        block[slot[here] - first, m.cols[here]] = vals[here]
        _walsh_hadamard(block, n)
        r, z = np.nonzero(np.abs(block) > tol * dim)
        flips = x[r]
        keys.append(_spread(flips ^ z, n) + 2 * _spread(z, n))
        coeffs.append(block[r, z] / dim * _MINUS_I_POWERS[_popcount(flips & z, n) & 3])
    keys, coeffs = np.concatenate(keys), np.concatenate(coeffs)
    order = np.argsort(keys)
    return PauliDecomposition._from_columns(n, keys[order], coeffs[order])
