"""Sigma-basis terms and decompositions.

The sigma basis is the five-operator set

    I,  s+ = |0><1|,  s- = |1><0|,  s+s- = |0><0|,  s-s+ = |1><1|,

whose n-fold tensor products are 0/1 matrices with at most one nonzero per
row and column.  A decomposition writes a matrix as ``sum_l coeff_l * T_l``
with each ``T_l`` such a tensor product.  Sparse structured matrices often
need exponentially fewer terms here than in the Pauli basis, at the price
of the factors being non-unitary; the ``circuits`` module restores
unitarity via completion.

Factor strings are encoded with one character per tensor position,
position 0 first (most significant qubit):

    I -> identity, P -> s+, M -> s-, A -> s+s-, B -> s-s+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import _codec
from .matrices import SPARSE_QUBIT_LIMIT, ZERO_TOL, Coo, SparseMatrix, _coalesce, _require_width


class SigmaFactor(str, Enum):
    """Single-qubit factor.  Each member is its own one-character text
    encoding, so tables keyed by members answer lookups by character."""

    IDENT = "I"
    SPLUS = "P"  # |0><1|
    SMINUS = "M"  # |1><0|
    SPSM = "A"  # |0><0|
    SMSP = "B"  # |1><1|

    @property
    def matrix(self) -> np.ndarray:
        return _FACTOR_MATRICES[self]

    @property
    def bit_pairs(self) -> tuple[tuple[int, int], ...]:
        """(row_bit, col_bit) positions holding a 1 in the 2x2 matrix."""
        return _FACTOR_BIT_PAIRS[self]

    @property
    def is_ladder(self) -> bool:
        """True for s+ and s-, the factors completed by X."""
        return all(r != c for r, c in self.bit_pairs)


_FACTOR_MATRICES = {
    SigmaFactor.IDENT: np.eye(2, dtype=complex),
    SigmaFactor.SPLUS: np.array([[0, 1], [0, 0]], dtype=complex),
    SigmaFactor.SMINUS: np.array([[0, 0], [1, 0]], dtype=complex),
    SigmaFactor.SPSM: np.array([[1, 0], [0, 0]], dtype=complex),
    SigmaFactor.SMSP: np.array([[0, 0], [0, 1]], dtype=complex),
}

# Derived from the matrices once, at import.
_FACTOR_BIT_PAIRS = {
    f: tuple((int(r), int(c)) for r, c in zip(*np.nonzero(m)))
    for f, m in _FACTOR_MATRICES.items()
}

# Factor carrying a 1 at (row_bit, col_bit); the single-entry decomposition
# of a matrix places one of these per qubit.
FACTOR_FROM_BITS = {
    pairs[0]: f for f, pairs in _FACTOR_BIT_PAIRS.items() if len(pairs) == 1
}

# str.translate tables from a factor string to base-2 digits: the row bit
# and the column bit of each single-entry factor's 1 (0 at the identity),
# and a 1 at the identity.
_ROW_DIGITS, _COL_DIGITS = (
    str.maketrans(
        {SigmaFactor.IDENT.value: "0"} | {f.value: str(bits[k]) for bits, f in FACTOR_FROM_BITS.items()}
    )
    for k in (0, 1)
)
_IDENT_DIGITS = str.maketrans({f.value: str(int(f is SigmaFactor.IDENT)) for f in SigmaFactor})

_ALPHABET = "".join(SigmaFactor)

# Character of the single-entry factor at (row_bit, col_bit), indexed by
# 2 * row_bit + col_bit.
_CHAR_AT_BITS = np.frombuffer(
    "".join(FACTOR_FROM_BITS[(k >> 1, k & 1)].value for k in range(4)).encode("ascii"),
    dtype=np.uint8,
)


def _magnitude(c: complex) -> float:
    """``|c|``, reading inf where a finite ``c``'s magnitude overflows."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, slots=True)
class SigmaTerm:
    """Complex coefficient times a factor string, the term's key wherever
    terms are summed, merged or sorted.  Factor members are joined into it."""

    coeff: complex
    factors: str

    def __post_init__(self) -> None:
        factors = self.factors
        if type(factors) is not str:  # a sequence of members, or one member
            factors = "".join(factors)
            object.__setattr__(self, "factors", factors)
        if factors.strip(_ALPHABET):
            raise ValueError(f"invalid factor string {factors!r}")
        if not factors:
            raise ValueError("a sigma term needs at least one factor")
        if not _magnitude(self.coeff) < math.inf:
            raise ValueError(f"sigma term coefficient {self.coeff} is not finite in magnitude")

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @classmethod
    def from_string(cls, coeff: complex, factors: str) -> "SigmaTerm":
        """The term of a factor string; spaces between factors are ignored."""
        cleaned = factors.replace(" ", "")
        if cleaned.strip(_ALPHABET):  # refused here to quote the text as given
            raise ValueError(f"invalid factor string {factors!r}")
        return cls(complex(coeff), cleaned)


@dataclass(frozen=True)
class Decomposition:
    """List of sigma terms over a shared register width.

    Factor strings are unique (equal strings have their coefficients
    summed) and sorted, so construction through :meth:`build` is
    deterministic.
    """

    n_qubits: int
    terms: tuple[SigmaTerm, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        seen = set()
        for t in self.terms:
            if t.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term width {t.n_qubits} does not match register {self.n_qubits}"
                )
            if t.factors in seen:
                raise ValueError(f"duplicate factor string {t.factors}")
            seen.add(t.factors)

    @classmethod
    def build(cls, n_qubits: int, terms: Iterable[SigmaTerm]) -> "Decomposition":
        """Sum the coefficients of equal factor strings, prune and sort."""
        terms = list(terms)
        return cls._coalesced(n_qubits, [t.factors for t in terms], [t.coeff for t in terms])

    @classmethod
    def _coalesced(cls, n_qubits: int, factors, coeffs) -> "Decomposition":
        """Terms from parallel factor strings and coefficients, coalesced
        by :func:`matrices._coalesce`; a term refuses a non-finite sum."""
        factors, coeffs = _coalesce(factors, coeffs)
        return cls(n_qubits, tuple(map(SigmaTerm, coeffs.tolist(), factors.tolist())))

    def __len__(self) -> int:
        return len(self.terms)


def decompose_numerical(m: SparseMatrix) -> Decomposition:
    """One term per nonzero entry.

    Entry ``(r, c, v)`` becomes ``v`` times the factor string whose qubit-p
    factor has its single 1 at ``(bit_p(r), bit_p(c))``; the identity factor
    is never emitted on this path.  ``reconstruct`` inverts it exactly.
    """
    if not m.nnz:
        raise ValueError("cannot decompose an empty matrix")
    n = m.n_qubits
    shifts = np.arange(n - 1, -1, -1)
    pairs = 2 * ((m.rows[:, None] >> shifts) & 1) + ((m.cols[:, None] >> shifts) & 1)
    keys = _CHAR_AT_BITS[pairs].view(f"S{n}").ravel().astype(str)
    return Decomposition._coalesced(n, keys, m.vals)


def _digits(t: SigmaTerm) -> tuple[str, str, str]:
    """The term's identity, row-bit and column-bit digit strings, one digit
    per position; only the ladders s+ and s- have unequal row and column."""
    f = t.factors
    return f.translate(_IDENT_DIGITS), f.translate(_ROW_DIGITS), f.translate(_COL_DIGITS)


def term_matrix(t: SigmaTerm) -> SparseMatrix:
    """Kronecker product of the factors scaled by the coefficient.

    The nonzero positions are exactly the index pairs whose per-qubit bits
    pick a 1 in every factor, so a term with k identity factors has 2**k
    nonzeros.
    """
    # Refused before 2**k offsets are allocated.
    _require_width(t.n_qubits, "sparse matrices", SPARSE_QUBIT_LIMIT)
    if _magnitude(t.coeff) <= ZERO_TOL:
        return SparseMatrix(t.n_qubits, {})
    ident, row, col = (int(d, 2) for d in _digits(t))
    # Every identity factor doubles the entries: the offsets are the sums
    # of all subsets of the identity bit weights, built in increasing order
    # by adding each weight, lowest first, to the offsets so far.
    offsets = np.zeros(1 << ident.bit_count(), dtype=np.int64)
    size = 1
    while ident:
        weight = ident & -ident
        np.add(offsets[:size], weight, out=offsets[size : 2 * size])
        ident ^= weight
        size *= 2
    rows = row + offsets
    cols = col + offsets
    # Sorted and unique by construction, and the term's coefficient is
    # finite; 0j + coeff is its sum as matrices._coalesce forms it.
    vals = np.full(offsets.size, 0j + t.coeff)
    return SparseMatrix._from_sorted(t.n_qubits, rows, cols, vals)


def reconstruct(d: Decomposition) -> SparseMatrix:
    """Entrywise sum of all term matrices, pruned at ``ZERO_TOL``: one
    coalescing pass over the terms' arrays, summed in term order."""
    parts = [term_matrix(t) for t in d.terms]
    if not parts:
        return SparseMatrix(d.n_qubits, {})
    coo = Coo(
        np.concatenate([p.rows for p in parts]),
        np.concatenate([p.cols for p in parts]),
        np.concatenate([p.vals for p in parts]),
    )
    return SparseMatrix.from_entries(d.n_qubits, coo)


def completion(t: SigmaTerm) -> list[str]:
    """Per-position completion factors, "X" or "I".

    Ladder factors (s+, s-) complete to X; identity and the projectors
    complete to I.  The Kronecker product of the result is the unitary
    completion of the term's 0/1 matrix: it agrees with the term on the
    term's column span and extends it to a permutation matrix.
    """
    return ["X" if r != c else "I" for _, r, c in zip(*_digits(t))]


def completion_matrix(t: SigmaTerm) -> np.ndarray:
    """Dense Kronecker product of :func:`completion` (a permutation matrix).

    The product flips the bit of every ladder position, so column c has
    its one at row c ^ mask, with mask holding those bits.
    """
    _require_width(t.n_qubits, "completion_matrix")
    _, row, col = _digits(t)
    mask = int(row, 2) ^ int(col, 2)
    dim = 1 << t.n_qubits
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    out[cols ^ mask, cols] = 1.0
    return out


def merge_terms(d: Decomposition) -> Decomposition:
    """Greedy projector merging: two terms with equal coefficients whose
    strings differ at exactly one position holding {s+s-, s-s+} collapse to
    one term with identity there (|0><0| + |1><1| = I).

    Coefficients a and b count as equal when |a - b| <= ZERO_TOL *
    max(1, |a|, |b|), so rounding does not block a merge.  The merged term
    takes their mean; reconstruction stays exact when a == b.

    Scans positions left to right until a fixpoint.  At one position every
    s+s- string has exactly one s-s+ partner and no other merge there
    touches either, so the order of the candidates does not matter.  The
    term count never increases; minimality is not claimed.
    """
    spsm, smsp, ident = (f.value for f in (SigmaFactor.SPSM, SigmaFactor.SMSP, SigmaFactor.IDENT))
    coeffs = {t.factors: t.coeff for t in d.terms}
    changed = True
    while changed:
        changed = False
        for p in range(d.n_qubits):
            for key in [k for k in coeffs if k[p] == spsm]:
                head, tail = key[:p], key[p + 1 :]
                partner = head + smsp + tail
                a, b = coeffs[key], coeffs.get(partner)
                if b is None or _magnitude(a - b) > ZERO_TOL * max(1.0, abs(a), abs(b)):
                    continue
                del coeffs[key], coeffs[partner]
                coeff = (a + b) / 2
                merged = head + ident + tail
                total = coeffs.get(merged, 0j) + coeff
                if _magnitude(total) > ZERO_TOL:
                    coeffs[merged] = total
                elif merged in coeffs:
                    coeffs.pop(merged)
                changed = True
    return Decomposition._coalesced(d.n_qubits, list(coeffs), list(coeffs.values()))


def to_json_dict(d: Decomposition) -> dict:
    return {
        "n_qubits": d.n_qubits,
        "terms": [
            {"re": t.coeff.real, "im": t.coeff.imag, "factors": t.factors}
            for t in d.terms
        ],
    }


def from_json_dict(data: dict) -> Decomposition:
    n = _codec.field(data, "n_qubits", int)
    terms = [
        SigmaTerm.from_string(_codec.complex_field(item), _codec.field(item, "factors", str))
        for item in _codec.field(data, "terms", list)
    ]
    return Decomposition.build(n, terms)


def save_decomposition(d: Decomposition, path: str) -> None:
    _codec.write_json(path, to_json_dict(d), indent=1)


def load_decomposition(path: str) -> Decomposition:
    d = from_json_dict(_codec.read_json(path))
    if not d.terms:
        raise ValueError(f"decomposition {path} has no terms")
    return d
