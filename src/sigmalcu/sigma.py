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
from functools import cached_property
from typing import Iterable

import numpy as np

from . import _codec
from .matrices import SPARSE_QUBIT_LIMIT, ZERO_TOL, Coo, SparseMatrix, _coalesce, _magnitudes, _require_width


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


@dataclass(frozen=True, init=False, eq=False)
class Decomposition:
    """Sigma terms over a shared register width, held as two columns.

    ``factors`` is a read-only ``(len, n_qubits)`` uint8 array holding one
    factor string per row as ASCII codes, so that its rows viewed as
    ``S{n_qubits}`` strings sort and search like the strings themselves;
    the rows are sorted and unique (an empty decomposition holds a
    ``(0, 0)`` array, whatever its width).  ``coeffs`` holds the complex128
    coefficients.  ``terms`` builds the matching :class:`SigmaTerm` tuple
    on first use.

    ``Decomposition(n, terms)`` stores the given terms sorted by string,
    with their coefficients as given; it refuses a term of another width
    and a repeated string.  :meth:`build` sums equal strings instead.
    """

    n_qubits: int
    factors: np.ndarray
    coeffs: np.ndarray

    def __init__(self, n_qubits: int, terms: Iterable[SigmaTerm]) -> None:
        terms = tuple(terms)
        _require_register(n_qubits)
        for t in terms:
            if t.n_qubits != n_qubits:
                raise ValueError(f"term width {t.n_qubits} does not match register {n_qubits}")
        _refuse_repeats([t.factors for t in terms])
        terms = tuple(sorted(terms, key=lambda t: t.factors))
        keys = np.array([t.factors for t in terms], dtype="S")
        coeffs = np.array([t.coeff for t in terms], dtype=complex)
        self._store(n_qubits, _rows(keys, n_qubits), coeffs)
        object.__setattr__(self, "terms", terms)

    def _store(self, n_qubits: int, factors: np.ndarray, coeffs: np.ndarray) -> None:
        for array in (factors, coeffs):
            array.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def keys(self) -> np.ndarray:
        """The factor strings as a sorted ``S{n_qubits}`` array."""
        if not len(self):  # an empty S1 array, whatever the width
            return np.empty(0, dtype="S1")
        return self.factors.view(f"S{self.n_qubits}").ravel()

    @cached_property
    def terms(self) -> tuple[SigmaTerm, ...]:
        return tuple(map(SigmaTerm, self.coeffs.tolist(), self.keys.astype(str).tolist()))

    @classmethod
    def build(cls, n_qubits: int, terms: Iterable[SigmaTerm]) -> "Decomposition":
        """Sum the coefficients of equal factor strings, prune and sort."""
        terms = list(terms)
        return cls._coalesced(
            n_qubits, np.array([t.factors for t in terms], dtype="S"), [t.coeff for t in terms]
        )

    @classmethod
    def _coalesced(cls, n_qubits: int, keys: np.ndarray, coeffs) -> "Decomposition":
        """Terms from parallel factor strings (a bytes array) and
        coefficients, coalesced by :func:`matrices._coalesce`.  Refuses a
        sum that is not finite in magnitude, a register below one qubit and
        a kept string of another width, in that order."""
        keys, coeffs = _coalesce(keys, coeffs)
        bad = ~(_magnitudes(coeffs) < math.inf)
        if bad.any():
            coeff = complex(coeffs[bad.argmax()])
            raise ValueError(f"sigma term coefficient {coeff} is not finite in magnitude")
        _require_register(n_qubits)
        widths = np.char.str_len(keys)
        if (widths != n_qubits).any():
            width = widths[(widths != n_qubits).argmax()]
            raise ValueError(f"term width {width} does not match register {n_qubits}")
        out = object.__new__(cls)
        out._store(n_qubits, _rows(keys, n_qubits), coeffs)
        return out

    def __len__(self) -> int:
        return self.coeffs.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and np.array_equal(self.factors, other.factors)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.factors.tobytes()))


def _rows(keys: np.ndarray, n_qubits: int) -> np.ndarray:
    """Factor strings of width ``n_qubits`` as ``(len, n_qubits)`` uint8
    rows of ASCII codes.  No strings give a ``(0, 0)`` array: numpy
    refuses a dimension of 2**63 or more, which a width may be."""
    if not keys.size:
        return np.empty((0, 0), dtype=np.uint8)
    return keys.astype(f"S{n_qubits}").view(np.uint8).reshape(-1, n_qubits)


def _require_register(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")


def _refuse_repeats(strings: list[str]) -> None:
    """Refuse the first factor string listed a second time."""
    if len(set(strings)) == len(strings):
        return
    seen = set()
    for f in strings:
        if f in seen:
            raise ValueError(f"duplicate factor string {f}")
        seen.add(f)


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
    return Decomposition._coalesced(n, _CHAR_AT_BITS[pairs].view(f"S{n}").ravel(), m.vals)


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


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each wanted string sits in the sorted ``keys``, and whether it
    is there."""
    at = np.searchsorted(keys, wanted)
    found = np.zeros(wanted.size, dtype=bool)
    inside = at < keys.size
    found[inside] = keys[at[inside]] == wanted[inside]
    return at, found


def merge_terms(d: Decomposition) -> Decomposition:
    """Greedy projector merging: two terms with equal coefficients whose
    strings differ at exactly one position holding {s+s-, s-s+} collapse to
    one term with identity there (|0><0| + |1><1| = I).

    Coefficients a and b count as equal when |a - b| <= ZERO_TOL *
    max(1, |a|, |b|), so rounding does not block a merge.  The merged term
    takes their mean, added to the coefficient of its string if present
    and dropped unless the total's magnitude exceeds ZERO_TOL;
    reconstruction stays exact when a == b.

    Scans positions left to right until a fixpoint.  At one position every
    s+s- string has exactly one s-s+ partner and no other merge there
    touches either, so each position merges all its pairs at once, on the
    sorted string array: a partner is found by binary search.  The term
    count never increases; minimality is not claimed.
    """
    n = d.n_qubits
    spsm, smsp, ident = (ord(f.value) for f in (SigmaFactor.SPSM, SigmaFactor.SMSP, SigmaFactor.IDENT))
    keys, coeffs = d.keys, d.coeffs
    changed = True
    while changed:
        changed = False
        for p in range(n):
            rows = keys.view(np.uint8).reshape(-1, n)
            cand = np.flatnonzero(rows[:, p] == spsm)
            partners = rows[cand]
            partners[:, p] = smsp
            at, found = _lookup(keys, partners.view(f"S{n}").ravel())
            cand, at = cand[found], at[found]
            a, b = coeffs[cand], coeffs[at]
            with np.errstate(over="ignore", invalid="ignore"):
                equal = ~(_magnitudes(a - b) > ZERO_TOL * np.maximum(1.0, np.maximum(abs(a), abs(b))))
                mean = (a[equal] + b[equal]) / 2
            if not equal.any():
                continue
            merged = rows[cand[equal]]
            merged[:, p] = ident
            merged = merged.view(f"S{n}").ravel()  # sorted, as the candidates are
            gone = np.zeros(keys.size, dtype=bool)
            gone[cand[equal]] = gone[at[equal]] = True
            keys, coeffs = keys[~gone], coeffs[~gone]
            # The mean is added to the coefficient of the merged string, or
            # to 0j where there is none; a total not above ZERO_TOL is gone.
            at, found = _lookup(keys, merged)
            base = np.zeros(merged.size, dtype=complex)
            base[found] = coeffs[at[found]]
            with np.errstate(over="ignore", invalid="ignore"):
                total = base + mean
            keys, coeffs = np.delete(keys, at[found]), np.delete(coeffs, at[found])
            kept = _magnitudes(total) > ZERO_TOL
            at = np.searchsorted(keys, merged[kept])
            keys, coeffs = np.insert(keys, at, merged[kept]), np.insert(coeffs, at, total[kept])
            changed = True
    return Decomposition._coalesced(n, keys, coeffs)


# A decomposition file as ASCII bytes, laid out as json.dumps(..., indent=1)
# lays out {"n_qubits": n, "terms": [{"re": .., "im": .., "factors": ..}]}:
# the text before the terms, the text of one term around its values, and
# the text after the last term's ",\n".
_JSON_HEAD = b'{\n "n_qubits": %d,\n "terms": [\n'
_JSON_TERM = (b'  {\n   "re": ', b',\n   "im": ', b',\n   "factors": "', b'"\n  },\n')
_JSON_TAIL = b'\n ]\n}\n'


def _float_column(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each value, as json writes a float, padded
    with NUL bytes to one width: a ``(len, width)`` uint8 array.  Each
    distinct bit pattern is formatted once."""
    bits, at = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype="S")
    return texts[at].view(np.uint8).reshape(at.size, -1)


def _json_text(d: Decomposition) -> str:
    """The text ``json.dumps(payload, indent=1, allow_nan=False) + "\\n"``
    writes for ``d``, byte for byte, with the same refusal of a non-finite
    number.  Each term is one row of bytes, its fixed text around its
    values; the values are padded with NUL bytes, which the file never
    holds and which are dropped from the joined rows."""
    parts = np.stack([d.coeffs.real, d.coeffs.imag], axis=-1).ravel()
    bad = ~np.isfinite(parts)
    if bad.any():
        raise ValueError(f"Out of range float values are not JSON compliant: {float(parts[bad.argmax()])!r}")
    if not len(d):
        return '{\n "n_qubits": %d,\n "terms": []\n}\n' % d.n_qubits
    before_re, before_im, before_factors, after = (
        np.broadcast_to(np.frombuffer(t, dtype=np.uint8), (len(d), len(t))) for t in _JSON_TERM
    )
    re, im = _float_column(d.coeffs.real), _float_column(d.coeffs.imag)
    rows = np.concatenate([before_re, re, before_im, im, before_factors, d.factors, after], axis=1)
    terms = rows[rows != 0].tobytes()[: -len(b",\n")]
    return (_JSON_HEAD % d.n_qubits + terms + _JSON_TAIL).decode("ascii")


def from_json_dict(data: dict) -> Decomposition:
    """The decomposition a file holds, read term by term into two arrays,
    which names the first faulty term.  A factor string listed twice is
    refused; pruning and sorting are :meth:`Decomposition._coalesced`'s."""
    n = _codec.field(data, "n_qubits", int)
    factors, coeffs = [], []
    for item in _codec.field(data, "terms", list):
        t = SigmaTerm.from_string(_codec.complex_field(item), _codec.field(item, "factors", str))
        factors.append(t.factors)
        coeffs.append(t.coeff)
    _refuse_repeats(factors)
    return Decomposition._coalesced(n, np.array(factors, dtype="S"), coeffs)


def save_decomposition(d: Decomposition, path: str) -> None:
    text = _json_text(d)  # rendered first, so a refused value leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_decomposition(path: str) -> Decomposition:
    d = from_json_dict(_codec.read_json(path))
    if not len(d):
        raise ValueError(f"decomposition {path} has no terms")
    return d
