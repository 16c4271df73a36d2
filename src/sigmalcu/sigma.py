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
from .matrices import SPARSE_QUBIT_LIMIT, ZERO_TOL, Coo, SparseMatrix, _Columnar
from .matrices import _coalesce, _magnitudes, _require_width


class SigmaFactor(str, Enum):
    """Single-qubit factor.  Each member is its own one-character text
    encoding, so tables keyed by members answer lookups by character."""

    IDENT = "I"
    SPLUS = "P"  # |0><1|
    SMINUS = "M"  # |1><0|
    SPSM = "A"  # |0><0|
    SMSP = "B"  # |1><1|


# The alphabet's one table: the factor whose single 1 sits at (row_bit,
# col_bit).  The identity is the factor without a single 1.  The
# single-entry decomposition of a matrix places one of these per qubit.
FACTOR_FROM_BITS = {
    (0, 0): SigmaFactor.SPSM,
    (0, 1): SigmaFactor.SPLUS,
    (1, 0): SigmaFactor.SMINUS,
    (1, 1): SigmaFactor.SMSP,
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
    """``|c|`` as a float, reading inf where it overflows: the magnitude
    of a finite complex, or an int past float range."""
    try:
        return float(abs(c))
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
            if isinstance(self.coeff, int):  # quoted by its size: str() of a long int is refused
                bits = self.coeff.bit_length()
                raise ValueError(f"sigma term {factors} coefficient is a {bits}-bit integer, not finite in magnitude")
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
        try:
            coeff = complex(coeff)
        except OverflowError:  # an int past float range, refused as the term is built
            pass
        return cls(coeff, cleaned)


@dataclass(frozen=True, init=False, eq=False)
class Decomposition(_Columnar):
    """Sigma terms over a shared register width, held as two columns.

    ``factors`` is a read-only ``(len, n_qubits)`` uint8 array holding one
    factor string per row as ASCII codes, so that its rows viewed as
    ``S{n_qubits}`` strings sort and search like the strings themselves.
    ``coeffs`` holds the complex128 coefficients.  ``terms`` builds the
    matching :class:`SigmaTerm` tuple on first use.

    Every value holds what a decomposition file may hold: at least one
    term, sorted unique strings of width ``n_qubits >= 1``, and each
    coefficient above ``ZERO_TOL`` and finite in magnitude, so lambda =
    sum |coeff| is positive.  :meth:`build` makes one from terms, summing
    equal strings and pruning zero sums.
    """

    n_qubits: int
    factors: np.ndarray
    coeffs: np.ndarray

    @property
    def keys(self) -> np.ndarray:
        """The factor strings as a sorted ``S{n_qubits}`` array."""
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
        coefficients, coalesced by :func:`matrices._coalesce` and checked
        by :func:`_checked`."""
        return cls._from_columns(*_checked(n_qubits, *_coalesce(keys, coeffs)))

    def __len__(self) -> int:
        return self.coeffs.size

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.factors.tobytes()))


def _checked(n_qubits: int, keys: np.ndarray, coeffs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The fields of a decomposition over sorted unique factor strings (a
    bytes array) and coefficients above ``ZERO_TOL`` in magnitude: the one
    check of its invariant.  Refuses a coefficient that is not finite in
    magnitude, a register below one qubit, no terms and a string of
    another width, in that order."""
    bad = ~(_magnitudes(coeffs) < math.inf)
    if bad.any():
        coeff = complex(coeffs[bad.argmax()])
        raise ValueError(f"sigma term coefficient {coeff} is not finite in magnitude")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if not keys.size:
        raise ValueError(f"decomposition has no terms above {ZERO_TOL} in magnitude")
    widths = np.char.str_len(keys)
    if (widths != n_qubits).any():
        width = widths[(widths != n_qubits).argmax()]
        raise ValueError(f"term width {width} does not match register {n_qubits}")
    return n_qubits, keys.astype(f"S{n_qubits}").view(np.uint8).reshape(-1, n_qubits), coeffs


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
        empty = np.empty(0, dtype=np.int64)
        return SparseMatrix._from_columns(t.n_qubits, empty, empty, np.empty(0, dtype=complex))
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
    return SparseMatrix._from_columns(t.n_qubits, rows, cols, vals)


def reconstruct(d: Decomposition) -> SparseMatrix:
    """Entrywise sum of all term matrices, pruned at ``ZERO_TOL``: one
    coalescing pass over the terms' arrays, summed in term order."""
    parts = [term_matrix(t) for t in d.terms]
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
    takes their mean ``a / 2 + b / 2``, added to the coefficient of its
    string if present and dropped if the total's magnitude is at or below
    ZERO_TOL; reconstruction stays exact when a == b.  A total that is not
    finite in magnitude is refused.

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
            if not equal.any():
                continue
            # Halved before adding, so that the mean of two finite values is
            # finite; for normal numbers this is (a + b) / 2 bit for bit.  An
            # infinite total of an earlier merge halves to NaN, refused at the end.
            with np.errstate(invalid="ignore"):
                mean = a[equal] / 2 + b[equal] / 2
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
            kept = ~(_magnitudes(total) <= ZERO_TOL)  # a non-finite total is kept, and refused
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


def _json_text(d: Decomposition) -> str:
    """The text ``json.dumps(payload, indent=1, allow_nan=False) + "\\n"``
    writes for ``d``, byte for byte, with the same refusal of a non-finite
    number.  Each term is one row of bytes (:func:`_codec.join_rows`), its
    fixed text around its values, which ``float.__repr__`` writes as json
    does."""
    _codec.require_finite(d.coeffs)
    before_re, before_im, before_factors, after = _JSON_TERM
    re, im = _codec.float_column(d.coeffs.real), _codec.float_column(d.coeffs.imag)
    terms = _codec.join_rows([before_re, re, before_im, im, before_factors, d.factors, after])[: -len(b",\n")]
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
    return _codec.read_json(path, from_json_dict)
