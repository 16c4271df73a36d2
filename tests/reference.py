"""Slow references for the vectorized sparse core, kept for property tests.

Each function is the one-entry-at-a-time loop the package used before its
sparse matrices became sorted COO arrays and its sigma terms were keyed by
factor string.  They still work on tuples of factor enums, converted from
each term's string with ``tuple(map(SigmaFactor, t.factors))``, so they
stay independent of the string tables.  The property tests in
``test_matrices.py`` and ``test_sigma.py`` require the fast versions to
agree with these bit for bit (:func:`assert_same_arrays`).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from sigmalcu.matrices import ZERO_TOL, SparseMatrix
from sigmalcu.sigma import FACTOR_FROM_BITS, Decomposition, SigmaFactor, SigmaTerm


def assert_same_arrays(got: SparseMatrix, want: SparseMatrix) -> None:
    """Equal width, and coordinate and value arrays equal byte for byte."""
    assert got.n_qubits == want.n_qubits
    for name in ("rows", "cols", "vals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def from_entries(
    n_qubits: int, items: Iterable[tuple[int, int, complex]], tol: float = ZERO_TOL
) -> SparseMatrix:
    """A dict of running sums started at 0j, one triple at a time, then a
    prune at ``max(tol, ZERO_TOL)`` that keeps NaN sums."""
    acc: dict[tuple[int, int], complex] = {}
    for r, c, v in items:
        key = (int(r), int(c))
        acc[key] = acc.get(key, 0j) + complex(v)
    floor = max(tol, ZERO_TOL)
    return SparseMatrix(n_qubits, {k: v for k, v in acc.items() if not abs(v) <= floor})


def build(n_qubits: int, terms: Iterable[SigmaTerm], tol: float = ZERO_TOL) -> Decomposition:
    """``Decomposition.build`` keyed by tuples of factor enums."""
    acc: dict[tuple[SigmaFactor, ...], complex] = {}
    for t in terms:
        factors = tuple(map(SigmaFactor, t.factors))
        acc[factors] = acc.get(factors, 0j) + t.coeff
    kept = [SigmaTerm(c, fs) for fs, c in acc.items() if not abs(c) <= tol]
    kept.sort(key=lambda t: t.factors)
    return Decomposition(n_qubits, tuple(kept))


def term_matrix(t: SigmaTerm) -> SparseMatrix:
    """One entry per choice of a 1 in every factor, summed by
    :func:`from_entries`."""
    entries = []
    for pairs in itertools.product(*(f.bit_pairs for f in map(SigmaFactor, t.factors))):
        r = 0
        c = 0
        for row_bit, col_bit in pairs:
            r = (r << 1) | row_bit
            c = (c << 1) | col_bit
        entries.append((r, c, t.coeff))
    return from_entries(t.n_qubits, entries)


def reconstruct(d: Decomposition) -> SparseMatrix:
    items = []
    for t in d.terms:
        items.extend((r, c, v) for (r, c), v in term_matrix(t).entries.items())
    return from_entries(d.n_qubits, items)


def decompose_numerical(m: SparseMatrix) -> Decomposition:
    """One term per stored entry, its factors read off bit by bit."""
    n = m.n_qubits
    terms = []
    for (r, c), v in m.entries.items():
        factors = tuple(
            FACTOR_FROM_BITS[((r >> (n - 1 - p)) & 1, (c >> (n - 1 - p)) & 1)]
            for p in range(n)
        )
        terms.append(SigmaTerm(v, factors))
    return build(n, terms)


def merge_terms(d: Decomposition) -> Decomposition:
    """Projector merging over tuples of factor enums."""
    A, B, I = SigmaFactor.SPSM, SigmaFactor.SMSP, SigmaFactor.IDENT
    coeffs = {tuple(map(SigmaFactor, t.factors)): t.coeff for t in d.terms}
    changed = True
    while changed:
        changed = False
        for p in range(d.n_qubits):
            for factors in [fs for fs in coeffs if fs[p] is A]:
                partner = factors[:p] + (B,) + factors[p + 1 :]
                a, b = coeffs[factors], coeffs.get(partner)
                if b is None or abs(a - b) > ZERO_TOL * max(1.0, abs(a), abs(b)):
                    continue
                del coeffs[factors], coeffs[partner]
                coeff = (a + b) / 2
                merged = factors[:p] + (I,) + factors[p + 1 :]
                total = coeffs.get(merged, 0j) + coeff
                if abs(total) > ZERO_TOL:
                    coeffs[merged] = total
                elif merged in coeffs:
                    coeffs.pop(merged)
                changed = True
    return build(d.n_qubits, (SigmaTerm(c, fs) for fs, c in coeffs.items()))
