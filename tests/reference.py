"""Slow references for the package's fast paths, kept for property tests.

The sparse-core functions are the one-entry-at-a-time loops the package
used before its sparse matrices became sorted COO arrays and its sigma
terms were keyed by factor string.  They still work on tuples of factor
enums, converted from each term's string with
``tuple(map(SigmaFactor, t.factors))``, so they stay independent of the
string tables.  The property tests in ``test_matrices.py`` and
``test_sigma.py`` require the fast versions to agree with these bit for
bit (:func:`assert_same_arrays`).  :func:`merge_terms` is the dict loop
that ``sigma.merge_terms`` ran before decompositions became arrays,
:func:`decomposition_json` writes a decomposition file through
``json.dumps`` and :func:`from_json_dict` reads one term object at a time.

:func:`hadamard_test_circuits` builds the full Hadamard-test circuits
that ``expectation`` evaluates from a cached prefix and index
permutations; ``test_expectation.py`` runs them gate by gate as the
reference, and ``test_golden.py`` pins their file format.

:func:`row_swap_circuit` and :func:`build_dilation_circuit` build the
pattern swap by the recursion the package used before its one-loop
ladder: flip the first differing bit, recurse on a copy of the bits with
that flip applied, and flip back.  ``test_circuits.py`` requires equal
gate lists.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterable

from sigmalcu import _codec
from sigmalcu.circuits import CLOSED, OPEN, Circuit, Gate, _controlled_term
from sigmalcu.expectation import _H, StateOracle, _oracle_gate
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


def magnitude(c: complex) -> float:
    """``abs(c)``, reading inf where a finite ``c``'s magnitude overflows."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def merge_terms(d: Decomposition) -> Decomposition:
    """Projector merging as the dict loop the package used before its
    decompositions became arrays, keyed by tuples of factor enums: one
    candidate at a time, scanning positions left to right until a pass
    merges nothing."""
    A, B, I = SigmaFactor.SPSM, SigmaFactor.SMSP, SigmaFactor.IDENT
    coeffs = {tuple(map(SigmaFactor, t.factors)): t.coeff for t in d.terms}
    changed = True
    while changed:
        changed = False
        for p in range(d.n_qubits):
            for factors in [fs for fs in coeffs if fs[p] is A]:
                partner = factors[:p] + (B,) + factors[p + 1 :]
                a, b = coeffs[factors], coeffs.get(partner)
                if b is None or magnitude(a - b) > ZERO_TOL * max(1.0, magnitude(a), magnitude(b)):
                    continue
                del coeffs[factors], coeffs[partner]
                coeff = (a + b) / 2
                merged = factors[:p] + (I,) + factors[p + 1 :]
                total = coeffs.get(merged, 0j) + coeff
                if magnitude(total) > ZERO_TOL:
                    coeffs[merged] = total
                elif merged in coeffs:
                    coeffs.pop(merged)
                changed = True
    return build(d.n_qubits, (SigmaTerm(c, fs) for fs, c in coeffs.items()))


def decomposition_json(d: Decomposition) -> str:
    """The file text of ``d`` as the package wrote it before its template
    writer: one dict per term, in order, through ``json.dumps`` with
    ``indent=1``."""
    terms = [
        {"re": c.real, "im": c.imag, "factors": f.decode()}
        for c, f in zip(d.coeffs.tolist(), d.keys.tolist())
    ]
    payload = {"n_qubits": d.n_qubits, "terms": terms}
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def from_json_dict(data: dict) -> Decomposition:
    """A decomposition file's JSON read term by term into
    :class:`SigmaTerm` objects and summed by :func:`build`, as the package
    read it before it refused a repeated string."""
    n = _codec.field(data, "n_qubits", int)
    terms = [
        SigmaTerm.from_string(_codec.complex_field(item), _codec.field(item, "factors", str))
        for item in _codec.field(data, "terms", list)
    ]
    return build(n, terms)


def hadamard_test_circuits(
    u: StateOracle,
    v: StateOracle,
    term: SigmaTerm,
    m: StateOracle | None = None,
    ti: SigmaTerm | None = None,
) -> tuple[Circuit, Circuit]:
    """(real, imaginary) interference circuits for <0| U^dag T V |0>, or
    with an observable ``m`` and left term ``ti`` for <0| U^dag Ti^t M T V |0>.

    Both circuits hold the same gate objects: H, controlled V,
    open-controlled U, controlled T on a0, and for the sandwich the doubly
    controlled M and the open-controlled Ti, then the closing H.  The
    imaginary circuit adds an S^dag on a0 after the first H.
    """
    width = term.n_qubits + 2
    body = [
        _oracle_gate(v, (0, CLOSED)),
        _oracle_gate(u, (0, OPEN)),
        *_controlled_term(term, width, ((0, CLOSED),)).gates,
    ]
    if m is not None:
        # Observable fires on a0 = 1 and a1 = 0, i.e. on the branch holding
        # T |psi2> rather than its completion remainder.
        body.append(_oracle_gate(m, (0, CLOSED), (1, OPEN)))
        body.extend(_controlled_term(ti, width, ((0, OPEN),)).gates)
    ancillas = frozenset({0, 1})
    real = Circuit(width, (_H, *body, _H), ancillas)
    imaginary = Circuit(width, (_H, Gate("sdg", (0,)), *body, _H), ancillas)
    return real, imaginary


def pattern_swap_gates(
    active: tuple[int, ...], bits_a: dict[int, int], bits_b: dict[int, int]
) -> list[Gate]:
    """MCX sequence exchanging the two patterns given as {qubit: bit} on
    ``active``: 2m - 1 gates for patterns differing in m bits."""
    diff = [q for q in active if bits_a[q] != bits_b[q]]
    if not diff:
        raise ValueError("patterns are identical")

    def controls_for(bits: dict[int, int], target: int) -> tuple[tuple[int, str], ...]:
        return tuple((q, CLOSED if bits[q] else OPEN) for q in active if q != target)

    if len(diff) == 1:
        return [Gate("x", (diff[0],), controls_for(bits_a, diff[0]))]
    pivot = diff[0]
    outer = Gate("x", (pivot,), controls_for(bits_a, pivot))
    flipped = dict(bits_a)
    flipped[pivot] = 1 - flipped[pivot]
    return [outer, *pattern_swap_gates(active, flipped, bits_b), outer]


def row_swap_circuit(n_qubits: int, row_a: int, row_b: int) -> Circuit:
    active = tuple(range(n_qubits))
    bits_a = {q: (row_a >> (n_qubits - 1 - q)) & 1 for q in active}
    bits_b = {q: (row_b >> (n_qubits - 1 - q)) & 1 for q in active}
    return Circuit(n_qubits, tuple(pattern_swap_gates(active, bits_a, bits_b)))


def build_dilation_circuit(term: SigmaTerm) -> Circuit:
    """X on the ancilla (qubit 0), then the swap of the nonzero-row pattern
    (ancilla 0) with the nonzero-column pattern (ancilla 1) on the ancilla
    and the non-identity positions, read from each factor's one (row, col)
    pair."""
    factors = tuple(map(SigmaFactor, term.factors))
    fixed = [p for p, f in enumerate(factors, start=1) if f is not SigmaFactor.IDENT]
    bits_row = {0: 0} | {p: factors[p - 1].bit_pairs[0][0] for p in fixed}
    bits_col = {0: 1} | {p: factors[p - 1].bit_pairs[0][1] for p in fixed}
    gates = [Gate("x", (0,)), *pattern_swap_gates((0, *fixed), bits_row, bits_col)]
    return Circuit(term.n_qubits + 1, tuple(gates), frozenset({0}))
