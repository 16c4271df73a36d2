"""Slow references for the package's fast paths, kept for property tests.

The sparse-core functions are the one-entry-at-a-time loops the package
used before its sparse matrices became sorted COO arrays and its sigma
terms were keyed by factor string.  They still work on tuples of factor
enums, converted from each term's string with
``tuple(map(SigmaFactor, t.factors))``, and read each factor's 1s from
``FACTOR_MATRICES``, the five 2x2 matrices written out, through
:func:`bit_pairs` and ``FACTOR_AT_BITS``, so they stay independent of the
package's bit table and string tables.  :func:`entries` is a matrix's
``{(row, col): value}`` dict, which the package never builds, and
:func:`stored_matrix` and :func:`stored_decomposition` store entries or
terms exactly as given, through ``_from_columns`` alone, where the
package's builders sum each value from 0.0 and so drop a -0.0 part; the
slow references end in them.  The
property tests in ``test_matrices.py`` and ``test_sigma.py`` require the
fast versions to agree with these bit for bit (:func:`assert_same_arrays`).  :func:`merge_terms` is the dict loop
that ``sigma.merge_terms`` ran before decompositions became arrays,
:func:`decomposition_json` writes a decomposition file through
``json.dumps`` and :func:`from_json_dict` reads one term object at a time.
:func:`read_json` is the stdlib JSON reader the package used before it
parsed with orjson, and ``DECIMAL_NUMBER`` and ``INTEGER`` are the values
a Matrix Market file may hold, as regular expressions.
:func:`matrix_market_bytes` writes a Matrix Market file through
``scipy.io.mmwrite``, as ``save_matrix_market`` did before it rendered the
text itself, and :func:`read_matrix_market` reads one through
``scipy.io.mmread``, as ``load_matrix_market`` did before it parsed the
bytes itself.

:func:`hadamard_test_circuits` builds the full Hadamard-test circuits
that ``expectation`` evaluates from a cached prefix and index
permutations; ``test_expectation.py`` runs them gate by gate as the
reference, and ``test_golden.py`` pins their file format.
:func:`expval_full` is <0| U^dag A V |0> summed term by term, which the
package offered beside ``cmd_expval``; ``test_cli.py`` requires the
``expval`` total to equal it bit for bit.

:func:`circuit_to_json_dict` is the dict ``save_circuit`` wrote through
``json.dumps(..., indent=1)`` before it rendered the file itself, and
:func:`circuit_json` that file.  :func:`tensor_matrix` runs a circuit's
identity columns gate by gate through the pure :func:`apply_to_tensor`,
as ``circuit_to_matrix`` did before it updated its tensor in place.

:func:`row_swap_circuit` and :func:`build_dilation_circuit` build the
pattern swap by the recursion the package used before its one-loop
ladder: flip the first differing bit, recurse on a copy of the bits with
that flip applied, and flip back.  ``test_circuits.py`` requires the
package's one-loop swap, ``circuits._pattern_swap_gates``, to give equal
gate lists, and :func:`row_swap_circuit` also builds the ``row_swap``
golden circuit.  :func:`completion_target` is the dense ``[[T, C], [C, T]]``
that every completion circuit must realize.

:func:`prep_matrix` is PREP's real reflection as ``blockenc`` built it
before the one builder for both preparations; ``test_blockenc.py``
requires the PREP gate of ``assemble`` to reproduce it byte for byte, and
every lambda the package reports to equal :func:`prep_lambda` bit for bit.

:func:`decompose_pauli` is the Pauli decomposition as the package ran it
before it grouped entries by bit-flip mask: every entry scattered into
all 4^n coefficients at once, then :func:`pauli_transform`, one 4x4
transform per qubit.  ``test_pauli.py`` requires the mask kernel to keep
the same keys in the same order, with coefficients within 1e-12.
:func:`pauli_terms` decodes a decomposition's keys into factor strings,
which the package never builds.  ``PAULI_MATRICES`` is the one table of
the four Pauli matrices; the package needs only their characters.

:func:`random_unitary` draws a Haar-random unitary for the simulator and
acceptance tests, and :func:`save_oracle` writes the oracle files that
``cli.load_oracle`` reads; the package reads oracle files but writes none.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
from typing import Iterable, Mapping

import numpy as np
import scipy.io
import scipy.sparse

from sigmalcu import _codec
from sigmalcu.circuits import CLOSED, OPEN, Circuit, Gate, _controlled_term, _file_kind, _folded_matrix
from sigmalcu.expectation import _H, StateOracle, _check_width, _oracle_gate, expval_term
from sigmalcu.matrices import ZERO_TOL, Coo, SparseMatrix, _require_width
from sigmalcu.pauli import PAULI_CHARS, PauliDecomposition
from sigmalcu.sigma import Decomposition, SigmaFactor, SigmaTerm, completion_matrix


def assert_same_arrays(got: SparseMatrix, want: SparseMatrix) -> None:
    """Equal width, and coordinate and value arrays equal byte for byte."""
    assert got.n_qubits == want.n_qubits
    for name in ("rows", "cols", "vals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def read_matrix_market(path: str) -> SparseMatrix:
    """The matrix ``load_matrix_market`` read when it parsed the file with
    ``scipy.io.mmread``: scipy's coordinate arrays, summed and pruned by
    ``SparseMatrix.from_entries``.  A token's leading ``+``, which the
    format allows and ``mmread`` refuses, is dropped first."""
    with open(path, "rb") as fh:
        text = re.sub(rb"(?<![^\s])\+", b"", fh.read())
    coo = scipy.sparse.coo_matrix(scipy.io.mmread(io.BytesIO(text)))
    return SparseMatrix.from_entries(coo.shape[0].bit_length() - 1, Coo(coo.row, coo.col, coo.data))


def matrix_market_bytes(m: SparseMatrix) -> bytes:
    """The file ``scipy.io.mmwrite(..., symmetry="general")`` writes for
    ``m``: real unless some imaginary part is nonzero."""
    data = m.vals if (m.vals.imag != 0).any() else m.vals.real
    coo = scipy.sparse.coo_matrix((data, (m.rows, m.cols)), shape=(m.dim, m.dim))
    buffer = io.BytesIO()
    scipy.io.mmwrite(buffer, coo, symmetry="general")
    return buffer.getvalue()


FACTOR_MATRICES = {
    SigmaFactor.IDENT: np.eye(2, dtype=complex),
    SigmaFactor.SPLUS: np.array([[0, 1], [0, 0]], dtype=complex),
    SigmaFactor.SMINUS: np.array([[0, 0], [1, 0]], dtype=complex),
    SigmaFactor.SPSM: np.array([[1, 0], [0, 0]], dtype=complex),
    SigmaFactor.SMSP: np.array([[0, 0], [0, 1]], dtype=complex),
}


def bit_pairs(f: SigmaFactor) -> tuple[tuple[int, int], ...]:
    """(row_bit, col_bit) positions holding a 1 in the factor's matrix."""
    return tuple((int(r), int(c)) for r, c in zip(*np.nonzero(FACTOR_MATRICES[f])))


# The factor with its single 1 at (row_bit, col_bit).
FACTOR_AT_BITS = {bit_pairs(f)[0]: f for f in FACTOR_MATRICES if len(bit_pairs(f)) == 1}


def is_ladder(f: SigmaFactor) -> bool:
    """True for s+ and s-, the factors completed by X."""
    return all(r != c for r, c in bit_pairs(f))


def entries(m: SparseMatrix) -> dict[tuple[int, int], complex]:
    """The stored ``{(row, col): value}`` entries, in row-major order."""
    return dict(zip(zip(m.rows.tolist(), m.cols.tolist()), m.vals.tolist()))


def complex_pairs(values) -> list[list[float]]:
    """Complex values as the ``[re, im]`` pairs of a JSON payload."""
    return [[float(v.real), float(v.imag)] for v in values]


# A whole Matrix Market value: a decimal number, and an integer in an
# integer field.  float() and int() read every match.
DECIMAL_NUMBER = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
INTEGER = re.compile(r"[+-]?[0-9]+")


def stored_matrix(n_qubits: int, entries: Mapping[tuple[int, int], complex]) -> SparseMatrix:
    """The ``{(row, col): value}`` entries stored as given, sorted
    row-major, with no check: they must lie inside the matrix, with values
    nonzero and finite in magnitude."""
    coords = sorted(entries)
    rows = np.array([r for r, _ in coords], dtype=np.int64)
    cols = np.array([c for _, c in coords], dtype=np.int64)
    vals = np.array([entries[k] for k in coords], dtype=complex)
    return SparseMatrix._from_columns(n_qubits, rows, cols, vals)


def stored_decomposition(n_qubits: int, terms: Iterable[SigmaTerm]) -> Decomposition:
    """The terms stored as given, sorted by string, with no check: the
    strings must be distinct and ``n_qubits`` wide, the coefficients above
    ``ZERO_TOL`` and finite in magnitude."""
    terms = sorted(terms, key=lambda t: t.factors)
    assert len({t.factors for t in terms}) == len(terms), "repeated factor string"
    factors = np.array([list(t.factors.encode("ascii")) for t in terms], dtype=np.uint8).reshape(-1, n_qubits)
    return Decomposition._from_columns(n_qubits, factors, np.array([t.coeff for t in terms], dtype=complex))


def coo(items: list[tuple[int, int, complex]]) -> Coo:
    """(row, col, value) triples as the :class:`Coo` arrays that
    ``SparseMatrix.from_entries`` takes."""
    rows, cols, vals = zip(*items) if items else ((), (), ())
    return Coo(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals, dtype=complex))


def from_entries(
    n_qubits: int, items: Iterable[tuple[int, int, complex]], tol: float = ZERO_TOL
) -> SparseMatrix:
    """A dict of running sums started at 0j, one triple at a time, then a
    prune at ``max(tol, ZERO_TOL)`` that keeps NaN sums, which are refused
    with any other sum not finite in magnitude."""
    acc: dict[tuple[int, int], complex] = {}
    for r, c, v in items:
        acc[r, c] = acc.get((r, c), 0j) + complex(v)
    floor = max(tol, ZERO_TOL)
    kept = {k: v for k, v in acc.items() if not abs(v) <= floor}
    for (r, c), v in kept.items():
        if not magnitude(v) < math.inf:
            raise ValueError(f"entry ({r}, {c}) stores a non-finite value")
    return stored_matrix(n_qubits, kept)


def build(n_qubits: int, terms: Iterable[SigmaTerm], tol: float = ZERO_TOL) -> Decomposition:
    """``Decomposition.build`` keyed by tuples of factor enums, with its
    refusals: a sum not finite in magnitude (refused by ``SigmaTerm``), a
    register below one qubit, no terms and a string of another width."""
    acc: dict[tuple[SigmaFactor, ...], complex] = {}
    for t in terms:
        factors = tuple(map(SigmaFactor, t.factors))
        acc[factors] = acc.get(factors, 0j) + t.coeff
    kept = sorted((SigmaTerm(c, fs) for fs, c in acc.items() if not abs(c) <= tol), key=lambda t: t.factors)
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if not kept:
        raise ValueError(f"decomposition has no terms above {ZERO_TOL} in magnitude")
    for t in kept:
        if t.n_qubits != n_qubits:
            raise ValueError(f"term width {t.n_qubits} does not match register {n_qubits}")
    return stored_decomposition(n_qubits, kept)


def term_matrix(t: SigmaTerm) -> SparseMatrix:
    """One entry per choice of a 1 in every factor, summed by
    :func:`from_entries`."""
    entries = []
    for pairs in itertools.product(*map(bit_pairs, map(SigmaFactor, t.factors))):
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
        items.extend((r, c, v) for (r, c), v in entries(term_matrix(t)).items())
    return from_entries(d.n_qubits, items)


def decompose_numerical(m: SparseMatrix) -> Decomposition:
    """One term per stored entry, its factors read off bit by bit."""
    n = m.n_qubits
    terms = []
    for (r, c), v in entries(m).items():
        factors = tuple(
            FACTOR_AT_BITS[((r >> (n - 1 - p)) & 1, (c >> (n - 1 - p)) & 1)]
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
                coeff = a / 2 + b / 2
                merged = factors[:p] + (I,) + factors[p + 1 :]
                total = coeffs.get(merged, 0j) + coeff
                if not magnitude(total) <= ZERO_TOL:
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


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


def read_json(path: str, build):
    """``build`` of the JSON document at ``path``, read as the package read
    every JSON file before orjson: stdlib json on the ASCII text, refusing
    NaN and Infinity literals, with nesting past Python's recursion limit
    refused in one line."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            value = json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError("JSON nesting too deep") from None
    return build(value)


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


def circuit_to_json_dict(c: Circuit) -> dict:
    """JSON form of the gate list, as ``save_circuit`` built it before it
    rendered the text itself.

    Dense matrices are row-major lists of [re, im] pairs.  A controlled
    gate other than X is exported as the equivalent dense gate on
    controls + targets; an X without controls is stored as x.
    """
    return {
        "n_qubits": c.n_qubits,
        "ancillas": sorted(c.ancillas),
        "gates": [_gate_to_json(g) for g in c.gates],
    }


def _gate_to_json(g: Gate) -> dict:
    kind = _file_kind(g)
    if kind == "mcx":
        return {
            "kind": "mcx",
            "controls": [{"q": q, "pol": pol} for q, pol in g.controls],
            "target": g.targets[0],
        }
    if kind == "dense":
        return {
            "kind": "dense",
            "targets": list(g.qubits),
            "label": g.label,
            "matrix": complex_pairs(_folded_matrix(g).reshape(-1)),
        }
    return {"kind": kind, "target": g.targets[0]}


def circuit_json(c: Circuit) -> bytes:
    """The circuit file of ``c`` through ``json.dumps`` with ``indent=1``."""
    return (json.dumps(circuit_to_json_dict(c), indent=1, allow_nan=False) + "\n").encode("ascii")


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random ``dim x dim`` unitary: QR of a complex Gaussian matrix,
    with the phases of R's diagonal moved into Q."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_dense(tensor: np.ndarray, targets: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the given axes of a [2]*n + [batch] tensor."""
    rest = [ax for ax in range(tensor.ndim) if ax not in targets]
    perm = list(targets) + rest
    moved = tensor.transpose(perm)
    out = (matrix @ moved.reshape(1 << len(targets), -1)).reshape(moved.shape)
    return out.transpose(np.argsort(perm))


def apply_to_tensor(tensor: np.ndarray, g: Gate) -> np.ndarray:
    """One gate on a [2]*n + [batch] tensor, returning a new array: an X
    flips the fired sub-tensor along its target axis, any other kind
    multiplies its matrix onto the target axes of the fired sub-tensor."""
    index = [slice(None)] * tensor.ndim
    for q, pol in g.controls:
        bit = 1 if pol == CLOSED else 0
        index[q] = slice(bit, bit + 1)
    index = tuple(index)
    if g.kind == "x":
        new = np.flip(tensor[index], axis=g.targets[0])
    else:
        new = apply_dense(tensor[index], g.targets, g.target_matrix)
        if not g.controls:
            return new
    out = tensor.copy()
    out[index] = new
    return out


def tensor_matrix(c: Circuit, columns: int | None = None) -> np.ndarray:
    """The first ``columns`` columns of the circuit's unitary (all by
    default), the identity columns run gate by gate through
    :func:`apply_to_tensor`."""
    n = c.n_qubits
    dim = 1 << n
    k = dim if columns is None else columns
    tensor = np.eye(dim, k, dtype=complex).reshape([2] * n + [k])
    for g in c.gates:
        tensor = apply_to_tensor(tensor, g)
    return tensor.reshape(dim, k)


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


def expval_full(u: StateOracle, v: StateOracle, d: Decomposition) -> complex:
    """<0| U^dag A V |0> by linearity over the decomposition of A, as
    ``expectation.expval_full`` summed it when the package exported it
    beside ``cmd_expval``, which sums the same terms itself."""
    _check_width(d.n_qubits, u, v)
    return sum(
        (t.coeff * expval_term(u, v, t) for t in d.terms),
        start=0j,
    )


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
    bits_row = {0: 0} | {p: bit_pairs(factors[p - 1])[0][0] for p in fixed}
    bits_col = {0: 1} | {p: bit_pairs(factors[p - 1])[0][1] for p in fixed}
    gates = [Gate("x", (0,)), *pattern_swap_gates((0, *fixed), bits_row, bits_col)]
    return Circuit(term.n_qubits + 1, tuple(gates), frozenset({0}))


def completion_target(term: SigmaTerm) -> np.ndarray:
    """[[T, C], [C, T]] for the term's unit-coefficient matrix T and
    C = completion(T) - T."""
    block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
    complement = completion_matrix(term) - block
    return np.block([[block, complement], [complement, block]])


def prep_lambda(coeffs: list[complex]) -> float:
    """The lambda :func:`prep_matrix` normalises by: numpy's sum of the
    magnitudes, in the given order."""
    return float(np.array([abs(complex(c)) for c in coeffs], dtype=float).sum())


def prep_matrix(coeffs: list[complex]) -> np.ndarray:
    """PREP as ``blockenc`` built it before its reflection took complex
    targets: the real reflection sending |0> to sqrt(|c_l| / lambda),
    zero-padded to a power of two of at least two entries."""
    mags = np.array([abs(complex(c)) for c in coeffs], dtype=float)
    dim = 1 << max(1, (len(coeffs) - 1).bit_length())
    amplitudes = np.zeros(dim)
    amplitudes[: len(coeffs)] = np.sqrt(mags / prep_lambda(coeffs))
    target = np.zeros(dim)
    target[0] = 1.0
    v = target - amplitudes
    norm = np.linalg.norm(v)
    if norm <= ZERO_TOL:
        return np.eye(dim, dtype=complex)
    v = v / norm
    return (np.eye(dim) - 2.0 * np.outer(v, v)).astype(complex)


def save_oracle(oracle: StateOracle, path: str) -> None:
    """The oracle file that ``cli.load_oracle`` reads."""
    payload = {
        "n_qubits": oracle.n_qubits,
        "label": oracle.label,
        "matrix": complex_pairs(oracle.matrix.reshape(-1)),
    }
    _codec.write_json(path, payload)


PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Row k: values of Pauli k at bit pairs (0,0), (0,1), (1,0), (1,1).
PAULI_AT_PAIR = np.array([PAULI_MATRICES[ch].reshape(-1) for ch in PAULI_CHARS])


def pauli_terms(pd: PauliDecomposition) -> list[tuple[str, complex]]:
    """Each key's factor string, position 0 from the most significant
    base-4 digit and digit k as ``PAULI_CHARS[k]``, with its coefficient."""
    n = pd.n_qubits
    strings = ["".join(PAULI_CHARS[(key >> 2 * (n - 1 - p)) & 3] for p in range(n)) for key in pd.keys.tolist()]
    return list(zip(strings, pd.coeffs.tolist()))


def pauli_transform(a: np.ndarray, n: int) -> None:
    """Apply the per-qubit 4x4 transform to the flat ``(4,)*n`` array ``a``
    in place, one pair of butterflies per axis: (a00, a01, a10, a11) ->
    (I, X, Y, Z) = the rows of ``PAULI_AT_PAIR.conj()`` applied to the pair,
    I, Z = a00 +- a11 and X, Y = a01 + a10, i(a01 - a10)."""
    scratch = np.empty(a.size // 4, dtype=complex)
    for p in range(n):
        v = a.reshape(4**p, 4, -1)
        t = scratch.reshape(4**p, -1)
        s0, s1, s2, s3 = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        np.subtract(s0, s3, out=t)
        s0 += s3
        s3[...] = t
        np.subtract(s1, s2, out=t)
        s1 += s2
        np.multiply(t, 1j, out=s2)


def decompose_pauli(m: SparseMatrix, tol: float = 1e-12) -> PauliDecomposition:
    """All 4^n coefficients by :func:`pauli_transform`, kept above ``tol``
    in key order; at most 12 qubits.  The flat index is the key."""
    n = m.n_qubits
    _require_width(n, "pauli decomposition")
    # Bit k of the row goes to bit 2k+1 of the flat index, bit k of the
    # column to bit 2k, so qubit p's pair is digit n-1-p in base 4.
    flat = np.zeros(m.nnz, dtype=np.int64)
    for k in range(n):
        flat |= ((m.rows >> k) & 1) << (2 * k + 1) | ((m.cols >> k) & 1) << (2 * k)
    a = np.zeros(4**n, dtype=complex)
    a[flat] = m.vals
    pauli_transform(a, n)
    a /= m.dim

    kept = np.flatnonzero(np.abs(a) > tol)
    return PauliDecomposition._from_columns(n, kept, a[kept])
