"""Gate-list circuit representation and synthesis of term circuits.

Two builders turn a sigma term into a block encoding of its 0/1 matrix T
on one extra ancilla qubit (the most significant wire):

* :func:`build_ul_circuit` uses unitary completion and always needs at most
  n + 1 single-qubit gates plus a single multi-controlled X, producing

      [[T, C], [C, T]]   with  C = completion(T) - T.

* :func:`build_dilation_circuit` realizes the (sign-free) unitary dilation

      [[T, I - T T^t], [I - T^t T, T^t]]

  with one X gate and 2s + 1 multi-controlled X gates, where s counts the
  ladder factors.  Both circuits agree when s = 0.

Every gate is one :class:`Gate` record: a kind (x, h, s, sdg, or dense
with an explicit matrix) on its targets, fired when each control matches
its polarity.  A closed control fires on |1>, an open control on |0>; an
x with controls is a multi-controlled X.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _codec
from .sigma import SigmaTerm, _digits, completion

OPEN = "open"
CLOSED = "closed"

UNITARY_TOL = 1e-12

SINGLE_QUBIT_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
}


def _check_unitary(matrix: np.ndarray, dim: int, label: str) -> None:
    if matrix.shape != (dim, dim):
        raise ValueError(f"gate {label!r}: expected {dim}x{dim} matrix")
    defect = np.abs(matrix @ matrix.conj().T - np.eye(dim)).max()
    if not defect <= UNITARY_TOL:  # also rejects NaN entries
        raise ValueError(f"gate {label!r} is not unitary (defect {defect:.2e})")


@dataclass(frozen=True, eq=False)
class Gate:
    """``kind`` on ``targets``, conditioned on every control matching its
    polarity.

    x, h, s and sdg take one target and no matrix.  A dense gate's
    ``matrix`` acts on the ordered targets, targets[0] being the most
    significant bit of the gate's local index.  ``label`` defaults to the
    kind, or to "U" for dense gates.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, str], ...] = ()
    matrix: np.ndarray | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "dense":
            if not self.targets or self.matrix is None:
                raise ValueError("dense gate needs a matrix and a nonempty list of targets")
        elif self.kind not in SINGLE_QUBIT_MATRICES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        elif len(self.targets) != 1 or self.matrix is not None:
            raise ValueError(f"{self.kind} gate takes one target and no matrix")
        qubits = self.qubits
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in {self.kind} gate")
        for _, pol in self.controls:
            if pol not in (OPEN, CLOSED):
                raise ValueError(f"unknown polarity {pol!r}")
        if self.label is None:
            object.__setattr__(self, "label", "U" if self.kind == "dense" else self.kind)
        if self.kind == "dense":
            _check_unitary(self.matrix, 1 << len(self.targets), self.label)

    @property
    def qubits(self) -> tuple[int, ...]:
        """Control qubits in order, then the targets."""
        return tuple(q for q, _ in self.controls) + self.targets

    @property
    def target_matrix(self) -> np.ndarray:
        """Matrix applied to the targets when the controls fire."""
        return self.matrix if self.kind == "dense" else SINGLE_QUBIT_MATRICES[self.kind]

    def _key(self) -> tuple:
        return (self.kind, self.targets, self.controls, self.label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()
    ancillas: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be >= 0")
        for g in self.gates:
            for q in g.qubits:
                if not (0 <= q < self.n_qubits):
                    raise ValueError(
                        f"gate qubit {q} outside register of width {self.n_qubits}"
                    )
        for q in self.ancillas:
            if not (0 <= q < self.n_qubits):
                raise ValueError(f"ancilla index {q} out of range")


@dataclass(frozen=True)
class GateCount:
    single_qubit: int
    mcx: tuple[int, ...]  # control arities in gate order
    dense: int


def _file_kind(g: Gate) -> str:
    """Kind a gate is counted and exported as: a named single-qubit gate,
    mcx, or dense with its controls folded into the matrix."""
    if g.controls:
        return "mcx" if g.kind == "x" else "dense"
    return g.kind


def gate_count(c: Circuit) -> GateCount:
    kinds = [_file_kind(g) for g in c.gates]
    arities = tuple(len(g.controls) for g, k in zip(c.gates, kinds) if k == "mcx")
    dense = kinds.count("dense")
    return GateCount(len(kinds) - len(arities) - dense, arities, dense)


def _term_controls(term: SigmaTerm, offset: int) -> tuple[tuple[int, str], ...]:
    """Control pattern selecting the nonzero rows of the term's matrix.

    Factors whose nonzero row bit is 1 (s-, s-s+) give closed controls,
    those with row bit 0 (s+, s+s-) open controls; identity factors need
    no control.
    """
    ident, row, _ = _digits(term)
    fixed = (p for p, i in enumerate(ident) if i == "0")
    return tuple((offset + p, CLOSED if row[p] == "1" else OPEN) for p in fixed)


def build_ul_circuit(term: SigmaTerm) -> Circuit:
    """Completion circuit on n + 1 qubits; ancilla is qubit 0.

    X gates on the system qubits where the completion says X, an X on the
    ancilla, then one multi-controlled X onto the ancilla whose controls
    select the nonzero rows of the term.  The coefficient is ignored: the
    circuit encodes the unit-coefficient operator.
    """
    n = term.n_qubits
    gates: list[Gate] = []
    for p, tag in enumerate(completion(term)):
        if tag == "X":
            gates.append(Gate("x", (p + 1,)))
    gates.append(Gate("x", (0,)))
    gates.append(Gate("x", (0,), _term_controls(term, offset=1)))
    return Circuit(n + 1, tuple(gates), frozenset({0}))


def _pattern_swap_gates(active: tuple[int, ...], a: str, b: str) -> list[Gate]:
    """MCX sequence exchanging the basis patterns ``a`` and ``b`` on the
    ``active`` qubits, given in increasing order; digit q of each string
    is the bit of qubit q.

    Qubits outside ``active`` are untouched, so the exchange applies
    simultaneously to every assignment of the inactive qubits.  Patterns
    differing in m bits take 2m - 1 gates: a walk from ``a`` to ``b`` that
    flips each differing bit in turn, controlled on every other active
    qubit, then the walk's flips but the last in reverse order.
    """
    walk = []
    for q in active:
        if a[q] != b[q]:
            here = b[:q] + a[q:]  # the bits before q are already flipped
            controls = tuple((p, CLOSED if here[p] == "1" else OPEN) for p in active if p != q)
            walk.append(Gate("x", (q,), controls))
    if not walk:
        raise ValueError("patterns are identical")
    return walk + walk[-2::-1]


def row_swap_circuit(n_qubits: int, row_a: int, row_b: int) -> Circuit:
    """Permutation circuit exchanging two basis rows of the full register.

    Rows differing in k + 1 bits take exactly 2k + 1 multi-controlled X
    gates; all other rows are fixed.
    """
    dim = 1 << n_qubits
    if not (0 <= row_a < dim and 0 <= row_b < dim):
        raise ValueError("row index out of range")
    if row_a == row_b:
        raise ValueError("rows must differ")
    a, b = (format(row, f"0{n_qubits}b") for row in (row_a, row_b))
    return Circuit(n_qubits, tuple(_pattern_swap_gates(tuple(range(n_qubits)), a, b)))


def build_dilation_circuit(term: SigmaTerm) -> Circuit:
    """Dilation circuit on n + 1 qubits; ancilla is qubit 0.

    An X on the ancilla followed by the row permutation exchanging the
    term's nonzero-row pattern (ancilla 0) with its nonzero-column pattern
    (ancilla 1).  Identity factors drop out of the controls, so every
    multi-controlled X has arity n - k.  With s ladder factors the
    permutation costs 2s + 1 gates; for s = 0 it degenerates to the single
    gate of the completion circuit.
    """
    ident, row, col = _digits(term)
    fixed = (p for p, i in enumerate(ident, start=1) if i == "0")
    gates = [Gate("x", (0,)), *_pattern_swap_gates((0, *fixed), "0" + row, "1" + col)]
    return Circuit(term.n_qubits + 1, tuple(gates), frozenset({0}))


def _folded_matrix(g: Gate) -> np.ndarray:
    """Dense equivalent of ``g`` on ``g.qubits``: each control, innermost
    first, becomes the most significant bit of a block-diagonal matrix.
    Used for file export; the simulator applies controls by slicing."""
    matrix = g.target_matrix
    for _, pol in reversed(g.controls):
        dim = matrix.shape[0]
        eye = np.eye(dim, dtype=complex)
        lower, upper = (eye, matrix) if pol == CLOSED else (matrix, eye)
        matrix = np.zeros((2 * dim, 2 * dim), dtype=complex)
        matrix[:dim, :dim] = lower
        matrix[dim:, dim:] = upper
    return matrix


def controlled(c: Circuit, control: int, polarity: str) -> Circuit:
    """Add ``control`` (with the given polarity) to every gate.

    The control qubit must already be a free wire of the circuit's
    register; the result implements the controlled version of the
    circuit's unitary.
    """
    if not (0 <= control < c.n_qubits):
        raise ValueError(f"control qubit {control} outside register")
    if polarity not in (OPEN, CLOSED):
        raise ValueError(f"unknown polarity {polarity!r}")
    for g in c.gates:
        if control in g.qubits:
            raise ValueError(f"control qubit {control} already used by {g!r}")
    gates = tuple(replace(g, controls=((control, polarity), *g.controls)) for g in c.gates)
    return Circuit(c.n_qubits, gates, c.ancillas)


def embedded(c: Circuit, n_qubits: int, offset: int) -> Circuit:
    """Same circuit on a wider register with every qubit shifted by
    ``offset``."""
    if offset < 0 or c.n_qubits + offset > n_qubits:
        raise ValueError("embedded circuit does not fit the target register")
    gates = tuple(
        replace(
            g,
            targets=tuple(q + offset for q in g.targets),
            controls=tuple((q + offset, pol) for q, pol in g.controls),
        )
        for g in c.gates
    )
    return Circuit(n_qubits, gates, frozenset(q + offset for q in c.ancillas))


def _controlled_term(
    term: SigmaTerm, width: int, controls: tuple[tuple[int, str], ...]
) -> Circuit:
    """The term's completion circuit on the last n + 1 of ``width`` wires,
    with each (qubit, polarity) control added to every gate in turn, so the
    last one listed leads each gate's controls."""
    out = embedded(build_ul_circuit(term), width, offset=width - term.n_qubits - 1)
    for q, pol in controls:
        out = controlled(out, q, pol)
    return out


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
            "matrix": _codec.complex_pairs(_folded_matrix(g).reshape(-1)),
        }
    return {"kind": kind, "target": g.targets[0]}


def _gate_from_json(item: dict) -> Gate:
    kind = _codec.field(item, "kind", str)
    if kind == "mcx":
        controls = tuple(
            (_codec.field(c, "q", int), _codec.field(c, "pol", str))
            for c in _codec.field(item, "controls", list)
        )
        return Gate("x", (_codec.field(item, "target", int),), controls)
    if kind == "dense":
        targets = _codec.int_tuple(item, "targets")
        matrix = _codec.complex_matrix(_codec.field(item, "matrix", list), 1 << len(targets))
        return Gate("dense", targets, (), matrix, _codec.field(item, "label", str, "U"))
    return Gate(kind, (_codec.field(item, "target", int),))


def circuit_to_json_dict(c: Circuit) -> dict:
    """JSON form of the gate list.

    Dense matrices are row-major lists of [re, im] pairs.  A controlled
    gate other than X is exported as the equivalent dense gate on
    controls + targets, so every file uses only the x/h/s/sdg, mcx, and
    dense kinds; an X without controls is stored as x.
    """
    return {
        "n_qubits": c.n_qubits,
        "ancillas": sorted(c.ancillas),
        "gates": [_gate_to_json(g) for g in c.gates],
    }


def circuit_from_json_dict(data: dict) -> Circuit:
    return Circuit(
        _codec.field(data, "n_qubits", int),
        tuple(_gate_from_json(item) for item in _codec.field(data, "gates", list)),
        frozenset(_codec.int_tuple(data, "ancillas", [])),
    )


def save_circuit(c: Circuit, path: str) -> None:
    _codec.write_json(path, circuit_to_json_dict(c), indent=1)


def load_circuit(path: str) -> Circuit:
    return circuit_from_json_dict(_codec.read_json(path))


def to_qasm(c: Circuit) -> str:
    """QASM-like text.  Open controls are rendered as X-conjugated closed
    controls; multi-controlled X beyond two controls uses an mcx line.
    Dense gates have no gate-level decomposition here and appear as
    comments."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.n_qubits}];",
    ]
    for g in c.gates:
        kind = _file_kind(g)
        qubits = ",".join(f"q[{q}]" for q in g.qubits)
        if kind == "dense":
            lines.append(f"// dense gate {g.label} on {qubits}")
        elif kind == "mcx":
            flips = [f"x q[{q}];" for q, pol in g.controls if pol == OPEN]
            name = {1: "cx", 2: "ccx"}.get(len(g.controls), "mcx")
            lines += [*flips, f"{name} {qubits};", *flips]
        else:
            lines.append(f"{kind} {qubits};")
    return "\n".join(lines) + "\n"
