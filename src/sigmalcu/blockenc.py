"""PREP/SELECT block encoding of a full sigma decomposition.

The overall unitary W = PREP^dag . SELECT . PREP acts on a selector
register (ceil(log2) of the padded term count), one completion ancilla,
and the system register, in that order from the most significant qubit.
Its top-left 2^n block, reached with selector and ancilla in |0>, equals
A / lambda with lambda = sum |coeff_l|.

PREP is a single dense state-preparation gate loading sqrt(|coeff_l| /
lambda) onto selector value l; coefficient phases are folded into SELECT
as selector-controlled phase gates, so negative and complex weights are
supported.  SELECT applies each term's completion circuit under
multi-controlled selection on the binary selector value; padded selector
values act as the identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import CLOSED, OPEN, Circuit, Gate, _controlled_term, _term_controls
from .matrices import ZERO_TOL, _require_width, frobenius_distance
from .sigma import Decomposition, reconstruct
from .simulate import circuit_to_matrix

# Largest Frobenius distance between the extracted block and A / lambda
# that counts as an exact encoding.
BLOCK_TOL = 1e-10


@dataclass(frozen=True)
class BlockEncoding:
    """Assembled encoding; ``overall`` is the full circuit for W."""

    selector_qubits: int
    system_qubits: int
    lam: float
    overall: Circuit
    decomposition: Decomposition

    @property
    def ancilla_index(self) -> int:
        """Completion ancilla; sits between selector and system."""
        return self.selector_qubits

    @property
    def n_qubits(self) -> int:
        return self.selector_qubits + 1 + self.system_qubits


def _selector_width(n_terms: int) -> int:
    return max(0, (n_terms - 1).bit_length())


def _prep_matrix(amplitudes: np.ndarray) -> np.ndarray:
    """Real reflection sending |0> to the given unit vector."""
    dim = amplitudes.size
    target = np.zeros(dim)
    target[0] = 1.0
    v = target - amplitudes
    norm = np.linalg.norm(v)
    if norm <= ZERO_TOL:
        return np.eye(dim, dtype=complex)
    v = v / norm
    return (np.eye(dim) - 2.0 * np.outer(v, v)).astype(complex)


def prep_circuit(coeffs: list[complex]) -> Circuit:
    """State preparation loading sqrt(|c_l| / lambda) onto selector value l.

    Phases are excluded here; they belong to the SELECT branches.  The
    amplitude list is zero-padded to the next power of two and the gate is
    a dense reflection, so the selector width is at least one qubit.
    """
    mags = np.array([abs(complex(c)) for c in coeffs], dtype=float)
    lam = mags.sum()
    if len(coeffs) == 0 or lam <= 0:
        raise ValueError("need at least one nonzero coefficient")
    width = max(1, _selector_width(len(coeffs)))
    amplitudes = np.zeros(1 << width)
    amplitudes[: len(coeffs)] = np.sqrt(mags / lam)
    gate = Gate("dense", tuple(range(width)), matrix=_prep_matrix(amplitudes), label="prep")
    return Circuit(width, (gate,))


def _phase_gate(phase: complex, selector_value: int, width: int) -> Gate:
    """Diagonal gate applying the phase on one selector value; for a
    degenerate selector the phase is global and lands on the ancilla."""
    if width == 0:
        matrix = phase * np.eye(2, dtype=complex)
        return Gate("dense", (0,), matrix=matrix, label="phase")
    diag = np.ones(1 << width, dtype=complex)
    diag[selector_value] = phase
    return Gate("dense", tuple(range(width)), matrix=np.diag(diag), label=f"phase{selector_value}")


def select_circuit(d: Decomposition) -> Circuit:
    """Term selection on selector + ancilla + system qubits."""
    if not d.terms:
        raise ValueError("cannot select from an empty decomposition")
    width = _selector_width(len(d.terms))
    total = width + 1 + d.n_qubits
    gates: list[Gate] = []
    for value, term in enumerate(d.terms):
        # One control per selector qubit matching the binary selector value
        # (qubit 0 is the most significant).
        controls = tuple(
            (sq, CLOSED if (value >> (width - 1 - sq)) & 1 else OPEN) for sq in range(width)
        )
        gates.extend(_controlled_term(term, total, controls).gates)
        # cmath.phase, but 0.0 where the angle underflows instead of raising.
        phase = cmath.exp(1j * math.atan2(term.coeff.imag, term.coeff.real))
        if abs(phase - 1.0) > ZERO_TOL:
            gates.append(_phase_gate(phase, value, width))
    ancillas = frozenset(range(width + 1))
    return Circuit(total, tuple(gates), ancillas)


def assemble(d: Decomposition) -> BlockEncoding:
    """Full encoding W = PREP^dag . SELECT . PREP.

    Refused before PREP is built when selector + 1 + system exceeds the
    dense limit, since the encoding could never be verified.
    """
    if not d.terms:
        raise ValueError("cannot block-encode an empty decomposition")
    width = _selector_width(len(d.terms))
    total = width + 1 + d.n_qubits
    _require_width(total, "block encoding")
    lam = float(sum(abs(t.coeff) for t in d.terms))
    if not math.isfinite(lam):
        raise ValueError("lambda = sum |coeff| out of floating-point range")
    gates = select_circuit(d).gates
    if width > 0:
        prep = prep_circuit([t.coeff for t in d.terms]).gates[0]
        prep_dag = Gate("dense", prep.targets, matrix=prep.matrix.conj().T, label="prep_dag")
        gates = (prep, *gates, prep_dag)
    overall = Circuit(total, gates, frozenset(range(width + 1)))
    return BlockEncoding(width, d.n_qubits, lam, overall, d)


def verify_block_encoding(be: BlockEncoding) -> dict:
    """Extract the zero-selector, zero-ancilla block of W and compare it to
    the reconstructed matrix over lambda.

    Selector and ancilla are the most significant qubits, so the block's
    inputs are the first 2^n basis states and only those columns of W are
    simulated.
    """
    dim = 1 << be.system_qubits
    block = circuit_to_matrix(be.overall, columns=dim)[:dim]
    target = reconstruct(be.decomposition).to_dense() / be.lam
    return {
        "lambda": be.lam,
        "frobenius_error": frobenius_distance(block, target),
        "qubits": be.n_qubits,
    }


def resource_report(d: Decomposition, epsilon: float) -> dict:
    """Asymptotic gate-cost formulas with this decomposition's parameters
    substituted.

    The numbers restate published near-optimal PREP/SELECT complexities for
    an L-term combination on an N-dimensional system at state-preparation
    accuracy epsilon; they are reported, not measured.  Concrete per-term
    control arities are those of the completion circuits, read off each
    term's control pattern without building the circuit.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    L = len(d.terms)
    n = d.n_qubits
    N = 1 << n
    lam = float(sum(abs(t.coeff) for t in d.terms))
    log_inv_eps = -math.log2(epsilon)  # finite where 1 / epsilon overflows
    # One MCX per completion; an all-identity term has a bare X instead.
    arities = [(len(c),) if (c := _term_controls(t, offset=1)) else () for t in d.terms]
    return {
        "L": L,
        "n": n,
        "N": N,
        "lambda": lam,
        "epsilon": epsilon,
        "selector_qubits": _selector_width(L),
        "per_term_mcx_arities": [list(a) for a in arities],
        "prep": {
            "ancillas": f"Omega(log2 L) <= n_anc <= O(L), L = {L}",
            "count": f"O(L log2(1/eps)) = O({L * log_inv_eps:.1f})",
            "depth": f"O~(L log2(1/eps) log2(n_anc)/n_anc), L log2(1/eps) = {L * log_inv_eps:.1f}",
        },
        "select": {
            "ancillas": f"Omega(log2 L + log2 N) <= n_anc <= O(L log2 N), L log2 N = {L * n}",
            "count": f"O(L log2 N) = O({L * n})",
            "depth": f"O(L log2 N log2(n_anc)/n_anc), L log2 N = {L * n}",
        },
        "controlled_term": {
            "ancillas": n + 2,
            "count": f"O(log2 N) = O({n})",
            "depth": f"O(log2 log2 N) = O(log2 {n})",
        },
    }
