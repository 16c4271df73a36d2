"""PREP/SELECT block encoding of a full sigma decomposition.

W = UNPREP^dag . SELECT . PREP acts on a selector register (ceil(log2) of
the padded term count), one completion ancilla and the system register,
in that order from the most significant qubit.  Its top-left 2^n block,
reached with selector and ancilla in |0>, equals A / lambda with
lambda = sum |coeff_l|, summed once, by :func:`_lambda`: PREP, the
unprepare, :func:`assemble` and both reports read that one number, and it
refuses a lambda that is not positive and finite.

PREP loads a_l = sqrt(|coeff_l| / lambda) onto selector value l and UNPREP
loads b_l = a_l e^{-i arg coeff_l}, a state-preparation pair (Gilyen, Su,
Low & Wiebe, arXiv:1806.01838): conj(b_l) a_l = coeff_l / lambda.
:func:`assemble` builds both reflections side by side from one amplitude
array; a one-term encoding has no selector and no PREP.  SELECT
applies each term's completion circuit under multi-controlled selection on
the binary selector value, with X and MCX gates only; padded selector
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
    def n_qubits(self) -> int:
        return self.selector_qubits + 1 + self.system_qubits


def _selector_width(n_terms: int) -> int:
    return max(0, (n_terms - 1).bit_length())


def _phase(c: complex) -> complex:
    """e^{i arg c}; the angle is 0.0 where atan2 underflows (cmath.phase raises)."""
    return cmath.exp(1j * math.atan2(c.imag, c.real))


def _prep_matrix(target: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the unit vector ``target``: the
    Householder reflection swapping e^{i phi}|0> with it, times e^{i phi},
    where phi is the phase of target[0].  A real target stays real."""
    phase = _phase(target[0]) if np.iscomplexobj(target) else 1.0
    v = -target
    v[0] += phase
    norm = np.linalg.norm(v)
    if norm <= ZERO_TOL:
        return phase * np.eye(target.size, dtype=complex)
    v /= norm
    return (phase * (np.eye(target.size) - 2.0 * np.outer(v, v.conj()))).astype(complex)


def _lambda(coeffs) -> tuple[np.ndarray, float]:
    """Each |c_l| and lambda = their sum: the one lambda of the package.
    Refuses a lambda that is not positive and finite."""
    # Python's abs, not np.abs: the two differ in the last bit on about one
    # value in six, and PREP's bytes are pinned to abs.
    mags = np.array([abs(complex(c)) for c in coeffs], dtype=float)
    with np.errstate(over="ignore"):
        lam = float(mags.sum())
    if not math.isfinite(lam):
        raise ValueError("lambda = sum |coeff| out of floating-point range")
    if lam <= 0:
        raise ValueError("need at least one nonzero coefficient")
    return mags, lam


def _registers(d: Decomposition, what: str) -> tuple[int, int]:
    """Selector width, and total width with ancilla and system."""
    if not d.terms:
        raise ValueError(f"cannot {what} an empty decomposition")
    width = _selector_width(len(d.terms))
    return width, width + 1 + d.n_qubits


def select_circuit(d: Decomposition) -> Circuit:
    """Term selection on selector + ancilla + system qubits, of X and MCX
    gates only: the preparations carry the coefficients."""
    width, total = _registers(d, "select from")
    gates: list[Gate] = []
    for value, term in enumerate(d.terms):
        # One control per selector qubit, qubit 0 holding the value's top bit.
        controls = tuple((sq, CLOSED if (value >> (width - 1 - sq)) & 1 else OPEN) for sq in range(width))
        gates.extend(_controlled_term(term, total, controls).gates)
    return Circuit(total, tuple(gates), frozenset(range(width + 1)))


def assemble(d: Decomposition) -> BlockEncoding:
    """Full encoding W = UNPREP^dag . SELECT . PREP, refused before any gate
    is built when selector + 1 + system exceeds the dense limit."""
    width, total = _registers(d, "block-encode")
    _require_width(total, "block encoding")
    coeffs = d.coeffs.tolist()
    mags, lam = _lambda(coeffs)
    select = select_circuit(d)
    if width == 0:  # no selector: the coefficient's phase is global
        gates = select.gates
        phase = _phase(coeffs[0])
        if abs(phase - 1.0) > ZERO_TOL:
            gates += (Gate("dense", (0,), matrix=phase * np.eye(2, dtype=complex), label="phase"),)
    else:
        amplitudes = np.zeros(1 << width)
        amplitudes[: mags.size] = np.sqrt(mags / lam)
        unprepare = amplitudes.astype(complex)
        unprepare[: mags.size] *= np.conj([_phase(c) for c in coeffs])
        targets = tuple(range(width))
        prep = Gate("dense", targets, matrix=_prep_matrix(amplitudes), label="prep")
        prep_dag = Gate("dense", targets, matrix=_prep_matrix(unprepare).conj().T, label="prep_dag")
        gates = (prep, *select.gates, prep_dag)
    return BlockEncoding(width, d.n_qubits, lam, Circuit(total, gates, select.ancillas), d)


def verify_block_encoding(be: BlockEncoding) -> dict:
    """Extract the zero-selector, zero-ancilla block of W and compare it to
    the decomposition scaled by 1 / lambda, reconstructed, so that its prune
    at ZERO_TOL is relative to lambda.  Selector and ancilla are the most
    significant qubits, so only the first 2^n columns of W are simulated.
    """
    dim = 1 << be.system_qubits
    block = circuit_to_matrix(be.overall, columns=dim)[:dim]
    d = be.decomposition
    target = reconstruct(Decomposition._coalesced(d.n_qubits, d.keys, d.coeffs / be.lam)).to_dense()
    return {
        "lambda": be.lam,
        "frobenius_error": frobenius_distance(block, target),
        "qubits": be.n_qubits,
    }


def resource_report(d: Decomposition, epsilon: float) -> dict:
    """Asymptotic gate-cost formulas with this decomposition's parameters
    substituted: published near-optimal PREP/SELECT complexities for an
    L-term combination on an N-dimensional system at state-preparation
    accuracy epsilon, reported, not measured.  The per-term control arities
    are the completion circuits', read off each term's control pattern."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    L = len(d.terms)
    n = d.n_qubits
    N = 1 << n
    log_inv_eps = -math.log2(epsilon)  # finite where 1 / epsilon overflows
    # One MCX per completion; an all-identity term has a bare X instead.
    arities = [(len(c),) if (c := _term_controls(t, offset=1)) else () for t in d.terms]
    return {
        "L": L,
        "n": n,
        "N": N,
        "lambda": _lambda(d.coeffs)[1],
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
