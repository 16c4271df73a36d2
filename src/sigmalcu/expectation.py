"""Hadamard-test evaluation of sigma-term matrix elements.

Two interference circuits on n + 2 qubits (ancillas a0, a1 ahead of the
system register) compute

    <0| U^dag T V |0>            for a single term T, and
    <0| U^dag Ti^t M Tj V |0>    for a sandwiched pair of terms,

where U and V are opaque state-preparation unitaries and M an opaque
observable unitary.  The a0 measurement statistics give the real part as
P00 - P10; inserting an S^dag on a0 after the first Hadamard turns the
same statistic into the imaginary part.  Coefficients are excluded: every
routine returns the bare matrix element of the unit-coefficient term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CLOSED, OPEN, Circuit, Gate, _check_unitary, _controlled_term
from .matrices import _require_power_of_two
from .sigma import Decomposition, SigmaTerm
from .simulate import ancilla_probs, run, zero_state


@dataclass(frozen=True, eq=False)
class StateOracle:
    """Opaque unitary used as a black-box state-preparation or observable."""

    matrix: np.ndarray
    label: str = "U"

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        dim = matrix.shape[0] if matrix.ndim == 2 else 0
        _require_power_of_two(dim)
        _check_unitary(matrix, dim, self.label)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def _check_width(n: int, *oracles: StateOracle) -> None:
    for o in oracles:
        if o.n_qubits != n:
            raise ValueError(
                f"oracle {o.label!r} acts on {o.n_qubits} qubits, expected {n}"
            )


def _hadamard_test_circuits(
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
    system = tuple(range(2, width))
    body = [
        Gate("dense", system, ((0, CLOSED),), v.matrix, v.label),
        Gate("dense", system, ((0, OPEN),), u.matrix, u.label),
        *_controlled_term(term, width, ((0, CLOSED),)).gates,
    ]
    if m is not None:
        # Observable fires on a0 = 1 and a1 = 0, i.e. on the branch holding
        # T |psi2> rather than its completion remainder.
        body.append(Gate("dense", system, ((0, CLOSED), (1, OPEN)), m.matrix, m.label))
        body.extend(_controlled_term(ti, width, ((0, OPEN),)).gates)
    h = Gate("h", (0,))
    ancillas = frozenset({0, 1})
    real = Circuit(width, (h, *body, h), ancillas)
    imaginary = Circuit(width, (h, Gate("sdg", (0,)), *body, h), ancillas)
    return real, imaginary


def _ancilla_distributions(circuits: tuple[Circuit, Circuit]) -> list[dict[str, float]]:
    """a0/a1 measurement distribution of each circuit run on |0...0>."""
    return [ancilla_probs(run(c, zero_state(c.n_qubits)), [0, 1]) for c in circuits]


def expval_term(u: StateOracle, v: StateOracle, term: SigmaTerm) -> complex:
    """Exact <0| U^dag T V |0> for the unit-coefficient term T."""
    _check_width(term.n_qubits, u, v)
    real, imaginary = _ancilla_distributions(_hadamard_test_circuits(u, v, term))
    return complex(real["00"] - real["10"], imaginary["00"] - imaginary["10"])


def expval_sandwich(
    u: StateOracle,
    v: StateOracle,
    m: StateOracle,
    ti: SigmaTerm,
    tj: SigmaTerm,
) -> complex:
    """Exact <0| U^dag Ti^t M Tj V |0> for unit-coefficient terms."""
    if ti.n_qubits != tj.n_qubits:
        raise ValueError("terms act on different register widths")
    _check_width(ti.n_qubits, u, v, m)
    real, imaginary = _ancilla_distributions(_hadamard_test_circuits(u, v, tj, m, ti))
    return complex(real["00"] - real["10"], imaginary["00"] - imaginary["10"])


def expval_full(u: StateOracle, v: StateOracle, d: Decomposition) -> complex:
    """<0| U^dag A V |0> by linearity over the decomposition of A."""
    _check_width(d.n_qubits, u, v)
    return sum(
        (t.coeff * expval_term(u, v, t) for t in d.terms),
        start=0j,
    )


def sample_expval(
    u: StateOracle,
    v: StateOracle,
    term: SigmaTerm,
    shots: int,
    seed: int,
) -> complex:
    """Finite-shot estimate of :func:`expval_term`.

    Draws ancilla outcomes from the exact distribution of each circuit
    with a seeded generator; the estimate is (count00 - count10) / shots
    per part and is reproducible for a fixed seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_width(term.n_qubits, u, v)
    rng = np.random.default_rng(seed)
    parts = []
    for probs in _ancilla_distributions(_hadamard_test_circuits(u, v, term)):
        keys = sorted(probs)
        weights = np.clip([probs[k] for k in keys], 0.0, None)
        weights = weights / weights.sum()
        outcomes = rng.choice(len(keys), size=shots, p=weights)
        counts = np.bincount(outcomes, minlength=len(keys))
        count = dict(zip(keys, counts))
        parts.append((count["00"] - count["10"]) / shots)
    return complex(parts[0], parts[1])
