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

The circuits are not simulated one by one.  Their H, controlled-V and
open-controlled-U prefix does not depend on the term, so it runs once per
(U, V) pair, and every term's completion is X/MCX gates, which only move
amplitudes: each term scatters the cached prefix state through its index
permutation before the closing H.  A sandwich caches, per (M, Tj), the
state after controlled Tj and the doubly controlled M.  Cached states live
as long as the oracles they were computed from.  The test suite builds
the full circuits and runs them gate by gate as the reference.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .circuits import CLOSED, OPEN, Circuit, Gate, _check_unitary, _controlled_term
from .matrices import _require_power_of_two
from .sigma import Decomposition, SigmaTerm
from .simulate import StateVector, _apply_to_tensor, _permuted_indices, ancilla_probs, run, zero_state

# Largest shot count a seeded multinomial draw accepts.
MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class StateOracle:
    """Opaque unitary used as a black-box state-preparation or observable."""

    matrix: np.ndarray
    label: str = "U"

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        dim = matrix.shape[0] if matrix.ndim == 2 else 0
        _require_power_of_two(dim)
        _check_unitary(matrix, dim, self.label)
        # A private read-only copy: states cached for this oracle stay valid.
        matrix.flags.writeable = False
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


_H = Gate("h", (0,))


def _oracle_gate(o: StateOracle, *controls: tuple[int, str]) -> Gate:
    """``o`` on the system register: qubits 2 onward, after a0 and a1."""
    return Gate("dense", tuple(range(2, o.n_qubits + 2)), controls, o.matrix, o.label)


@dataclass
class _Prefix:
    """Cached start of every Hadamard test on one (U, V) pair.

    ``state`` holds the real and imaginary circuits' states after H (and
    S^dag), controlled V and open-controlled U as the two columns of a
    (2^width, 2) array.  ``perms`` holds each a0-controlled completion's
    index permutation, keyed by factor string and polarity; ``after_m``
    holds, per observable M and keyed by Tj's factor string, the state
    after controlled Tj and the doubly controlled M.
    """

    width: int
    state: np.ndarray
    perms: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    after_m: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)


# _PREFIXES[u][v] is the (U, V) prefix; an entry goes with either oracle.
_PREFIXES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _prefix(u: StateOracle, v: StateOracle) -> _Prefix:
    by_v = _PREFIXES.setdefault(u, weakref.WeakKeyDictionary())
    entry = by_v.get(v)
    if entry is None:
        width = u.n_qubits + 2
        body = (_oracle_gate(v, (0, CLOSED)), _oracle_gate(u, (0, OPEN)))
        columns = [
            run(Circuit(width, gates, frozenset({0, 1})), zero_state(width)).amplitudes
            for gates in ((_H, *body), (_H, Gate("sdg", (0,)), *body))
        ]
        entry = by_v[v] = _Prefix(width, np.stack(columns, axis=1))
    return entry


def _permuted(entry: _Prefix, state: np.ndarray, term: SigmaTerm, polarity: str) -> np.ndarray:
    """``state`` after the term's completion controlled on a0 with the
    given polarity, applied as a scatter through its index permutation."""
    key = (term.factors, polarity)
    perm = entry.perms.get(key)
    if perm is None:
        gates = _controlled_term(term, entry.width, ((0, polarity),)).gates
        perm = entry.perms[key] = _permuted_indices(gates, entry.width, 1 << entry.width)
    out = np.empty_like(state)
    out[perm] = state
    return out


def _after_m(entry: _Prefix, m: StateOracle, tj: SigmaTerm) -> np.ndarray:
    by_term = entry.after_m.setdefault(m, {})
    state = by_term.get(tj.factors)
    if state is None:
        width = entry.width
        gate = _oracle_gate(m, (0, CLOSED), (1, OPEN))
        tensor = _permuted(entry, entry.state, tj, CLOSED).reshape([2] * width + [2])
        # One column at a time: M then multiplies the same operand shape as
        # in the one-state reference circuit, which keeps values bit for bit.
        columns = [_apply_to_tensor(tensor[..., c : c + 1], gate) for c in (0, 1)]
        state = by_term[tj.factors] = np.concatenate(columns, axis=-1).reshape(-1, 2)
    return state


def _distributions(
    u: StateOracle,
    v: StateOracle,
    term: SigmaTerm,
    m: StateOracle | None = None,
    ti: SigmaTerm | None = None,
) -> list[dict[str, float]]:
    """a0/a1 distributions of the (real, imaginary) Hadamard-test circuits
    of the same arguments, taken from the cached prefix."""
    entry = _prefix(u, v)
    if m is None:
        state = _permuted(entry, entry.state, term, CLOSED)
    else:
        state = _permuted(entry, _after_m(entry, m, term), ti, OPEN)
    width = entry.width
    final = _apply_to_tensor(state.reshape([2] * width + [2]), _H).reshape(-1, 2)
    return [ancilla_probs(StateVector(width, final[:, c]), [0, 1]) for c in (0, 1)]


def expval_term(u: StateOracle, v: StateOracle, term: SigmaTerm) -> complex:
    """Exact <0| U^dag T V |0> for the unit-coefficient term T."""
    _check_width(term.n_qubits, u, v)
    real, imaginary = _distributions(u, v, term)
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
    real, imaginary = _distributions(u, v, tj, m, ti)
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

    Draws the four ancilla outcome counts of each circuit from the exact
    distribution with one seeded multinomial draw; the estimate is
    (count00 - count10) / shots per part and is reproducible for a fixed
    seed.  Memory does not grow with ``shots``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    _check_width(term.n_qubits, u, v)
    rng = np.random.default_rng(seed)
    parts = []
    for probs in _distributions(u, v, term):
        keys = sorted(probs)
        weights = np.clip([probs[k] for k in keys], 0.0, None)
        weights = weights / weights.sum()
        count = dict(zip(keys, rng.multinomial(shots, weights)))
        parts.append((count["00"] - count["10"]) / shots)
    return complex(parts[0], parts[1])
