"""Exact dense statevector simulation.

Amplitude index bit p corresponds to qubit p, with p = 0 the most
significant bit, so block structure of extracted matrices lines up
index-for-index with the sparse-matrix convention.  Gates act on a state
tensor of shape [2] * n (plus a trailing batch axis when extracting full
unitaries); applications are pure and return new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CLOSED, Circuit, Gate
from .matrices import _require_width

NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized (norm {norm})")
        object.__setattr__(self, "amplitudes", amps)


def zero_state(n_qubits: int) -> StateVector:
    return basis_state(n_qubits, 0)


def basis_state(n_qubits: int, index: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def _apply_dense(tensor: np.ndarray, targets: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the given axes of a [2]*n + [batch] tensor."""
    n_axes = tensor.ndim
    k = len(targets)
    rest = [ax for ax in range(n_axes) if ax not in targets]
    perm = list(targets) + rest
    moved = tensor.transpose(perm)
    shape = moved.shape
    out = (matrix @ moved.reshape(1 << k, -1)).reshape(shape)
    inverse = np.argsort(perm)
    return out.transpose(inverse)


def _apply_to_tensor(tensor: np.ndarray, g: Gate) -> np.ndarray:
    """Gate application on a state tensor of shape [2]*n + [batch].

    Only the sub-tensor where every control matches its polarity changes:
    an X swaps its two target slices there, any other kind multiplies its
    matrix onto the target axes.
    """
    index = [slice(None)] * tensor.ndim
    for q, pol in g.controls:
        bit = 1 if pol == CLOSED else 0
        index[q] = slice(bit, bit + 1)
    index = tuple(index)
    if g.kind == "x":
        new = np.flip(tensor[index], axis=g.targets[0])
    else:
        new = _apply_dense(tensor[index], g.targets, g.target_matrix)
        if not g.controls:
            return new
    out = tensor.copy()
    out[index] = new
    return out


def apply_gate(s: StateVector, g: Gate) -> StateVector:
    for q in g.qubits:
        if not (0 <= q < s.n_qubits):
            raise ValueError(f"gate qubit {q} outside {s.n_qubits}-qubit state")
    tensor = s.amplitudes.reshape([2] * s.n_qubits + [1])
    out = _apply_to_tensor(tensor, g).reshape(-1)
    return StateVector(s.n_qubits, out)


def run(c: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit's gates in order."""
    if c.n_qubits != initial.n_qubits:
        raise ValueError(
            f"circuit width {c.n_qubits} does not match state width {initial.n_qubits}"
        )
    state = initial
    for g in c.gates:
        state = apply_gate(state, g)
    return state


def circuit_to_matrix(c: Circuit, columns: int | None = None) -> np.ndarray:
    """Unitary of the circuit, or its first ``columns`` columns; column j
    is the image of basis state j.

    A circuit of X and MCX gates only is a permutation, so its basis
    indices are mapped through the gates with bit masks and ones are
    scattered into place; any other gate list evolves the identity columns
    gate by gate.
    """
    n = c.n_qubits
    _require_width(n, "circuit_to_matrix")
    dim = 1 << n
    k = dim if columns is None else columns
    if not 0 <= k <= dim:
        raise ValueError(f"cannot extract {k} columns of a {dim}-dimensional unitary")
    if all(g.kind == "x" for g in c.gates):
        out = np.zeros((dim, k), dtype=complex)
        out[_permuted_indices(c.gates, n, k), np.arange(k)] = 1.0
        return out
    tensor = np.eye(dim, k, dtype=complex).reshape([2] * n + [k])
    for g in c.gates:
        tensor = _apply_to_tensor(tensor, g)
    return tensor.reshape(dim, k)


def _permuted_indices(gates: tuple[Gate, ...], n: int, k: int) -> np.ndarray:
    """Images of basis states 0 .. k-1 under X/MCX gates: each gate flips
    its target bit wherever every control matches its polarity."""
    index = np.arange(k)
    for g in gates:
        mask = pattern = 0
        for q, pol in g.controls:
            mask |= 1 << (n - 1 - q)
            if pol == CLOSED:
                pattern |= 1 << (n - 1 - q)
        fires = (index & mask) == pattern
        index[fires] ^= 1 << (n - 1 - g.targets[0])
    return index


def ancilla_probs(s: StateVector, ancillas: list[int]) -> dict[str, float]:
    """Marginal measurement distribution over the listed qubits.

    Keys are bitstrings in the order given; the values always sum to one.
    """
    if len(set(ancillas)) != len(ancillas):
        raise ValueError("ancilla list contains repeats")
    for q in ancillas:
        if not (0 <= q < s.n_qubits):
            raise ValueError(f"ancilla index {q} out of range")
    probs = np.abs(s.amplitudes.reshape([2] * s.n_qubits)) ** 2
    others = tuple(q for q in range(s.n_qubits) if q not in ancillas)
    marginal = probs.sum(axis=others) if others else probs
    # Summation leaves the kept axes in ascending qubit order; reorder to
    # the caller's listing.
    order = [sorted(ancillas).index(q) for q in ancillas]
    marginal = marginal.transpose(order).reshape(-1)
    k = len(ancillas)
    return {format(i, f"0{k}b"): float(marginal[i]) for i in range(1 << k)}
