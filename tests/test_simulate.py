import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import reference
from reference import random_unitary
from sigmalcu.circuits import (
    CLOSED,
    OPEN,
    SINGLE_QUBIT_MATRICES,
    Circuit,
    Gate,
    build_ul_circuit,
    controlled,
    embedded,
)
from sigmalcu.sigma import SigmaTerm, SigmaFactor, completion_matrix, term_matrix
from sigmalcu.simulate import (
    StateVector,
    ancilla_probs,
    apply_gate,
    basis_state,
    circuit_to_matrix,
    run,
    zero_state,
)


def random_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_x_flips_basis():
    out = apply_gate(zero_state(1), Gate("x", (0,)))
    assert np.array_equal(out.amplitudes, [0, 1])


def test_h_makes_superposition():
    out = apply_gate(zero_state(1), Gate("h", (0,)))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_s_and_sdg_phases():
    one = basis_state(1, 1)
    assert np.allclose(apply_gate(one, Gate("s", (0,))).amplitudes, [0, 1j])
    assert np.allclose(apply_gate(one, Gate("sdg", (0,))).amplitudes, [0, -1j])


def test_mcx_polarities():
    # closed on qubit 0, open on qubit 2, target qubit 1
    gate = Gate("x", (1,), ((0, CLOSED), (2, OPEN)))
    for index in range(8):
        out = apply_gate(basis_state(3, index), gate)
        bits = [(index >> (2 - q)) & 1 for q in range(3)]
        fires = bits[0] == 1 and bits[2] == 0
        expected = index ^ (1 << 1) if fires else index
        assert np.array_equal(out.amplitudes, basis_state(3, expected).amplitudes)


def test_gate_on_most_significant_qubit():
    # qubit 0 is the most significant bit of the amplitude index
    out = apply_gate(zero_state(2), Gate("x", (0,)))
    assert np.array_equal(out.amplitudes, basis_state(2, 2).amplitudes)


def test_run_empty_circuit():
    rng = np.random.default_rng(2)
    state = random_state(rng, 3)
    out = run(Circuit(3, ()), state)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_run_double_x_is_identity():
    circuit = Circuit(1, (Gate("x", (0,)), Gate("x", (0,))))
    for index in range(2):
        out = run(circuit, basis_state(1, index))
        assert np.array_equal(out.amplitudes, basis_state(1, index).amplitudes)


def test_completion_circuit_action_on_ancilla_zero():
    rng = np.random.default_rng(9)
    term = SigmaTerm(1.0, (SigmaFactor.SMINUS, SigmaFactor.IDENT, SigmaFactor.SPSM))
    circuit = build_ul_circuit(term)
    psi = random_state(rng, 3)
    initial = StateVector(4, np.kron([1, 0], psi.amplitudes))
    final = run(circuit, initial)
    block = term_matrix(term).to_dense()
    complement = completion_matrix(term) - block
    expected = np.concatenate([block @ psi.amplitudes, complement @ psi.amplitudes])
    assert np.allclose(final.amplitudes, expected, atol=1e-12)


def test_circuit_to_matrix_basics():
    assert np.array_equal(
        circuit_to_matrix(Circuit(1, (Gate("x", (0,)),))),
        np.array([[0, 1], [1, 0]], dtype=complex),
    )
    assert np.array_equal(circuit_to_matrix(Circuit(2, ())), np.eye(4))


def test_circuit_to_matrix_permutation_for_x_mcx():
    rng = np.random.default_rng(15)
    gates = []
    for _ in range(6):
        target = int(rng.integers(0, 4))
        others = [q for q in range(4) if q != target]
        rng.shuffle(others)
        controls = tuple(
            (q, CLOSED if rng.integers(0, 2) else OPEN) for q in others[: rng.integers(0, 3)]
        )
        gates.append(Gate("x", (target,), controls))
    matrix = circuit_to_matrix(Circuit(4, tuple(gates)))
    assert set(np.unique(matrix.real)) <= {0.0, 1.0}
    assert np.array_equal(matrix.sum(axis=0), np.ones(16))
    assert np.array_equal(matrix.sum(axis=1), np.ones(16))


def test_dense_gate_matches_kron_lift():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 3) + 1))
        targets = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        u = random_unitary(rng, 1 << k)
        gate = Gate("dense", targets, (), u, "u")
        state = random_state(rng, n)
        out = apply_gate(state, gate)
        # lift: permute target qubits to the front, apply, permute back
        perm = list(targets) + [q for q in range(n) if q not in targets]
        tensor = state.amplitudes.reshape([2] * n).transpose(perm).reshape(1 << k, -1)
        lifted = (u @ tensor).reshape([2] * n).transpose(np.argsort(perm)).reshape(-1)
        assert np.allclose(out.amplitudes, lifted, atol=1e-12)


def test_controlled_dense_respects_polarity():
    rng = np.random.default_rng(27)
    u = random_unitary(rng, 2)
    state = random_state(rng, 2)
    closed = apply_gate(state, Gate("dense", (1,), ((0, CLOSED),), u, "u"))
    expected = state.amplitudes.copy()
    expected[2:] = u @ expected[2:]
    assert np.allclose(closed.amplitudes, expected, atol=1e-12)
    opened = apply_gate(state, Gate("dense", (1,), ((0, OPEN),), u, "u"))
    expected = state.amplitudes.copy()
    expected[:2] = u @ expected[:2]
    assert np.allclose(opened.amplitudes, expected, atol=1e-12)


def test_norm_preserved_along_circuit():
    rng = np.random.default_rng(33)
    state = random_state(rng, 3)
    circuit = Circuit(
        3,
        (
            Gate("h", (0,)),
            Gate("x", (2,), ((0, CLOSED),)),
            Gate("s", (1,)),
            Gate("dense", (1, 2), (), random_unitary(rng, 4), "u"),
        ),
    )
    out = state
    for gate in circuit.gates:
        out = apply_gate(out, gate)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_ancilla_probs_basics():
    assert ancilla_probs(zero_state(3), [0, 1]) == {
        "00": 1.0,
        "01": 0.0,
        "10": 0.0,
        "11": 0.0,
    }


def test_ancilla_probs_product_structure():
    rng = np.random.default_rng(39)
    psi = random_state(rng, 2).amplitudes
    phi = random_state(rng, 2).amplitudes
    # (|00 psi> + |10 phi>) / sqrt(2) over qubits (a0, a1, q0, q1)
    amps = np.zeros(16, dtype=complex)
    amps[0:4] = psi / np.sqrt(2)
    amps[8:12] = phi / np.sqrt(2)
    probs = ancilla_probs(StateVector(4, amps), [0, 1])
    assert probs["00"] == pytest.approx(0.5, abs=1e-12)
    assert probs["10"] == pytest.approx(0.5, abs=1e-12)
    assert probs["01"] == 0.0 and probs["11"] == 0.0
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)


def test_ancilla_probs_order_matters():
    state = basis_state(2, 1)  # qubit 0 clear, qubit 1 set
    assert ancilla_probs(state, [0, 1])["01"] == 1.0
    assert ancilla_probs(state, [1, 0])["10"] == 1.0


def test_ancilla_probs_validation():
    with pytest.raises(ValueError, match="repeats"):
        ancilla_probs(zero_state(2), [0, 0])
    with pytest.raises(ValueError, match="range"):
        ancilla_probs(zero_state(2), [5])


def test_apply_gate_index_guard():
    with pytest.raises(ValueError, match="outside"):
        apply_gate(zero_state(1), Gate("x", (1,)))


def test_run_width_guard():
    with pytest.raises(ValueError, match="width"):
        run(Circuit(2, ()), zero_state(1))


def test_matrix_guard():
    with pytest.raises(ValueError, match="12"):
        circuit_to_matrix(Circuit(13, ()))


def test_state_vector_validation():
    with pytest.raises(ValueError, match="normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="amplitudes"):
        StateVector(2, np.array([1.0, 0.0]))


def test_state_vector_refuses_nan_amplitudes():
    with pytest.raises(ValueError, match=r"not normalized \(norm nan\)"):
        StateVector(1, np.array([np.nan, 0]))


# -1 once gave the last basis state, and 4 an IndexError.
@pytest.mark.parametrize("index", [-1, 4, 2**70])
def test_basis_state_refuses_an_index_outside_the_register(index):
    with pytest.raises(ValueError) as info:
        basis_state(2, index)
    assert str(info.value) == f"basis state index {index} is outside 0..2^2 - 1"
    assert np.array_equal(basis_state(2, 3).amplitudes, [0, 0, 0, 1])


# Slow reference: every gate becomes a dense matrix on its qubits (controls
# folded in as block-diagonal factors, innermost control first), lifted to
# the full register by a basis permutation.


def folded_matrix(g):
    matrix = g.matrix if g.kind == "dense" else SINGLE_QUBIT_MATRICES[g.kind]
    for _, pol in reversed(g.controls):
        eye = np.eye(matrix.shape[0])
        matrix = block_diag(eye, matrix) if pol == CLOSED else block_diag(matrix, eye)
    return matrix


def lifted_matrix(g, n):
    qubits = list(g.qubits)
    order = qubits + [q for q in range(n) if q not in qubits]
    wide = np.kron(folded_matrix(g), np.eye(1 << (n - len(qubits))))
    # perm[i] = index of basis state i with its bits listed in ``order``
    perm = np.zeros(1 << n, dtype=int)
    for i in range(1 << n):
        for q in order:
            perm[i] = (perm[i] << 1) | ((i >> (n - 1 - q)) & 1)
    return wide[np.ix_(perm, perm)]


@st.composite
def random_gates(draw, n):
    kind = draw(st.sampled_from(["x", "h", "s", "sdg", "dense"]))
    n_targets = draw(st.integers(1, min(3, n))) if kind == "dense" else 1
    n_controls = draw(st.integers(0, min(3, n - n_targets)))
    qubits = draw(st.permutations(range(n)))[: n_targets + n_controls]
    pols = draw(st.lists(st.sampled_from([OPEN, CLOSED]), min_size=n_controls, max_size=n_controls))
    matrix = None
    if kind == "dense":
        seed = draw(st.integers(0, 2**32 - 1))
        matrix = random_unitary(np.random.default_rng(seed), 1 << n_targets)
    return Gate(kind, tuple(qubits[:n_targets]), tuple(zip(qubits[n_targets:], pols)), matrix)


@st.composite
def random_circuits(draw, min_qubits=1):
    n = draw(st.integers(min_qubits, 5))
    gates = draw(st.lists(random_gates(n), min_size=1, max_size=4))
    return Circuit(n, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1))
def test_simulator_matches_folded_reference(circuit, seed):
    n = circuit.n_qubits
    state = random_state(np.random.default_rng(seed), n)
    expected_unitary = np.eye(1 << n, dtype=complex)
    for g in circuit.gates:
        lifted = lifted_matrix(g, n)
        assert np.allclose(apply_gate(state, g).amplitudes, lifted @ state.amplitudes, atol=1e-12)
        expected_unitary = lifted @ expected_unitary
    assert np.allclose(circuit_to_matrix(circuit), expected_unitary, atol=1e-12)
    assert np.allclose(run(circuit, state).amplitudes, expected_unitary @ state.amplitudes, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(circuit=random_circuits(), polarity=st.sampled_from([OPEN, CLOSED]))
def test_controlled_embedded_is_block_diagonal(circuit, polarity):
    inner = circuit_to_matrix(circuit)
    eye = np.eye(inner.shape[0])
    wide = embedded(circuit, circuit.n_qubits + 1, offset=1)
    got = circuit_to_matrix(controlled(wide, 0, polarity))
    expected = block_diag(eye, inner) if polarity == CLOSED else block_diag(inner, eye)
    assert np.allclose(got, expected, atol=1e-12)


@st.composite
def x_mcx_circuits(draw):
    n = draw(st.integers(1, 6))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        qubits = draw(st.permutations(range(n)))
        n_controls = draw(st.integers(0, n - 1))
        pols = draw(st.lists(st.sampled_from([OPEN, CLOSED]), min_size=n_controls, max_size=n_controls))
        gates.append(Gate("x", (qubits[0],), tuple(zip(qubits[1 : n_controls + 1], pols))))
    return Circuit(n, tuple(gates))


@settings(max_examples=150, deadline=None)
@given(circuit=x_mcx_circuits(), fraction=st.floats(0, 1))
@example(circuit=Circuit(3, ()), fraction=1.0)
@example(circuit=Circuit(2, (Gate("x", (1,)),)), fraction=0.5)
def test_permutation_path_matches_tensor_loop(circuit, fraction):
    expected = reference.tensor_matrix(circuit)
    assert np.array_equal(circuit_to_matrix(circuit), expected)
    k = round(fraction * expected.shape[1])
    assert np.array_equal(circuit_to_matrix(circuit, columns=k), expected[:, :k])


@settings(max_examples=80, deadline=None)
@given(circuit=random_circuits(), fraction=st.floats(0, 1))
def test_column_restriction_matches_tensor_loop(circuit, fraction):
    expected = reference.tensor_matrix(circuit)
    k = round(fraction * expected.shape[1])
    got = circuit_to_matrix(circuit, columns=k)
    assert got.shape == (expected.shape[0], k)
    np.testing.assert_allclose(got, expected[:, :k], rtol=0, atol=1e-13)


@st.composite
def mixed_circuits(draw):
    n = draw(st.integers(1, 6))
    return Circuit(n, tuple(draw(st.lists(random_gates(n), max_size=12))))


# circuit_to_matrix updates one tensor in place; the reference runs the pure
# gate rule on a fresh array per gate.  Same arithmetic, so same bits.
@settings(max_examples=150, deadline=None)
@given(circuit=mixed_circuits(), fraction=st.floats(0, 1))
@example(
    circuit=Circuit(3, (Gate("h", (1,)), Gate("x", (0,), ((2, OPEN), (1, CLOSED))), Gate("x", (2,)))),
    fraction=0.5,
)
def test_in_place_kernel_matches_pure_reference(circuit, fraction):
    expected = reference.tensor_matrix(circuit)
    assert np.array_equal(circuit_to_matrix(circuit), expected)
    k = round(fraction * expected.shape[1])
    assert np.array_equal(circuit_to_matrix(circuit, columns=k), reference.tensor_matrix(circuit, k))


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1))
def test_apply_gate_leaves_its_input(circuit, seed):
    state = random_state(np.random.default_rng(seed), circuit.n_qubits)
    before = state.amplitudes.copy()
    tensor = before.reshape([2] * circuit.n_qubits + [1])
    for g in circuit.gates:
        after = apply_gate(state, g)
        assert np.array_equal(state.amplitudes, before)
        assert np.array_equal(after.amplitudes, reference.apply_to_tensor(tensor, g).reshape(-1))


def test_column_count_validation():
    for bad in (-1, 5):
        with pytest.raises(ValueError, match="columns"):
            circuit_to_matrix(Circuit(2, ()), columns=bad)
