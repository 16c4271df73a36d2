import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sigmalcu.circuits import (
    CLOSED,
    OPEN,
    Circuit,
    Gate,
    build_dilation_circuit,
    build_ul_circuit,
    circuit_from_json_dict,
    circuit_to_json_dict,
    controlled,
    embedded,
    gate_count,
    load_circuit,
    row_swap_circuit,
    save_circuit,
    to_qasm,
)
from sigmalcu.sigma import SigmaFactor, SigmaTerm, completion_matrix, term_matrix
from sigmalcu.simulate import circuit_to_matrix

I, P, M, A, B = (
    SigmaFactor.IDENT,
    SigmaFactor.SPLUS,
    SigmaFactor.SMINUS,
    SigmaFactor.SPSM,
    SigmaFactor.SMSP,
)


def random_term(rng, n):
    return SigmaTerm(1.0, tuple(rng.choice(list("IPMAB")) for _ in range(n)))


def completion_target(term):
    block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
    complement = completion_matrix(term) - block
    return np.block([[block, complement], [complement, block]])


def dilation_target(term):
    block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
    dim = block.shape[0]
    eye = np.eye(dim)
    return np.block(
        [[block, eye - block @ block.T], [eye - block.T @ block, block.T]]
    )


def test_ul_gate_list_for_mixed_term():
    circuit = build_ul_circuit(SigmaTerm(1.0, (M, I, A)))
    assert circuit.n_qubits == 4
    assert circuit.ancillas == frozenset({0})
    assert circuit.gates == (
        Gate("x", (1,)),
        Gate("x", (0,)),
        Gate("x", (0,), ((1, CLOSED), (3, OPEN))),
    )
    counts = gate_count(circuit)
    assert counts == gate_count(circuit)
    assert counts.single_qubit == 2
    assert counts.mcx == (2,)
    assert counts.dense == 0


def test_ul_all_identity_is_identity_circuit():
    circuit = build_ul_circuit(SigmaTerm(1.0, (I, I)))
    assert np.array_equal(circuit_to_matrix(circuit), np.eye(8))


def test_ul_single_raising():
    circuit = build_ul_circuit(SigmaTerm(1.0, (P,)))
    target = completion_target(SigmaTerm(1.0, (P,)))
    got = circuit_to_matrix(circuit)
    assert np.array_equal(got, target)
    # [[s+, s-], [s-, s+]] block layout
    assert got[0, 1] == 1.0 and got[1, 2] == 1.0 and got[3, 0] == 1.0 and got[2, 3] == 1.0


def test_ul_rejects_empty_term():
    with pytest.raises(ValueError):
        SigmaTerm(1.0, ())


def test_ul_random_terms_block_structure():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        term = random_term(rng, n)
        circuit = build_ul_circuit(term)
        got = circuit_to_matrix(circuit)
        assert np.array_equal(got, completion_target(term))
        dim = 1 << n
        assert np.array_equal(got @ got.T.conj(), np.eye(2 * dim))
        assert set(np.unique(got.real)) <= {0.0, 1.0}
        assert np.array_equal(got.imag, np.zeros_like(got.real))
        # symmetric under the 2x2 block swap
        swapped = np.block(
            [[got[dim:, dim:], got[dim:, :dim]], [got[:dim, dim:], got[:dim, :dim]]]
        )
        assert np.array_equal(got, swapped)
        counts = gate_count(circuit)
        k = term.factors.count(I)
        assert counts.single_qubit <= n + 1
        if k == n:
            assert counts.mcx == ()
        else:
            assert counts.mcx == (n - k,)


def test_dilation_equals_completion_when_no_ladders():
    term = SigmaTerm(1.0, (A, B))
    dil = circuit_to_matrix(build_dilation_circuit(term))
    comp = circuit_to_matrix(build_ul_circuit(term))
    assert np.array_equal(dil, comp)


def test_dilation_gate_counts():
    counts = gate_count(build_dilation_circuit(SigmaTerm(1.0, (P, M))))
    assert counts.single_qubit == 1
    assert counts.mcx == (2, 2, 2, 2, 2)


def test_dilation_random_terms():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        term = random_term(rng, n)
        circuit = build_dilation_circuit(term)
        got = circuit_to_matrix(circuit)
        assert np.array_equal(got, dilation_target(term))
        s = sum(1 for f in term.factors if SigmaFactor(f).is_ladder)
        k = term.factors.count(I)
        counts = gate_count(circuit)
        if k == n:
            assert counts.mcx == ()
        else:
            assert len(counts.mcx) == 2 * s + 1
            assert all(arity == n - k for arity in counts.mcx)


def test_mcx_pair_differing_in_one_control_merges():
    # polarity pair on one qubit sums to "no control there": two gates
    # differing only in q1's polarity equal the single gate without q1
    pair = Circuit(
        4,
        (
            Gate("x", (0,), ((1, CLOSED), (2, OPEN), (3, OPEN))),
            Gate("x", (0,), ((1, CLOSED), (2, CLOSED), (3, OPEN))),
        ),
    )
    merged = Circuit(4, (Gate("x", (0,), ((1, CLOSED), (3, OPEN))),))
    assert np.array_equal(circuit_to_matrix(pair), circuit_to_matrix(merged))


def test_row_swap_transposition_costs():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        dim = 1 << n
        row_a, row_b = rng.choice(dim, size=2, replace=False)
        circuit = row_swap_circuit(n, int(row_a), int(row_b))
        differing = bin(int(row_a) ^ int(row_b)).count("1")
        counts = gate_count(circuit)
        assert len(counts.mcx) == 2 * (differing - 1) + 1
        assert counts.single_qubit == 0
        expected = np.eye(dim)
        expected[[row_a, row_b]] = expected[[row_b, row_a]]
        assert np.array_equal(circuit_to_matrix(circuit), expected)


@st.composite
def row_pairs(draw):
    n = draw(st.integers(1, 8))
    rows = st.integers(0, (1 << n) - 1)
    row_a = draw(rows)
    return n, row_a, draw(rows.filter(lambda r: r != row_a))


@settings(max_examples=200, deadline=None)
@given(case=row_pairs())
def test_row_swap_matches_recursive_reference(case):
    n, row_a, row_b = case
    assert row_swap_circuit(n, row_a, row_b) == reference.row_swap_circuit(n, row_a, row_b)


@settings(max_examples=200, deadline=None)
@given(factors=st.text(alphabet="IPMAB", min_size=1, max_size=8))
def test_dilation_matches_recursive_reference(factors):
    term = SigmaTerm(1.0, factors)
    assert build_dilation_circuit(term) == reference.build_dilation_circuit(term)


def test_gate_count_empty_circuit():
    counts = gate_count(Circuit(3, ()))
    assert counts.single_qubit == 0 and counts.mcx == () and counts.dense == 0


def test_controlled_identity_circuit():
    circuit = Circuit(2, ())
    assert np.array_equal(circuit_to_matrix(controlled(circuit, 0, CLOSED)), np.eye(4))


def test_controlled_block_diagonal():
    term = SigmaTerm(1.0, (P,))
    ul = circuit_to_matrix(build_ul_circuit(term))
    wide = embedded(build_ul_circuit(term), 3, offset=1)
    closed = circuit_to_matrix(controlled(wide, 0, CLOSED))
    assert np.array_equal(closed, np.block([[np.eye(4), np.zeros((4, 4))], [np.zeros((4, 4)), ul]]))
    opened = circuit_to_matrix(controlled(wide, 0, OPEN))
    assert np.array_equal(opened, np.block([[ul, np.zeros((4, 4))], [np.zeros((4, 4)), np.eye(4)]]))


def test_controlled_rejects_collision():
    circuit = build_ul_circuit(SigmaTerm(1.0, (P,)))
    with pytest.raises(ValueError, match="already used"):
        controlled(circuit, 0, CLOSED)


def test_controlled_folds_nested_dense():
    rng = np.random.default_rng(51)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z)
    inner = Gate("dense", (2,), ((1, OPEN),), q, "q")
    wrapped = controlled(Circuit(3, (inner,)), 0, CLOSED)
    got = circuit_to_matrix(wrapped)
    lifted = np.eye(8, dtype=complex)
    lifted[4:6, 4:6] = q  # fires on control 0 set, control 1 clear
    assert np.allclose(got, lifted, atol=1e-14)


def test_mcx_validation():
    with pytest.raises(ValueError, match="repeated"):
        Gate("x", (0,), ((0, CLOSED),))
    with pytest.raises(ValueError, match="polarity"):
        Gate("x", (1,), ((0, "up"),))


def test_dense_unitary_validation():
    with pytest.raises(ValueError, match="unitary"):
        Gate("dense", (0,), (), np.array([[1, 0], [1, 1]], dtype=complex))


def test_circuit_validation():
    with pytest.raises(ValueError, match="outside"):
        Circuit(1, (Gate("x", (1,)),))
    with pytest.raises(ValueError, match="ancilla"):
        Circuit(1, (), frozenset({3}))


def test_json_round_trip(tmp_path):
    circuit = build_ul_circuit(SigmaTerm(1.0, (M, I, A)))
    data = circuit_to_json_dict(circuit)
    assert data["n_qubits"] == 4
    assert data["gates"][2]["kind"] == "mcx"
    again = circuit_from_json_dict(data)
    assert again == circuit
    path = str(tmp_path / "c.json")
    save_circuit(circuit, path)
    assert load_circuit(path) == circuit


def test_json_dense_gate_round_trip():
    matrix = np.array([[0, 1], [1, 0]], dtype=complex)
    circuit = Circuit(2, (Gate("dense", (1,), (), matrix, "flip"),))
    again = circuit_from_json_dict(circuit_to_json_dict(circuit))
    assert np.array_equal(again.gates[0].matrix, matrix)
    assert again.gates[0].label == "flip"


def test_json_folds_controlled_dense():
    matrix = np.eye(2, dtype=complex)
    circuit = Circuit(2, (Gate("dense", (1,), ((0, CLOSED),), matrix, "u"),))
    data = circuit_to_json_dict(circuit)
    assert data["gates"][0]["kind"] == "dense"
    assert data["gates"][0]["targets"] == [0, 1]
    again = circuit_from_json_dict(data)
    assert np.array_equal(
        circuit_to_matrix(again), circuit_to_matrix(circuit)
    )


def test_qasm_export_conjugates_open_controls():
    circuit = build_ul_circuit(SigmaTerm(1.0, (M, I, A)))
    text = to_qasm(circuit)
    lines = text.strip().splitlines()
    assert "qreg q[4];" in lines
    # open control on q3 wrapped by x gates
    idx = lines.index("ccx q[1],q[3],q[0];")
    assert lines[idx - 1] == "x q[3];"
    assert lines[idx + 1] == "x q[3];"


def test_qasm_dense_comment():
    circuit = Circuit(1, (Gate("dense", (0,), (), np.eye(2, dtype=complex), "oracle"),))
    assert "// dense gate oracle" in to_qasm(circuit)


def test_embedded_shifts_everything():
    circuit = build_ul_circuit(SigmaTerm(1.0, (P,)))
    shifted = embedded(circuit, 4, offset=2)
    assert shifted.ancillas == frozenset({2})
    assert shifted.gates == (
        Gate("x", (3,)),
        Gate("x", (2,)),
        Gate("x", (2,), ((3, OPEN),)),
    )
    with pytest.raises(ValueError, match="fit"):
        embedded(circuit, 2, offset=1)


def test_zero_control_mcx_is_plain_x():
    gate = Gate("x", (0,), ())
    assert gate == Gate("x", (0,)) and gate_count(Circuit(1, (gate,))).mcx == ()
    data = circuit_to_json_dict(Circuit(1, (gate,)))
    assert data["gates"] == [{"kind": "x", "target": 0}]
