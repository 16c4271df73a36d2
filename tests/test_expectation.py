import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sigmalcu import expectation
from sigmalcu.expectation import (
    StateOracle,
    _distributions,
    expval_full,
    expval_sandwich,
    expval_term,
    sample_expval,
)
from sigmalcu.pde import HeatParams, heat_1d, poisson_1d
from sigmalcu.sigma import Decomposition, SigmaFactor, SigmaTerm, completion_matrix, term_matrix
from sigmalcu.simulate import ancilla_probs, run, zero_state
from sigmalcu.circuits import Circuit, Gate

I, P, M = SigmaFactor.IDENT, SigmaFactor.SPLUS, SigmaFactor.SMINUS


def random_oracle(rng, n, label="U"):
    dim = 1 << n
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return StateOracle(q * (np.diag(r) / np.abs(np.diag(r))), label)


def identity_oracle(n):
    return StateOracle(np.eye(1 << n, dtype=complex), "id")


def x_oracle():
    return StateOracle(np.array([[0, 1], [1, 0]], dtype=complex), "x")


def reference_distributions(*args):
    """a0/a1 distributions from running each full Hadamard-test circuit."""
    circuits = reference.hadamard_test_circuits(*args)
    return [ancilla_probs(run(c, zero_state(c.n_qubits)), [0, 1]) for c in circuits]


def dense_term_value(u, v, term):
    block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
    return (u.matrix.conj().T @ block @ v.matrix)[0, 0]


def dense_sandwich_value(u, v, m, ti, tj):
    ai = term_matrix(SigmaTerm(1.0, ti.factors)).to_dense()
    aj = term_matrix(SigmaTerm(1.0, tj.factors)).to_dense()
    return (u.matrix.conj().T @ ai.conj().T @ m.matrix @ aj @ v.matrix)[0, 0]


def test_identity_term_identity_oracles():
    u = identity_oracle(2)
    term = SigmaTerm(1.0, (I, I))
    assert expval_term(u, u, term) == pytest.approx(1.0, abs=1e-12)


def test_lowering_matrix_elements():
    ident = identity_oracle(1)
    flip = x_oracle()
    lowering = SigmaTerm(1.0, (M,))
    assert expval_term(ident, ident, lowering) == pytest.approx(0.0, abs=1e-12)
    assert expval_term(ident, flip, lowering) == pytest.approx(0.0, abs=1e-12)
    assert expval_term(flip, ident, lowering) == pytest.approx(1.0, abs=1e-12)


def test_terms_against_dense_oracle():
    rng = np.random.default_rng(55)
    system = heat_1d(HeatParams(s=1, t=1))
    for _ in range(5):
        u = random_oracle(rng, 2, "U")
        v = random_oracle(rng, 2, "V")
        for term in system.decomposition.terms:
            got = expval_term(u, v, term)
            assert abs(got - dense_term_value(u, v, term)) < 1e-10


def test_terms_against_dense_oracle_across_families():
    from sigmalcu.pde import wave_1d

    rng = np.random.default_rng(59)
    decompositions = [
        poisson_1d(3).decomposition,
        heat_1d(HeatParams(s=2, t=1)).decomposition,
        wave_1d(1, 2).decomposition,
    ]
    for d in decompositions:
        for _ in range(3):
            u = random_oracle(rng, d.n_qubits, "U")
            v = random_oracle(rng, d.n_qubits, "V")
            for term in d.terms:
                got = expval_term(u, v, term)
                assert abs(got - dense_term_value(u, v, term)) < 1e-10


def test_imaginary_part_sign_convention():
    # psi1 = |1>, psi2 = i|0>, term s-: <1| s- (i |0>) = +i, pinning the
    # phase-gate convention for the imaginary part.
    v = StateOracle(np.diag([1j, 1.0]).astype(complex), "phase")
    flip = x_oracle()
    lowering = SigmaTerm(1.0, (M,))
    got = expval_term(flip, v, lowering)
    want = dense_term_value(flip, v, lowering)
    assert want == pytest.approx(1j, abs=1e-12)
    assert got == pytest.approx(want, abs=1e-10)


def test_pre_measurement_state_matches_branch_structure():
    rng = np.random.default_rng(61)
    term = SigmaTerm(1.0, (M, I, SigmaFactor.SPSM))
    u = random_oracle(rng, 3, "U")
    v = random_oracle(rng, 3, "V")
    circuit, _ = reference.hadamard_test_circuits(u, v, term)
    before_h = Circuit(circuit.n_qubits, circuit.gates[:-1], circuit.ancillas)
    state = run(before_h, zero_state(circuit.n_qubits))
    psi1 = u.matrix[:, 0]
    psi2 = v.matrix[:, 0]
    block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
    complement = completion_matrix(term) - block
    expected = np.zeros(32, dtype=complex)
    expected[0:8] = psi1 / np.sqrt(2)  # |00>
    expected[16:24] = block @ psi2 / np.sqrt(2)  # |10>
    expected[24:32] = complement @ psi2 / np.sqrt(2)  # |11>
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("sandwich", [False, True])
def test_real_and_imaginary_circuits_share_gate_body(sandwich):
    rng = np.random.default_rng(63)
    u, v, m = (random_oracle(rng, 2, label) for label in "UVM")
    left = (m, SigmaTerm(1.0, (P, SigmaFactor.SMSP))) if sandwich else ()
    real, imaginary = reference.hadamard_test_circuits(u, v, SigmaTerm(1.0, (M, I)), *left)
    assert imaginary.gates[1] == Gate("sdg", (0,))
    shared = imaginary.gates[:1] + imaginary.gates[2:]
    assert len(shared) == len(real.gates)
    assert all(a is b for a, b in zip(real.gates, shared))
    assert (real.n_qubits, real.ancillas) == (imaginary.n_qubits, imaginary.ancillas)


def test_sandwich_trivial():
    u = identity_oracle(2)
    term = SigmaTerm(1.0, (I, I))
    assert expval_sandwich(u, u, identity_oracle(2), term, term) == pytest.approx(
        1.0, abs=1e-12
    )


def test_sandwich_against_dense_oracle():
    rng = np.random.default_rng(67)
    system = poisson_1d(1)
    terms = system.decomposition.terms
    for _ in range(4):
        u = random_oracle(rng, 1, "U")
        v = random_oracle(rng, 1, "V")
        m = random_oracle(rng, 1, "M")
        for ti in terms:
            for tj in terms:
                got = expval_sandwich(u, v, m, ti, tj)
                assert abs(got - dense_sandwich_value(u, v, m, ti, tj)) < 1e-10


def test_sandwich_gram_symmetry():
    rng = np.random.default_rng(71)
    u = random_oracle(rng, 2, "U")
    ident = identity_oracle(2)
    terms = poisson_1d(2).decomposition.terms[:4]
    for ti in terms:
        for tj in terms:
            left = expval_sandwich(u, u, ident, ti, tj)
            right = expval_sandwich(u, u, ident, tj, ti)
            assert abs(left - right.conjugate()) < 1e-10


def test_expval_full_linearity():
    rng = np.random.default_rng(77)
    system = poisson_1d(2)
    u = random_oracle(rng, 2, "U")
    v = random_oracle(rng, 2, "V")
    got = expval_full(u, v, system.decomposition)
    dense = (u.matrix.conj().T @ system.matrix.to_dense() @ v.matrix)[0, 0]
    assert abs(got - dense) < 1e-9 * len(system.decomposition)


def test_expval_full_empty_is_zero():
    u = identity_oracle(2)
    assert expval_full(u, u, Decomposition(2, ())) == 0j


def test_sample_deterministic_for_seed():
    rng = np.random.default_rng(81)
    u = random_oracle(rng, 2, "U")
    v = random_oracle(rng, 2, "V")
    term = SigmaTerm(1.0, (P, M))
    first = sample_expval(u, v, term, shots=500, seed=123)
    second = sample_expval(u, v, term, shots=500, seed=123)
    assert first == second
    assert first != sample_expval(u, v, term, shots=500, seed=124)


def test_sample_converges_to_exact():
    rng = np.random.default_rng(87)
    u = random_oracle(rng, 2, "U")
    v = random_oracle(rng, 2, "V")
    term = SigmaTerm(1.0, (P, I))
    exact = expval_term(u, v, term)
    shots = 10**6
    estimate = sample_expval(u, v, term, shots=shots, seed=7)
    # estimator variance per part is at most 1/shots
    bound = 5.0 / np.sqrt(shots)
    assert abs(estimate.real - exact.real) < bound
    assert abs(estimate.imag - exact.imag) < bound


def test_sample_exact_when_distribution_degenerate():
    # real-part circuit puts all weight on outcome 00, so the estimate is
    # counts00 / shots = 1 with no sampling noise
    u = identity_oracle(1)
    term = SigmaTerm(1.0, (I,))
    estimate = sample_expval(u, u, term, shots=100, seed=0)
    assert estimate.real == 1.0


def test_sample_rejects_zero_shots():
    u = identity_oracle(1)
    with pytest.raises(ValueError, match="shots"):
        sample_expval(u, u, SigmaTerm(1.0, (I,)), shots=0, seed=0)


def test_sample_refuses_a_negative_seed_before_simulating(monkeypatch):
    def refuse(*args):
        raise AssertionError("circuits simulated for a negative seed")

    monkeypatch.setattr(expectation, "_distributions", refuse)
    u = identity_oracle(1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
        sample_expval(u, u, SigmaTerm(1.0, (I,)), shots=10, seed=-5)


def test_oracle_validation():
    with pytest.raises(ValueError, match="unitary"):
        StateOracle(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="power of two"):
        StateOracle(np.eye(3, dtype=complex))


def test_width_mismatch_rejected():
    u = identity_oracle(2)
    term = SigmaTerm(1.0, (P,))
    with pytest.raises(ValueError, match="qubits"):
        expval_term(u, u, term)


def assert_distributions_close(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.keys() == w.keys()
        assert all(abs(g[k] - w[k]) <= 1e-12 for k in g)


def value_of(distributions):
    real, imaginary = distributions
    return complex(real["00"] - real["10"], imaginary["00"] - imaginary["10"])


@st.composite
def oracle_call_sequences(draw):
    """Three oracles of one width and a sequence of term and sandwich calls
    that reuse and swap them, so calls hit and miss the prefix cache."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    oracles = [random_oracle(rng, n, label) for label in "ABC"]
    factor = st.sampled_from(list(SigmaFactor))
    term = st.lists(factor, min_size=n, max_size=n).map(lambda fs: SigmaTerm(1.0, tuple(fs)))
    index = st.integers(0, 2)
    call = st.tuples(index, index, st.none() | index, term, term)
    return oracles, draw(st.lists(call, min_size=1, max_size=6))


@settings(max_examples=40, deadline=None)
@given(case=oracle_call_sequences())
def test_shared_prefix_matches_circuit_reference(case):
    oracles, calls = case
    for ui, vi, mi, ti, tj in calls:
        u, v = oracles[ui], oracles[vi]
        if mi is None:
            want = reference_distributions(u, v, tj)
            # sample_expval draws from these same distributions.
            assert_distributions_close(_distributions(u, v, tj), want)
            assert abs(expval_term(u, v, tj) - value_of(want)) <= 1e-12
        else:
            m = oracles[mi]
            want = reference_distributions(u, v, tj, m, ti)
            assert_distributions_close(_distributions(u, v, tj, m, ti), want)
            assert abs(expval_sandwich(u, v, m, ti, tj) - value_of(want)) <= 1e-12


def test_cached_states_go_with_their_oracles():
    gc.collect()
    before = len(expectation._PREFIXES)
    rng = np.random.default_rng(91)
    u, v, m = (random_oracle(rng, 2, label) for label in "UVM")
    term = SigmaTerm(1.0, (P, SigmaFactor.SMSP))
    expval_term(u, v, term)
    expval_sandwich(u, v, m, term, term)
    entry = expectation._PREFIXES[u][v]
    assert len(entry.after_m) == 1
    del m
    gc.collect()
    assert len(entry.after_m) == 0
    refs = [weakref.ref(o) for o in (u, v)]
    del u, v, entry
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(expectation._PREFIXES) == before


def test_oracle_matrix_is_a_read_only_copy():
    source = np.eye(2, dtype=complex)
    oracle = StateOracle(source, "id")
    source[0, 0] = -1.0
    assert oracle.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        oracle.matrix[0, 0] = -1.0


def test_sample_is_one_multinomial_draw_per_part():
    rng = np.random.default_rng(93)
    u = random_oracle(rng, 2, "U")
    v = random_oracle(rng, 2, "V")
    term = SigmaTerm(1.0, (M, SigmaFactor.SPSM))
    draws = np.random.default_rng(5)
    parts = []
    for probs in _distributions(u, v, term):
        weights = np.array([probs[k] for k in ("00", "01", "10", "11")])
        counts = draws.multinomial(10**6, weights / weights.sum())
        parts.append((counts[0] - counts[2]) / 10**6)
    assert sample_expval(u, v, term, shots=10**6, seed=5) == complex(*parts)


def test_sample_accepts_int64_shots_and_refuses_more():
    rng = np.random.default_rng(95)
    u = random_oracle(rng, 1, "U")
    term = SigmaTerm(1.0, (P,))
    exact = expval_term(u, u, term)
    estimate = sample_expval(u, u, term, shots=2**63 - 1, seed=0)
    assert abs(estimate - exact) < 1e-8
    with pytest.raises(ValueError, match="shots must be <="):
        sample_expval(u, u, term, shots=2**63, seed=0)
