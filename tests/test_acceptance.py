"""Acceptance suite.

One test per criterion; each prints a single [PASS]/[FAIL] line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces the
stated tolerance and runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from sigmalcu.blockenc import assemble, verify_block_encoding
from sigmalcu.circuits import build_dilation_circuit, build_ul_circuit, gate_count
from sigmalcu.expectation import StateOracle, expval_sandwich, expval_term
from sigmalcu.matrices import SparseMatrix, frobenius_distance
from sigmalcu.pauli import decompose_pauli
from sigmalcu.pde import HeatParams, heat_1d, poisson_1d, wave_1d
from sigmalcu.sigma import (
    SigmaFactor,
    SigmaTerm,
    completion_matrix,
    decompose_numerical,
    reconstruct,
    term_matrix,
)
from sigmalcu.simulate import basis_state, circuit_to_matrix, run
from sigmalcu.circuits import CLOSED, OPEN, Circuit, Gate

POISSON_S = (4, 5, 6, 7)
HEAT_WAVE_ST = ((2, 2), (2, 3), (3, 3), (3, 4))


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_term(rng, n, allow_all_identity=True):
    while True:
        factors = "".join(rng.choice(list("IPMAB")) for _ in range(n))
        if allow_all_identity or factors != SigmaFactor.IDENT * n:
            return SigmaTerm(1.0, factors)


def completion_target(term):
    block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
    complement = completion_matrix(term) - block
    return np.block([[block, complement], [complement, block]])


def test_criterion_1_term_count_formulas():
    with criterion(1, "sigma term counts match the closed-form formulas", 1.0):
        for s, expected in zip(POISSON_S, (9, 11, 13, 15)):
            system = poisson_1d(s)
            assert len(system.decomposition) == 2 * s + 1 == expected
        for s, t in HEAT_WAVE_ST:
            heat = heat_1d(HeatParams(s=s, t=t))
            assert len(heat.decomposition) <= (t + 1) + (4 * s + 6)
            wave = wave_1d(s, t)
            assert len(wave.decomposition) <= (t + 1) + 2 * (2 * (s + 1) + 4)


def test_criterion_2_exact_reconstruction():
    with criterion(2, "reconstruct inverts the numerical decomposition", 10.0):
        systems = [poisson_1d(s) for s in POISSON_S]
        systems += [heat_1d(HeatParams(s=s, t=t)) for s, t in HEAT_WAVE_ST]
        systems += [wave_1d(s, t) for s, t in HEAT_WAVE_ST]
        for system in systems:
            assert reconstruct(decompose_numerical(system.matrix)) == system.matrix
            assert reconstruct(system.decomposition) == system.matrix

        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            dim = 1 << n
            count = max(1, int(rng.uniform(0.01, 0.1) * dim * dim))
            integer_valued = trial % 2 == 0
            items = []
            for _ in range(count):
                r, c = (int(x) for x in rng.integers(0, dim, size=2))
                if integer_valued:
                    value = complex(int(rng.integers(1, 10)))
                else:
                    value = complex(rng.standard_normal(), rng.standard_normal())
                items.append((r, c, value))
            matrix = SparseMatrix.from_entries(n, items)
            rebuilt = reconstruct(decompose_numerical(matrix))
            if integer_valued:
                assert rebuilt == matrix
            else:
                if n <= 8:
                    err = frobenius_distance(rebuilt.to_dense(), matrix.to_dense())
                    assert err < 1e-12
                assert rebuilt == matrix


def test_criterion_3_completion_circuit_correctness():
    with criterion(3, "completion circuits realize the exact block unitary", 30.0):
        rng = np.random.default_rng(3001)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            term = random_term(rng, n)
            circuit = build_ul_circuit(term)
            got = circuit_to_matrix(circuit)
            assert np.array_equal(got, completion_target(term))
            dim = got.shape[0]
            assert np.array_equal(got @ got.conj().T, np.eye(dim))
            counts = gate_count(circuit)
            k = term.factors.count(SigmaFactor.IDENT)
            assert counts.single_qubit <= n + 1
            if k == n:
                # the arity-0 gate normalizes to a plain X
                assert counts.mcx == ()
            else:
                assert counts.mcx == (n - k,)


def test_criterion_4_corner_pair_reproduction():
    with criterion(4, "4x4 corner-pair matrix: 2 sigma terms, 4 Pauli terms", 5.0):
        matrix = SparseMatrix.from_entries(2, [(0, 3, 1.0), (3, 0, 2.0)])
        d = decompose_numerical(matrix)
        assert {(t.factors, t.coeff) for t in d.terms} == {
            ("PP", 1.0),
            ("MM", 2.0),
        }
        pd = decompose_pauli(matrix)
        got = {t.factors: t.coeff for t in pd.terms}
        want = {"XX": 0.75, "XY": -0.25j, "YX": -0.25j, "YY": -0.75}
        assert set(got) == set(want)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12


def test_criterion_5_hadamard_tests():
    with criterion(5, "Hadamard tests match dense matrix elements to 1e-10", 60.0):
        rng = np.random.default_rng(5005)
        system = heat_1d(HeatParams(s=2, t=2))
        n = system.decomposition.n_qubits
        dim = 1 << n
        for _ in range(20):
            u = StateOracle(random_unitary(rng, dim), "U")
            v = StateOracle(random_unitary(rng, dim), "V")
            for term in system.decomposition.terms:
                got = expval_term(u, v, term)
                block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
                want = (u.matrix.conj().T @ block @ v.matrix)[0, 0]
                assert abs(got.real - want.real) < 1e-10
                assert abs(got.imag - want.imag) < 1e-10
        for _ in range(20):
            u = StateOracle(random_unitary(rng, dim), "U")
            v = StateOracle(random_unitary(rng, dim), "V")
            m = StateOracle(random_unitary(rng, dim), "M")
            ti = random_term(rng, n)
            tj = random_term(rng, n)
            got = expval_sandwich(u, v, m, ti, tj)
            ai = term_matrix(SigmaTerm(1.0, ti.factors)).to_dense()
            aj = term_matrix(SigmaTerm(1.0, tj.factors)).to_dense()
            want = (u.matrix.conj().T @ ai.conj().T @ m.matrix @ aj @ v.matrix)[0, 0]
            assert abs(got.real - want.real) < 1e-10
            assert abs(got.imag - want.imag) < 1e-10


def test_criterion_6_block_encodings():
    with criterion(6, "PREP/SELECT block equals A over lambda to 1e-10", 120.0):
        systems = [
            poisson_1d(1),
            poisson_1d(2),
            heat_1d(HeatParams(s=1, t=1)),
            wave_1d(1, 1),
        ]
        for system in systems:
            encoding = assemble(system.decomposition)
            assert encoding.n_qubits <= 12
            w = circuit_to_matrix(encoding.overall)
            dim = w.shape[0]
            assert np.abs(w @ w.conj().T - np.eye(dim)).max() < 1e-10
            block_dim = 1 << system.decomposition.n_qubits
            target = system.matrix.to_dense() / encoding.lam
            err = frobenius_distance(w[:block_dim, :block_dim], target)
            assert err < 1e-10
            report = verify_block_encoding(encoding)
            assert report["frobenius_error"] < 1e-10


def test_criterion_7_dilation_comparison():
    with criterion(7, "dilation circuits: 2s + 1 gates, blocks agree", 30.0):
        rng = np.random.default_rng(7007)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            term = random_term(rng, n, allow_all_identity=False)
            circuit = build_dilation_circuit(term)
            s = sum(1 for f in term.factors if SigmaFactor(f).is_ladder)
            counts = gate_count(circuit)
            assert len(counts.mcx) == 2 * s + 1
            got = circuit_to_matrix(circuit)
            if s == 0:
                assert np.array_equal(got, circuit_to_matrix(build_ul_circuit(term)))
            else:
                dim = 1 << n
                block = term_matrix(SigmaTerm(1.0, term.factors)).to_dense()
                assert np.array_equal(got[:dim, :dim], block)
                completion = circuit_to_matrix(build_ul_circuit(term))
                assert np.array_equal(completion[:dim, :dim], block)
        # all-identity edge: the single arity-0 gate normalizes to X and
        # both constructions give the identity matrix
        ident = SigmaTerm(1.0, (SigmaFactor.IDENT,) * 3)
        assert np.array_equal(
            circuit_to_matrix(build_dilation_circuit(ident)),
            circuit_to_matrix(build_ul_circuit(ident)),
        )


def test_criterion_8_toffoli_truth_tables():
    with criterion(8, "all 3-qubit MCX polarity layouts match their truth tables", 5.0):
        layouts = []
        for pol0 in (CLOSED, OPEN):
            for pol1 in (CLOSED, OPEN):
                layouts.append((((0, pol0), (1, pol1)), 2))
                layouts.append((((1, pol0), (2, pol1)), 0))
        assert len(layouts) == 8
        for controls, target in layouts:
            gate = Gate("x", (target,), controls)
            matrix = circuit_to_matrix(Circuit(3, (gate,)))
            for index in range(8):
                bits = [(index >> (2 - q)) & 1 for q in range(3)]
                fires = all(
                    bits[q] == (1 if pol == CLOSED else 0) for q, pol in controls
                )
                expected_index = index ^ (1 << (2 - target)) if fires else index
                out = run(Circuit(3, (gate,)), basis_state(3, index))
                assert np.array_equal(
                    out.amplitudes, basis_state(3, expected_index).amplitudes
                )
                assert matrix[expected_index, index] == 1.0


def test_criterion_9_pauli_count_trend():
    with criterion(9, "Pauli counts dominate sigma counts and grow with n_x", 60.0):
        ratios = []
        for s in POISSON_S:
            system = poisson_1d(s)
            sigma_count = len(system.decomposition)
            pauli_count = len(decompose_pauli(system.matrix))
            n_x = 1 << s
            assert pauli_count >= n_x / 2
            ratios.append(pauli_count / sigma_count)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
