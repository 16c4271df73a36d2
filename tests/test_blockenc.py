import cmath
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from sigmalcu.blockenc import (
    BLOCK_TOL,
    assemble,
    resource_report,
    select_circuit,
    verify_block_encoding,
)
from sigmalcu.circuits import Circuit, build_ul_circuit, gate_count
from sigmalcu.matrices import frobenius_distance
from sigmalcu.pde import HeatParams, heat_1d, poisson_1d, wave_1d
from sigmalcu.sigma import Decomposition, SigmaFactor, SigmaTerm, reconstruct, term_matrix
from sigmalcu.simulate import circuit_to_matrix, run, zero_state

I, P, M, A, B = (
    SigmaFactor.IDENT,
    SigmaFactor.SPLUS,
    SigmaFactor.SMINUS,
    SigmaFactor.SPSM,
    SigmaFactor.SMSP,
)


STRINGS2 = sorted("".join(f) for f in itertools.product("IPMAB", repeat=2))


def sorted_decomposition(coeffs):
    """The coefficients in the given order, on sorted distinct strings, so
    that Decomposition(n, terms) keeps zero and tiny ones as given."""
    return Decomposition(2, (SigmaTerm(c, f) for c, f in zip(coeffs, STRINGS2)))


def prep_amplitudes(coeffs):
    prep = assemble(sorted_decomposition(coeffs)).overall.gates[0]
    assert prep.label == "prep"
    width = len(prep.targets)
    return run(Circuit(width, (prep,)), zero_state(width)).amplitudes


def test_prep_uniform():
    amps = prep_amplitudes([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(amps, 0.5 * np.ones(4), atol=1e-14)


def test_prep_poisson_base_coefficients():
    amps = prep_amplitudes([2.0, -1.0, -1.0])
    expected = [np.sqrt(2.0 / 4.0), np.sqrt(1.0 / 4.0), np.sqrt(1.0 / 4.0), 0.0]
    assert np.allclose(amps, expected, atol=1e-14)


def test_prep_rejects_all_zero():
    for coeffs in ([0.0], [0.0, 0.0], [0.0, 0j, 0.0]):
        with pytest.raises(ValueError) as info:
            assemble(sorted_decomposition(coeffs))
        assert str(info.value) == "need at least one nonzero coefficient"


@pytest.mark.parametrize("coeffs", [[1e308] * 3], ids=["sum-overflows"])
def test_prep_refuses_a_lambda_out_of_range(coeffs):
    with pytest.raises(ValueError) as info:
        assemble(sorted_decomposition(coeffs))
    assert str(info.value) == "lambda = sum |coeff| out of floating-point range"


def test_select_single_term_collapses_selector():
    d = Decomposition.build(1, [SigmaTerm(1.0, (P,))])
    circuit = select_circuit(d)
    assert circuit.n_qubits == 2  # ancilla + system, no selector
    from sigmalcu.circuits import build_ul_circuit

    direct = circuit_to_matrix(build_ul_circuit(d.terms[0]))
    assert np.array_equal(circuit_to_matrix(circuit), direct)


def test_select_two_branches():
    d = Decomposition.build(2, [SigmaTerm(1.0, (A, A)), SigmaTerm(1.0, (B, B))])
    circuit = select_circuit(d)
    matrix = circuit_to_matrix(circuit)
    from sigmalcu.circuits import build_ul_circuit

    u0 = circuit_to_matrix(build_ul_circuit(d.terms[0]))
    u1 = circuit_to_matrix(build_ul_circuit(d.terms[1]))
    dim = u0.shape[0]
    assert np.array_equal(matrix[:dim, :dim], u0)
    assert np.array_equal(matrix[dim:, dim:], u1)
    assert not matrix[:dim, dim:].any()


def test_negative_coefficient_sign_appears_in_block():
    d = Decomposition.build(1, [SigmaTerm(1.0, (A,)), SigmaTerm(-1.0, (B,))])
    assert {g.kind for g in select_circuit(d).gates} == {"x"}
    block = circuit_to_matrix(assemble(d).overall, columns=2)[:2]
    assert np.allclose(block, np.diag([0.5, -0.5]), atol=1e-14)


def test_assemble_identity_term():
    d = Decomposition.build(2, [SigmaTerm(1.0, (I, I))])
    encoding = assemble(d)
    report = verify_block_encoding(encoding)
    assert report["lambda"] == 1.0
    assert report["frobenius_error"] == 0.0


@pytest.mark.parametrize(
    "system",
    [
        poisson_1d(1),
        poisson_1d(2),
        heat_1d(HeatParams(s=1, t=1)),
        wave_1d(1, 1),
    ],
    ids=["poisson1", "poisson2", "heat11", "wave11"],
)
def test_assemble_pde_systems(system):
    encoding = assemble(system.decomposition)
    report = verify_block_encoding(encoding)
    assert report["frobenius_error"] < 1e-10
    assert report["qubits"] == encoding.n_qubits
    w = circuit_to_matrix(encoding.overall)
    dim = w.shape[0]
    assert np.abs(w @ w.conj().T - np.eye(dim)).max() < 1e-10
    # encoded block is A / lambda
    block = w[: 1 << system.decomposition.n_qubits, : 1 << system.decomposition.n_qubits]
    target = system.matrix.to_dense() / encoding.lam
    assert np.abs(block - target).max() < 1e-10


def test_assemble_near_guard_width():
    # 19 terms -> 5 selector qubits + ancilla + 5 system qubits = 11
    system = wave_1d(2, 2)
    encoding = assemble(system.decomposition)
    assert encoding.n_qubits == 11
    report = verify_block_encoding(encoding)
    assert report["frobenius_error"] < 1e-10


def test_assemble_complex_coefficients():
    d = Decomposition.build(
        1, [SigmaTerm(1j, (P,)), SigmaTerm(complex(-0.5, 0.5), (M,))]
    )
    encoding = assemble(d)
    report = verify_block_encoding(encoding)
    assert report["frobenius_error"] < 1e-12
    assert encoding.lam == pytest.approx(1.0 + np.sqrt(0.5))


def test_lambda_scales_with_coefficients():
    base = poisson_1d(1).decomposition
    scaled = Decomposition.build(
        1, [SigmaTerm(3.0 * t.coeff, t.factors) for t in base.terms]
    )
    enc_base = assemble(base)
    enc_scaled = assemble(scaled)
    assert enc_scaled.lam == pytest.approx(3.0 * enc_base.lam, abs=1e-12)
    block_base = circuit_to_matrix(enc_base.overall)[:2, :2] * enc_base.lam
    block_scaled = circuit_to_matrix(enc_scaled.overall)[:2, :2] * enc_scaled.lam / 3.0
    assert np.allclose(block_base, block_scaled, atol=1e-12)


def test_assemble_rejects_empty_and_oversized():
    with pytest.raises(ValueError, match="empty"):
        assemble(Decomposition(2, ()))
    # 11 system qubits + ancilla + 2 selector qubits > 12
    wide = Decomposition.build(
        11,
        [
            SigmaTerm(1.0, (I,) * 11),
            SigmaTerm(1.0, (A,) * 11),
            SigmaTerm(1.0, (B,) * 11),
        ],
    )
    with pytest.raises(ValueError, match="limited to 12 qubits, got 14"):
        assemble(wide)


def test_resource_report_poisson():
    system = poisson_1d(4)
    report = resource_report(system.decomposition, epsilon=1e-3)
    assert report["L"] == 9
    assert report["n"] == 4
    assert report["N"] == 16
    assert report["selector_qubits"] == 4
    assert report["lambda"] == pytest.approx(
        sum(abs(t.coeff) for t in system.decomposition.terms)
    )
    assert len(report["per_term_mcx_arities"]) == 9
    assert "O(L log2 N) = O(36)" in report["select"]["count"]


def test_resource_report_degenerate():
    d = Decomposition.build(2, [SigmaTerm(2.0, (A, B))])
    report = resource_report(d, epsilon=0.5)
    assert report["L"] == 1
    assert report["selector_qubits"] == 0


@pytest.mark.parametrize("epsilon", [1e-320, 5e-324])
def test_resource_report_subnormal_epsilon_is_finite(epsilon):
    # 1 / epsilon overflows to inf here; log2(1/eps) is still about 1063-1074.
    report = resource_report(poisson_1d(4).decomposition, epsilon=epsilon)
    assert report["prep"]["count"] == f"O(L log2(1/eps)) = O({9 * -math.log2(epsilon):.1f})"
    assert "inf" not in json.dumps(report)


def test_resource_report_epsilon_guard():
    d = Decomposition.build(1, [SigmaTerm(1.0, (I,))])
    with pytest.raises(ValueError, match="epsilon"):
        resource_report(d, epsilon=2.0)


@st.composite
def small_decompositions(draw):
    n = draw(st.integers(1, 3))
    factors = st.lists(st.sampled_from([I, P, M, A, B]), min_size=n, max_size=n).map(tuple)
    coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=4, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(factors, coeffs, min_size=1, max_size=6))
    return Decomposition.build(n, (SigmaTerm(c, fs) for fs, c in terms.items()))


@settings(max_examples=60, deadline=None)
@given(d=small_decompositions())
def test_column_restricted_check_matches_full_matrix(d):
    encoding = assemble(d)
    report = verify_block_encoding(encoding)
    dim = 1 << d.n_qubits
    block = circuit_to_matrix(encoding.overall)[:dim, :dim]
    full_error = frobenius_distance(block, reconstruct(d).to_dense() / encoding.lam)
    assert abs(report["frobenius_error"] - full_error) <= 1e-15
    assert report["frobenius_error"] <= BLOCK_TOL


def test_select_accepts_a_coefficient_whose_phase_underflows():
    """The angle of 2 + 5e-324j underflows to 0, where cmath.phase raises
    OverflowError."""
    d = Decomposition(1, (SigmaTerm(2 + 5e-324j, I), SigmaTerm(1.0, P)))
    assert verify_block_encoding(assemble(d))["frobenius_error"] <= BLOCK_TOL


# The all-identity term's completion has a bare X and no MCX.
@settings(max_examples=60, deadline=None)
@given(d=small_decompositions())
@example(d=Decomposition.build(2, [SigmaTerm(1.0, (I, I)), SigmaTerm(0.5, (P, I)), SigmaTerm(2.0, (A, M))]))
@example(d=Decomposition.build(1, [SigmaTerm(1.0, (I,))]))
def test_report_arities_match_built_completion_circuits(d):
    report = resource_report(d, epsilon=1e-3)
    expected = [list(gate_count(build_ul_circuit(t)).mcx) for t in d.terms]
    assert report["per_term_mcx_arities"] == expected


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False) | st.just(0j),
        min_size=2,
        max_size=9,
    ).filter(any)
)
@example(coeffs=[0.0, 1.0, -2.0])  # a zero first coefficient, one padded entry
@example(coeffs=[3.0, 1e-300j, -1.0, 0.5, 2.0])  # three padded entries
def test_prep_is_the_real_reflection(coeffs):
    prep = assemble(sorted_decomposition(coeffs)).overall.gates[0]
    assert prep.matrix.tobytes() == reference.prep_matrix(coeffs).tobytes()


@settings(max_examples=60, deadline=None)
@given(d=small_decompositions())
@example(d=Decomposition.build(1, [SigmaTerm(-2.0, (P,))]))
@example(d=Decomposition.build(2, [SigmaTerm(1.0, (A, B))]))
def test_select_is_x_only_and_preparations_are_the_only_dense_gates(d):
    assert {g.kind for g in select_circuit(d).gates} == {"x"}
    encoding = assemble(d)
    dense = [g.label for g in encoding.overall.gates if g.kind == "dense"]
    if encoding.selector_qubits:
        assert dense == ["prep", "prep_dag"]
        assert (encoding.overall.gates[0].label, encoding.overall.gates[-1].label) == ("prep", "prep_dag")
    else:
        assert dense in ([], ["phase"])


@st.composite
def scaled_decompositions(draw):
    """Complex, negative and 1e-300-magnitude coefficients, which
    Decomposition(n, terms) keeps as given."""
    n = draw(st.integers(1, 3))
    strings = st.text(alphabet="IPMAB", min_size=n, max_size=n)
    magnitudes = st.floats(0.1, 4) | st.floats(0.1, 4).map(lambda m: m * 1e-300)
    phases = st.sampled_from([1, -1, 1j, -1j]) | st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t))
    coeffs = st.builds(lambda m, p: m * p, magnitudes, phases)
    terms = draw(st.dictionaries(strings, coeffs, min_size=1, max_size=6))
    return Decomposition(n, (SigmaTerm(c, f) for f, c in terms.items()))


@settings(max_examples=100, deadline=None)
@given(d=scaled_decompositions())
@example(d=Decomposition(1, (SigmaTerm(2 + 5e-324j, I), SigmaTerm(1.0, P))))
@example(d=Decomposition(1, (SigmaTerm(1e-300, P), SigmaTerm(-1e-300j, M))))
def test_block_is_the_matrix_over_lambda(d):
    encoding = assemble(d)
    dim = 1 << d.n_qubits
    block = circuit_to_matrix(encoding.overall, columns=dim)[:dim]
    # Summed from unit terms: reconstruct prunes terms below ZERO_TOL, and
    # here every term may be below it.
    target = sum(t.coeff / encoding.lam * term_matrix(SigmaTerm(1.0, t.factors)).to_dense() for t in d.terms)
    assert frobenius_distance(block, target) <= BLOCK_TOL
    assert verify_block_encoding(encoding)["frobenius_error"] <= BLOCK_TOL


STRINGS3 = ["".join(f) for f in itertools.product("IPMAB", repeat=3)]


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(min_magnitude=0.01, max_magnitude=100, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
# In the decomposition's order these eight sum to 3.6000000000000005 left
# to right, and to 3.5999999999999996 in numpy's pairwise order.
@example(coeffs=[0.1 * (k + 1) for k in range(8)])
def test_every_lambda_is_the_one_prep_normalises_by(coeffs):
    d = Decomposition(3, (SigmaTerm(c, f) for c, f in zip(coeffs, STRINGS3)))
    want = reference.prep_lambda(d.coeffs).hex()
    encoding = assemble(d)
    assert encoding.lam.hex() == want
    assert resource_report(d, 1e-3)["lambda"].hex() == want
    assert verify_block_encoding(encoding)["lambda"].hex() == want
