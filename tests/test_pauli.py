import numpy as np
import pytest

from sigmalcu.matrices import SparseMatrix, frobenius_distance
from sigmalcu.pauli import decompose_pauli, pauli_matrix, pauli_reconstruct

CORNER_PAIR = SparseMatrix.from_entries(2, [(0, 3, 1.0), (3, 0, 2.0)])


def test_corner_pair_coefficients():
    pd = decompose_pauli(CORNER_PAIR)
    got = {t.factors: t.coeff for t in pd.terms}
    want = {
        "XX": 0.75,
        "XY": -0.25j,
        "YX": -0.25j,
        "YY": -0.75,
    }
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-12)


def test_identity_single_term():
    m = SparseMatrix.from_dense(np.eye(8))
    pd = decompose_pauli(m)
    assert [(t.factors, t.coeff) for t in pd.terms] == [("III", 1.0)]


def test_round_trip_dense_random():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 5):
        dim = 1 << n
        dense = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        pd = decompose_pauli(SparseMatrix.from_dense(dense))
        assert frobenius_distance(pauli_reconstruct(pd), dense) < 1e-10


def test_tolerance_prunes():
    dense = np.eye(2, dtype=complex)
    dense[1, 1] = 1.0 + 1e-9
    pd = decompose_pauli(SparseMatrix.from_dense(dense), tol=1e-6)
    assert {t.factors for t in pd.terms} == {"I"}


def test_guard():
    with pytest.raises(ValueError, match="10"):
        decompose_pauli(SparseMatrix(11, {(0, 0): 1.0}))


def test_terms_sorted_by_string():
    pd = decompose_pauli(CORNER_PAIR)
    strings = [t.factors for t in pd.terms]
    assert strings == sorted(strings)


def test_pauli_matrix_position_zero_most_significant():
    zx = pauli_matrix("ZX")
    direct = np.kron(np.diag([1, -1]), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(zx, direct.astype(complex))
