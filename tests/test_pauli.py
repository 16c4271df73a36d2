import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmalcu.matrices import SparseMatrix, frobenius_distance
from sigmalcu.pauli import (
    _PAULI_AT_PAIR,
    PAULI_CHARS,
    PauliDecomposition,
    PauliTerm,
    decompose_pauli,
    pauli_matrix,
    pauli_reconstruct,
)
from sigmalcu.pde import HeatParams, heat_1d, poisson_1d

CORNER_PAIR = SparseMatrix.from_entries(2, [(0, 3, 1.0), (3, 0, 2.0)])


def splice_reference(m: SparseMatrix, tol: float = 1e-12) -> PauliDecomposition:
    """Slow reference: splice each stored entry into all 4^n traces through
    a per-qubit outer product, O(nnz * 4^n)."""
    n = m.n_qubits
    coeffs = np.zeros((4,) * n, dtype=complex)
    for (r, c), v in m.entries.items():
        prod = np.ones((), dtype=complex)
        for p in range(n):
            row_bit = (r >> (n - 1 - p)) & 1
            col_bit = (c >> (n - 1 - p)) & 1
            prod = np.multiply.outer(prod, _PAULI_AT_PAIR[:, 2 * row_bit + col_bit])
        coeffs += v * prod.conj()
    coeffs /= m.dim

    terms = []
    for digits in np.argwhere(np.abs(coeffs) > tol):
        factors = "".join(PAULI_CHARS[d] for d in digits)
        terms.append(PauliTerm(complex(coeffs[tuple(digits)]), factors))
    return PauliDecomposition(n, tuple(terms))


def trace_coefficient(m: SparseMatrix, factors: str) -> complex:
    """Tr(P^dag A) / 2^n for one Pauli string, summed over the stored
    entries of A; P[r, c] is a product of one table value per qubit."""
    n = m.n_qubits
    rc = np.array(list(m.entries), dtype=np.int64)
    values = np.array(list(m.entries.values()), dtype=complex)
    for p, ch in enumerate(factors):
        pair = 2 * ((rc[:, 0] >> (n - 1 - p)) & 1) + ((rc[:, 1] >> (n - 1 - p)) & 1)
        values = values * _PAULI_AT_PAIR[PAULI_CHARS.index(ch), pair].conj()
    return complex(values.sum() / m.dim)


def kron_reconstruct_reference(pd: PauliDecomposition) -> np.ndarray:
    """Slow reference: sum of the terms' dense Kronecker products."""
    out = np.zeros((1 << pd.n_qubits, 1 << pd.n_qubits), dtype=complex)
    for t in pd.terms:
        out += t.coeff * pauli_matrix(t.factors)
    return out


@st.composite
def dyadic_sparse(draw, max_qubits=6):
    """Sparse matrices whose entries are small multiples of 1/4, so that
    every sum in either decomposition path is exact."""
    n = draw(st.integers(1, max_qubits))
    dim = 1 << n
    index = st.integers(0, dim - 1)
    quarter = st.integers(-8, 8).map(lambda k: k / 4)
    items = draw(
        st.lists(st.tuples(index, index, quarter, quarter), min_size=0, max_size=24)
    )
    return SparseMatrix.from_entries(n, [(r, c, re + 1j * im) for r, c, re, im in items])


def assert_same_terms(got: PauliDecomposition, want: PauliDecomposition) -> None:
    assert got.n_qubits == want.n_qubits
    assert [t.factors for t in got.terms] == [t.factors for t in want.terms]
    for a, b in zip(got.terms, want.terms):
        assert abs(a.coeff - b.coeff) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(dyadic_sparse())
@example(CORNER_PAIR)
@example(SparseMatrix(3, {}))
def test_transform_matches_splice_reference(m):
    assert_same_terms(decompose_pauli(m), splice_reference(m))


@pytest.mark.parametrize(
    "m",
    [poisson_1d(7).matrix, heat_1d(HeatParams(3, 4)).matrix],
    ids=["poisson7", "heat3x4"],
)
def test_structured_matrices_match_splice_reference(m):
    assert_same_terms(decompose_pauli(m), splice_reference(m))


def test_eleven_qubit_poisson():
    """Every 16th kept coefficient equals its trace, and the kept terms carry
    the whole Frobenius norm (Parseval), so no string was dropped.  The
    splicing reference is too slow at 11 qubits."""
    m = poisson_1d(11).matrix
    pd = decompose_pauli(m)
    assert len(pd) == 2048
    for t in pd.terms[::16]:
        assert abs(t.coeff - trace_coefficient(m, t.factors)) <= 1e-12
    kept_norm = sum(abs(t.coeff) ** 2 for t in pd.terms) * m.dim
    stored_norm = sum(abs(v) ** 2 for v in m.entries.values())
    assert kept_norm == pytest.approx(stored_norm, rel=1e-12)


@st.composite
def pauli_decompositions(draw, max_qubits=5):
    n = draw(st.integers(1, max_qubits))
    factors = st.text(PAULI_CHARS, min_size=n, max_size=n)
    part = st.floats(-2, 2, allow_nan=False)
    term = st.builds(lambda f, re, im: PauliTerm(complex(re, im), f), factors, part, part)
    terms = draw(st.lists(term, max_size=12))
    return PauliDecomposition(n, tuple(terms))


@settings(max_examples=150, deadline=None)
@given(pauli_decompositions())
@example(PauliDecomposition(2, (PauliTerm(1.0, "XY"), PauliTerm(-0.5j, "XY"), PauliTerm(2.0, "ZI"))))
def test_inverse_transform_matches_kron_sum(pd):
    want = kron_reconstruct_reference(pd)
    np.testing.assert_allclose(pauli_reconstruct(pd), want, rtol=0, atol=1e-12)


def test_reconstruct_rejects_wrong_width():
    with pytest.raises(ValueError, match="3 qubits"):
        pauli_reconstruct(PauliDecomposition(3, (PauliTerm(1.0, "XY"),)))


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
    with pytest.raises(ValueError, match="12"):
        decompose_pauli(SparseMatrix(13, {(0, 0): 1.0}))


def test_terms_sorted_by_string():
    pd = decompose_pauli(CORNER_PAIR)
    strings = [t.factors for t in pd.terms]
    assert strings == sorted(strings)


def test_pauli_matrix_position_zero_most_significant():
    zx = pauli_matrix("ZX")
    direct = np.kron(np.diag([1, -1]), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(zx, direct.astype(complex))
