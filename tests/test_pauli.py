import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from sigmalcu.matrices import Coo, SparseMatrix, frobenius_distance
from sigmalcu.pauli import PAULI_CHARS, PauliDecomposition, decompose_pauli
from sigmalcu.pde import HeatParams, heat_1d, poisson_1d, wave_1d

CORNER_PAIR = SparseMatrix.from_entries(2, reference.coo([(0, 3, 1.0), (3, 0, 2.0)]))


def splice_reference(m: SparseMatrix, tol: float = 1e-12) -> PauliDecomposition:
    """Slow reference: splice each stored entry into all 4^n traces through
    a per-qubit outer product, O(nnz * 4^n)."""
    n = m.n_qubits
    coeffs = np.zeros((4,) * n, dtype=complex)
    for (r, c), v in reference.entries(m).items():
        prod = np.ones((), dtype=complex)
        for p in range(n):
            row_bit = (r >> (n - 1 - p)) & 1
            col_bit = (c >> (n - 1 - p)) & 1
            prod = np.multiply.outer(prod, reference.PAULI_AT_PAIR[:, 2 * row_bit + col_bit])
        coeffs += v * prod.conj()
    coeffs = coeffs.ravel() / m.dim  # the flat index is the key
    kept = np.flatnonzero(np.abs(coeffs) > tol)
    return PauliDecomposition._from_columns(n, kept, coeffs[kept])


def trace_coefficient(m: SparseMatrix, factors: str) -> complex:
    """Tr(P^dag A) / 2^n for one Pauli string, summed over the stored
    entries of A; P[r, c] is a product of one table value per qubit."""
    n = m.n_qubits
    entries = reference.entries(m)
    rc = np.array(list(entries), dtype=np.int64)
    values = np.array(list(entries.values()), dtype=complex)
    for p, ch in enumerate(factors):
        pair = 2 * ((rc[:, 0] >> (n - 1 - p)) & 1) + ((rc[:, 1] >> (n - 1 - p)) & 1)
        values = values * reference.PAULI_AT_PAIR[PAULI_CHARS.index(ch), pair].conj()
    return complex(values.sum() / m.dim)


def kron_reconstruct_reference(pd: PauliDecomposition) -> np.ndarray:
    """Slow reference: sum of the terms' dense Kronecker products,
    position 0 most significant."""
    out = np.zeros((1 << pd.n_qubits, 1 << pd.n_qubits), dtype=complex)
    for factors, coeff in reference.pauli_terms(pd):
        out += coeff * reduce(np.kron, (reference.PAULI_MATRICES[ch] for ch in factors))
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
    return SparseMatrix.from_entries(n, reference.coo([(r, c, re + 1j * im) for r, c, re, im in items]))


def assert_same_terms(got: PauliDecomposition, want: PauliDecomposition) -> None:
    assert got.n_qubits == want.n_qubits
    assert np.array_equal(got.keys, want.keys)
    assert np.all(np.abs(got.coeffs - want.coeffs) <= 1e-12)


@settings(max_examples=150, deadline=None)
@given(dyadic_sparse())
@example(CORNER_PAIR)
@example(reference.stored_matrix(3, {}))
def test_transform_matches_splice_reference(m):
    assert_same_terms(decompose_pauli(m), splice_reference(m))


@st.composite
def mask_cases(draw, max_qubits=6):
    """A 1-6 qubit matrix of multiples of 1/4, so that both transforms are
    exact, and a tolerance.  The matrix is sparse, dense (no zero entry, so
    that every bit-flip mask occurs) or made of pairs (r, c), (r ^ f, c ^ f)
    on one mask with values +-v, which cancel half that mask's
    coefficients.  The tolerance is the default or lies halfway between two
    multiples of 1 / (4 * 2^n), where the coefficients lie, and prunes."""
    kind = draw(st.sampled_from(["sparse", "dense", "pairs"]))
    if kind == "sparse":
        m = draw(dyadic_sparse(max_qubits))
    else:
        n = draw(st.integers(1, max_qubits))
        dim = 1 << n
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "dense":
            re = rng.integers(1, 9, (dim, dim)) * rng.choice([-1, 1], (dim, dim))
            m = SparseMatrix.from_dense((re + 1j * rng.integers(-8, 9, (dim, dim))) / 4)
        else:
            k = draw(st.integers(1, 12))
            r, c = rng.integers(0, dim, (2, k))
            f = rng.integers(1, dim, k)
            v = rng.integers(-8, 9, k) / 4
            sign = rng.choice([-1, 1], k)
            m = SparseMatrix.from_entries(
                n, Coo(np.r_[r, r ^ f], np.r_[c, c ^ f], np.r_[v, sign * v].astype(complex))
            )
    tol = draw(st.one_of(st.just(1e-12), st.integers(0, 16).map(lambda j: (j + 0.5) / (4 * m.dim))))
    return m, tol


@settings(max_examples=200, deadline=None)
@given(mask_cases())
@example((CORNER_PAIR, 1e-12))
@example((reference.stored_matrix(1, {}), 1e-12))
@example((reference.stored_matrix(6, {}), 0.5))
def test_mask_kernel_matches_tensor_reference(case):
    """The same strings in the same order as the 4^n tensorized transform,
    with coefficients within 1e-12."""
    m, tol = case
    assert_same_terms(decompose_pauli(m, tol), reference.decompose_pauli(m, tol))


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize(
    "m",
    [heat_1d(HeatParams(2, 2)).matrix, SparseMatrix.from_dense(np.arange(256).reshape(16, 16) * (1 - 0.5j))],
    ids=["heat2x2", "dense4"],
)
def test_chunked_masks_match_one_block(monkeypatch, m, rows):
    """Masks transformed a few rows at a time, as past 2^21 values, give
    the decomposition of one block."""
    whole = decompose_pauli(m)
    monkeypatch.setattr("sigmalcu.pauli._CHUNK", rows << m.n_qubits)
    assert_same_terms(decompose_pauli(m), whole)


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
    for factors, coeff in reference.pauli_terms(pd)[::16]:
        assert abs(coeff - trace_coefficient(m, factors)) <= 1e-12
    kept_norm = np.sum(np.abs(pd.coeffs) ** 2) * m.dim
    stored_norm = sum(abs(v) ** 2 for v in reference.entries(m).values())
    assert kept_norm == pytest.approx(stored_norm, rel=1e-12)


def test_corner_pair_coefficients():
    pd = decompose_pauli(CORNER_PAIR)
    got = dict(reference.pauli_terms(pd))
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
    assert reference.pauli_terms(pd) == [("III", 1.0)]


def test_round_trip_dense_random():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 5):
        dim = 1 << n
        dense = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        pd = decompose_pauli(SparseMatrix.from_dense(dense))
        assert frobenius_distance(kron_reconstruct_reference(pd), dense) < 1e-10


def test_tolerance_prunes():
    dense = np.eye(2, dtype=complex)
    dense[1, 1] = 1.0 + 1e-9
    pd = decompose_pauli(SparseMatrix.from_dense(dense), tol=1e-6)
    assert [factors for factors, _ in reference.pauli_terms(pd)] == ["I"]


def test_nan_tolerance_refused():
    m = SparseMatrix.from_entries(1, reference.coo([(0, 0, 1.0)]))
    with pytest.raises(ValueError, match="^zero-prune tolerance must be a number, got nan$"):
        decompose_pauli(m, tol=float("nan"))


def test_guard():
    """No qubit limit: 13-qubit poisson decomposes.  The limit is a budget
    of 2^25 mask x column values, refused before any transform exists."""
    assert len(decompose_pauli(poisson_1d(13).matrix)) == 8192
    # 64 masks on 20 qubits: 2^26 values, a 1 GiB complex block.
    wide = SparseMatrix.from_entries(20, reference.coo([(x, 0, 1.0) for x in range(64)]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"limited to 2\^25 mask x column values, got 64 x 2\^20$"):
            decompose_pauli(wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sixteen_qubit_poisson():
    """One string per grid point, carrying the whole Frobenius norm."""
    m = poisson_1d(16).matrix
    pd = decompose_pauli(m)
    assert len(pd) == 65536
    kept_norm = np.sum(np.abs(pd.coeffs) ** 2) * m.dim
    assert kept_norm == pytest.approx(np.sum(np.abs(m.vals) ** 2), rel=1e-12)


@pytest.mark.parametrize(
    "m",
    [poisson_1d(s).matrix for s in (1, 4, 10)]
    + [heat_1d(HeatParams(s, t)).matrix for s, t in ((1, 1), (2, 2), (4, 3), (6, 5))]
    + [wave_1d(s, t).matrix for s, t in ((1, 1), (2, 2), (4, 3), (5, 5))],
)
def test_pde_matrices_have_n_plus_one_masks(m):
    """The count the CLI's budget check assumes before building a system."""
    assert np.unique(m.rows ^ m.cols).size == m.n_qubits + 1


def test_columns_and_lazy_terms():
    """The columns are the whole value; strings are decoded from the keys."""
    pd = decompose_pauli(CORNER_PAIR)
    assert list(vars(pd)) == ["n_qubits", "keys", "coeffs"]
    assert pd.keys.tolist() == [5, 6, 9, 10]  # XX, XY, YX, YY in base 4
    assert [factors for factors, _ in reference.pauli_terms(pd)] == ["XX", "XY", "YX", "YY"]


def test_terms_sorted_by_string():
    pd = decompose_pauli(CORNER_PAIR)
    strings = [factors for factors, _ in reference.pauli_terms(pd)]
    assert strings == sorted(strings)


def test_pauli_matrix_position_zero_most_significant():
    zx = np.kron(np.diag([1, -1]), np.array([[0, 1], [1, 0]]))
    pd = decompose_pauli(SparseMatrix.from_dense(zx))
    assert reference.pauli_terms(pd) == [("ZX", 1.0)]
