import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from sigmalcu.blockenc import assemble
from sigmalcu.circuits import Circuit
from sigmalcu.matrices import (
    ZERO_TOL,
    Coo,
    SparseMatrix,
    frobenius_distance,
    load_matrix_market,
    save_matrix_market,
)
from sigmalcu.pauli import (
    PauliDecomposition,
    PauliTerm,
    decompose_pauli,
    pauli_matrix,
    pauli_reconstruct,
)
from sigmalcu.sigma import Decomposition, SigmaFactor, SigmaTerm, completion_matrix, term_matrix
from sigmalcu.simulate import circuit_to_matrix


def write_mtx(path, text):
    path.write_text(text)
    return str(path)


def test_load_single_entry(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 1.0\n",
    )
    m = load_matrix_market(path)
    assert m.n_qubits == 1
    assert m.entries == {(1, 0): 1.0}


def test_load_corner_pair(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n4 4 2\n1 4 1.0\n4 1 2.0\n",
    )
    m = load_matrix_market(path)
    assert m.n_qubits == 2
    assert m.entries == {(0, 3): 1.0, (3, 0): 2.0}


def test_load_complex_field(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 0.5 -1.5\n",
    )
    m = load_matrix_market(path)
    assert m.entries == {(0, 1): complex(0.5, -1.5)}


def test_load_complex_entry_with_zero_imag(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n2 1 1.0 0.0\n",
    )
    m = load_matrix_market(path)
    assert m.n_qubits == 1
    assert m.entries == {(1, 0): 1.0}


def test_load_sums_duplicates_and_prunes(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n1 1 2.0\n1 1 3.0\n2 2 1.0\n2 2 -1.0\n",
    )
    m = load_matrix_market(path)
    assert m.entries == {(0, 0): 5.0}
    assert m.nnz == 1


def test_load_rejects_non_power_of_two(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n",
    )
    with pytest.raises(ValueError, match="power of two"):
        load_matrix_market(path)


def test_load_rejects_non_square(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n4 2 1\n1 1 1.0\n",
    )
    with pytest.raises(ValueError, match="square"):
        load_matrix_market(path)


def test_load_rejects_bad_header(tmp_path):
    path = write_mtx(tmp_path / "m.mtx", "%%NotMatrixMarket nonsense\n2 2 0\n")
    with pytest.raises(ValueError, match="header"):
        load_matrix_market(path)


def test_load_rejects_array_format(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
    )
    with pytest.raises(ValueError, match="coordinate"):
        load_matrix_market(path)


def test_load_rejects_malformed_entry(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops 1.0\n",
    )
    with pytest.raises(ValueError):
        load_matrix_market(path)


def test_to_dense_cases():
    m = SparseMatrix.from_entries(1, [(1, 0, 1.0)])
    assert np.array_equal(m.to_dense(), np.array([[0, 0], [1, 0]], dtype=complex))

    empty = SparseMatrix(1, {})
    assert np.array_equal(empty.to_dense(), np.zeros((2, 2), dtype=complex))

    corner = SparseMatrix.from_entries(2, [(0, 3, 1.0), (3, 0, 2.0)])
    dense = corner.to_dense()
    assert dense[0, 3] == 1.0 and dense[3, 0] == 2.0
    assert np.count_nonzero(dense) == 2


def test_to_dense_guard():
    m = SparseMatrix(15, {(0, 0): 1.0})
    with pytest.raises(ValueError, match="limited to 12 qubits, got 15"):
        m.to_dense()


def test_dense_round_trip_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        dim = 1 << n
        dense = np.zeros((dim, dim), dtype=complex)
        for _ in range(int(rng.integers(1, dim))):
            r, c = rng.integers(0, dim, size=2)
            dense[r, c] = complex(rng.standard_normal(), rng.standard_normal())
        m = SparseMatrix.from_dense(dense)
        assert SparseMatrix.from_dense(m.to_dense()) == m
        assert m.nnz == np.count_nonzero(dense)


def test_matrix_market_round_trip(tmp_path):
    m = SparseMatrix.from_entries(
        2, [(0, 3, 1.5), (3, 0, complex(0, -2.0)), (2, 2, 4.0)]
    )
    path = str(tmp_path / "rt.mtx")
    save_matrix_market(m, path)
    assert load_matrix_market(path) == m


def test_matrix_market_real_round_trip(tmp_path):
    m = SparseMatrix.from_entries(1, [(0, 1, -3.0)])
    path = str(tmp_path / "rt.mtx")
    save_matrix_market(m, path)
    with open(path) as fh:
        assert "real" in fh.readline()
    assert load_matrix_market(path) == m


def test_frobenius_distance():
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert frobenius_distance(m, m) == 0.0
    assert frobenius_distance(np.array([[1.0]]), np.array([[0.0]])) == 1.0
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1, 0]], dtype=complex)
    assert frobenius_distance(a, b) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_frobenius_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        frobenius_distance(np.zeros((2, 2)), np.zeros((4, 4)))


def test_entries_validated():
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix(1, {(2, 0): 1.0})
    with pytest.raises(ValueError, match="zero"):
        SparseMatrix(1, {(0, 0): 0.0})


# The last is finite, but its magnitude overflows a float.
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf), complex(1.7e308, 1.7e308)])
def test_non_finite_entries_refused_by_every_constructor(bad):
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix(1, {(0, 0): bad})
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix.from_entries(1, [(0, 0, 1.0), (1, 1, bad)])
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, bad]], dtype=complex))


def test_overflowing_magnitude_in_matrix_market_is_refused(tmp_path):
    path = write_mtx(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.7e308 1.7e308\n",
    )
    with pytest.raises(ValueError, match=r"entry \(0, 0\) stores a non-finite value"):
        load_matrix_market(path)


def test_opposite_infinities_are_refused_not_pruned():
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix.from_entries(1, [(0, 0, math.inf), (0, 0, -math.inf)])


# Every builder of a dense 2^n x 2^n (or 4^n) array, called one qubit past
# the limit, where the array would take 1 GiB (4 GiB for the Pauli vector).
WIDE = 13
LADDERS = (SigmaFactor.SPLUS,) * WIDE
GUARDED_BUILDERS = {
    "to_dense": lambda: SparseMatrix(WIDE, {(0, 0): 1.0}).to_dense(),
    "completion_matrix": lambda: completion_matrix(SigmaTerm(1.0, LADDERS)),
    "circuit_to_matrix": lambda: circuit_to_matrix(Circuit(WIDE, ())),
    "decompose_pauli": lambda: decompose_pauli(SparseMatrix(WIDE, {(0, 0): 1.0})),
    "pauli_reconstruct": lambda: pauli_reconstruct(
        PauliDecomposition(WIDE, (PauliTerm(1.0, "X" * WIDE),))
    ),
    "pauli_matrix": lambda: pauli_matrix("X" * WIDE),
    # 12 system qubits and one term: no selector, plus the completion ancilla.
    "assemble": lambda: assemble(Decomposition.build(WIDE - 1, [SigmaTerm(1.0, LADDERS[1:])])),
}


@pytest.mark.parametrize("name", sorted(GUARDED_BUILDERS))
def test_dense_builders_refuse_before_allocating(name):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limited to 12 qubits, got {WIDE}"):
            GUARDED_BUILDERS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda: SparseMatrix(40, {}),
    lambda: SparseMatrix.from_entries(32, []),
    # An all-identity term would hold 2^40 entries.
    lambda: term_matrix(SigmaTerm(1.0, "I" * 40)),
])
def test_sparse_width_refused_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^sparse matrices limited to 31 qubits, got (40|32)$"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda: SparseMatrix.from_entries(1, [(0, 0, 1.0)], tol=math.nan),
    # A NaN tolerance would otherwise keep the zeros of the diagonal.
    lambda: SparseMatrix.from_dense(np.diag([1.0, 2.0]), tol=math.nan),
])
def test_nan_tolerance_is_refused(build):
    with pytest.raises(ValueError, match="^zero-prune tolerance must be a number, got nan$"):
        build()


# Signed zeros, values pruned at ZERO_TOL, values whose sum overflows, and
# non-finite values, next to ordinary ones.
EDGE_PARTS = [0.0, -0.0, 1.0, -1.0, 2.5, 1e-15, -3e-15, 1e308, -1.7e308, math.nan, math.inf, -math.inf]


@st.composite
def triples(draw):
    """A width and (row, col, value) triples on few coordinates, so that
    most draws repeat a coordinate and some sums cancel to zero."""
    n = draw(st.integers(1, 3))
    index = st.integers(0, (1 << n) - 1)
    part = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(-4, 4))
    items = draw(st.lists(st.tuples(index, index, part, part), max_size=24))
    return n, [(r, c, complex(re, im)) for r, c, re, im in items]


@settings(max_examples=400, deadline=None)
@given(case=triples(), tol=st.sampled_from([ZERO_TOL, 0.75]))
@example(case=(2, []), tol=ZERO_TOL)
@example(case=(1, [(0, 0, 1.0), (0, 0, -1.0), (1, 0, complex(-0.0, 2.0))]), tol=ZERO_TOL)
@example(case=(1, [(1, 1, complex(-0.0, -0.0)), (1, 1, 3.0)]), tol=ZERO_TOL)
@example(case=(1, [(0, 1, math.inf), (0, 1, -math.inf)]), tol=ZERO_TOL)
def test_from_entries_matches_dict_reference(case, tol):
    """Triples and Coo arrays coalesce to the bytes of the dict loop, and
    sums the loop refuses (NaN, infinite or overflowing) are refused."""
    n, items = case
    coo = Coo(*(np.array(column) for column in zip(*items))) if items else None
    try:
        want = reference.from_entries(n, items, tol)
    except (ValueError, OverflowError):
        with pytest.raises(ValueError, match="non-finite"):
            SparseMatrix.from_entries(n, items, tol)
        return
    reference.assert_same_arrays(SparseMatrix.from_entries(n, items, tol), want)
    if coo is not None:
        reference.assert_same_arrays(SparseMatrix.from_entries(n, coo, tol), want)
    assert SparseMatrix(n, dict(want.entries)) == want


def test_entries_is_a_read_only_view():
    m = SparseMatrix.from_entries(1, [(1, 0, 2.0), (0, 1, 1.0)])
    assert list(m.entries.items()) == [((0, 1), 1.0), ((1, 0), 2.0)]
    with pytest.raises(TypeError):
        m.entries[(0, 0)] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        m.vals[0] = 5.0
