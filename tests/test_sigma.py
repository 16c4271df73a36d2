import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import reference
from sigmalcu import _codec
from sigmalcu.matrices import ZERO_TOL, SparseMatrix
from sigmalcu.sigma import (
    Decomposition,
    SigmaFactor,
    SigmaTerm,
    completion,
    completion_matrix,
    decompose_numerical,
    from_json_dict,
    load_decomposition,
    merge_terms,
    reconstruct,
    save_decomposition,
    term_matrix,
)

I, P, M, A, B = (
    SigmaFactor.IDENT,
    SigmaFactor.SPLUS,
    SigmaFactor.SMINUS,
    SigmaFactor.SPSM,
    SigmaFactor.SMSP,
)

CORNER_PAIR = SparseMatrix.from_entries(2, reference.coo([(0, 3, 1.0), (3, 0, 2.0)]))


def random_sparse(rng, n, density=0.1, integer=False):
    dim = 1 << n
    count = max(1, int(density * dim * dim))
    items = []
    for _ in range(count):
        r, c = (int(x) for x in rng.integers(0, dim, size=2))
        if integer:
            v = complex(int(rng.integers(1, 9)))
        else:
            v = complex(rng.standard_normal(), rng.standard_normal())
        items.append((r, c, v))
    return SparseMatrix.from_entries(n, reference.coo(items))


def random_term(rng, n, coeff=1.0):
    factors = tuple(rng.choice(list("IPMAB")) for _ in range(n))
    return SigmaTerm(coeff, factors)


def test_factor_matrices_match_definitions():
    expected = {
        I: np.eye(2),
        P: [[0, 1], [0, 0]],
        M: [[0, 0], [1, 0]],
        A: [[1, 0], [0, 0]],
        B: [[0, 0], [0, 1]],
    }
    for factor, matrix in expected.items():
        want = np.asarray(matrix, dtype=complex)
        assert np.array_equal(term_matrix(SigmaTerm(1.0, factor)).to_dense(), want)
        assert np.array_equal(reference.FACTOR_MATRICES[factor], want)


def test_term_matrix_matches_kron():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        term = random_term(rng, n, coeff=complex(rng.standard_normal(), rng.standard_normal()))
        dense = np.array([[1]], dtype=complex)
        for f in map(SigmaFactor, term.factors):
            dense = np.kron(dense, reference.FACTOR_MATRICES[f])
        assert np.array_equal(term_matrix(term).to_dense(), term.coeff * dense)


def test_term_matrix_examples():
    assert reference.entries(term_matrix(SigmaTerm(1.0, (M, M)))) == {(3, 0): 1.0}
    assert reference.entries(term_matrix(SigmaTerm(1.0, (M, I, A)))) == {(4, 0): 1.0, (6, 2): 1.0}
    c = complex(0.5, -0.25)
    ident = term_matrix(SigmaTerm(c, (I, I)))
    assert np.array_equal(ident.to_dense(), c * np.eye(4))


def test_term_matrix_nonzero_count():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        term = random_term(rng, n)
        k = term.factors.count(I)
        assert term_matrix(term).nnz == 1 << k


def test_decompose_corner_pair():
    d = decompose_numerical(CORNER_PAIR)
    assert {(t.factors, t.coeff) for t in d.terms} == {("PP", 1.0), ("MM", 2.0)}


def test_decompose_single_lowering():
    m = SparseMatrix.from_entries(1, reference.coo([(1, 0, 1.0)]))
    d = decompose_numerical(m)
    assert [(t.factors, t.coeff) for t in d.terms] == [("M", 1.0)]


def test_decompose_identity_avoids_ident_factor():
    m = SparseMatrix.from_entries(1, reference.coo([(0, 0, 1.0), (1, 1, 1.0)]))
    d = decompose_numerical(m)
    assert {t.factors for t in d.terms} == {"A", "B"}


def test_decompose_empty_errors():
    with pytest.raises(ValueError) as info:
        decompose_numerical(SparseMatrix.from_entries(1, reference.coo([])))
    assert str(info.value) == NO_TERMS


def test_round_trip_exact_random():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        m = random_sparse(rng, n, integer=bool(trial % 2))
        d = decompose_numerical(m)
        assert len(d.terms) == m.nnz
        assert reconstruct(d) == m


NO_TERMS = "decomposition has no terms above 1e-14 in magnitude"


# Each once gave a decomposition without terms, which a file cannot hold.
@pytest.mark.parametrize("make", [
    lambda: Decomposition.build(1, []),
    lambda: Decomposition.build(1, [SigmaTerm(1.0, "P"), SigmaTerm(-1.0, "P")]),
    # A + B - I on one qubit: the merged identity cancels.
    lambda: merge_terms(Decomposition.build(1, (SigmaTerm(1.0, "A"), SigmaTerm(1.0, "B"), SigmaTerm(-1.0, "I")))),
    lambda: from_json_dict({"n_qubits": 1, "terms": [{"re": 1e-300, "im": 0.0, "factors": "P"}]}),
], ids=["build", "build-cancels", "merge-cancels", "reader-prunes"])
def test_decomposition_without_terms_is_refused(make):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == NO_TERMS


# Each was once stored as given, and a saved file read back without it.
# Decomposition.build prunes it.
@pytest.mark.parametrize("terms, zero", [
    ((SigmaTerm(1e-20, "PP"), SigmaTerm(1.0, "MM")), "1e-20"),
    ((SigmaTerm(5e-324, "A"), SigmaTerm(2.0, "B"), SigmaTerm(-1e-15, "I")), "5e-324"),
    ((SigmaTerm(complex(-0.0, 5e-324), "P"), SigmaTerm(-1e308, "M")), "(-0+5e-324j)"),
    ((SigmaTerm(1.0, "P"), SigmaTerm(0, "M")), "0"),
])
def test_build_prunes_a_zero_coefficient(terms, zero):
    pruned = [t for t in terms if abs(t.coeff) <= ZERO_TOL]
    assert str(pruned[0].coeff) == zero  # the first zero of the terms
    n = len(terms[0].factors)
    kept = [t for t in terms if t not in pruned]
    assert Decomposition.build(n, terms) == reference.stored_decomposition(n, kept)


def test_merge_projector_pair():
    d = Decomposition.build(1, [SigmaTerm(1.0, (A,)), SigmaTerm(1.0, (B,))])
    merged = merge_terms(d)
    assert [(t.factors, t.coeff) for t in merged.terms] == [("I", 1.0)]


def test_merge_poisson_numerical():
    from sigmalcu.pde import poisson_1d

    system = poisson_1d(2)
    numeric = decompose_numerical(system.matrix)
    merged = merge_terms(numeric)
    assert len(merged) <= 5
    assert reconstruct(merged) == system.matrix
    assert {t.factors for t in merged.terms} == {
        t.factors for t in system.decomposition.terms
    }


def test_merge_single_term_fixpoint():
    d = Decomposition.build(2, [SigmaTerm(2.0, (A, P))])
    assert merge_terms(d) == d


def test_merge_requires_equal_coefficients():
    d = Decomposition.build(1, [SigmaTerm(1.0, (A,)), SigmaTerm(2.0, (B,))])
    assert merge_terms(d) == d


def test_merge_collides_with_existing_identity():
    d = Decomposition.build(
        1, [SigmaTerm(1.0, (A,)), SigmaTerm(1.0, (B,)), SigmaTerm(5.0, (I,))]
    )
    merged = merge_terms(d)
    assert [(t.factors, t.coeff) for t in merged.terms] == [("I", 6.0)]


def test_merge_preserves_reconstruct_and_count():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = random_sparse(rng, n, density=0.2, integer=True)
        d = decompose_numerical(m)
        merged = merge_terms(d)
        assert len(merged) <= len(d)
        assert reconstruct(merged) == m


def outcome(make, arg):
    """The decomposition ``make(arg)`` returns, as comparable bytes, or the
    message refusing it."""
    try:
        d = make(arg)
    except (ValueError, OverflowError) as exc:
        return str(exc)
    return d.n_qubits, d.keys.tobytes(), d.coeffs.tobytes()


def merge_terms_sorted_reference(d):
    """Slow reference for ``merge_terms``: the loop as first written, which
    re-sorts every candidate string at each position of each pass."""
    coeffs = {tuple(map(SigmaFactor, t.factors)): t.coeff for t in d.terms}
    changed = True
    while changed:
        changed = False
        for p in range(d.n_qubits):
            for factors in sorted(coeffs, key=lambda fs: "".join(f.value for f in fs)):
                if factors not in coeffs or factors[p] is not A:
                    continue
                partner = factors[:p] + (B,) + factors[p + 1 :]
                if partner not in coeffs or coeffs[partner] != coeffs[factors]:
                    continue
                coeff = coeffs.pop(factors)
                coeffs.pop(partner)
                merged = factors[:p] + (I,) + factors[p + 1 :]
                total = coeffs.get(merged, 0j) + coeff
                if abs(total) > 1e-14:
                    coeffs[merged] = total
                elif merged in coeffs:
                    coeffs.pop(merged)
                changed = True
    return Decomposition.build(d.n_qubits, (SigmaTerm(c, fs) for fs, c in coeffs.items()))


@st.composite
def decompositions_with_repeated_coefficients(draw):
    n = draw(st.integers(1, 3))
    # Few factors, few coefficients and distinct strings (no summing), so
    # that most draws hold mergeable pairs and some merges cancel an
    # existing identity string.
    factors = st.lists(st.sampled_from([A, B, I, P]), min_size=n, max_size=n)
    coeffs = st.sampled_from([1.0, -1.0, 0.5j])
    terms = draw(st.dictionaries(factors.map(tuple), coeffs, min_size=1, max_size=16))
    return Decomposition.build(n, (SigmaTerm(c, fs) for fs, c in terms.items()))


@settings(max_examples=300, deadline=None)
@given(d=decompositions_with_repeated_coefficients())
def test_merge_matches_sorted_reference(d):
    # Equal, or refused alike where every term cancels.
    assert outcome(merge_terms, d) == outcome(merge_terms_sorted_reference, d)


@st.composite
def nudged_decompositions(draw):
    """A decomposition with repeated coefficients, and the same one with
    every coefficient moved by up to four ulps."""
    d = draw(decompositions_with_repeated_coefficients())
    ulps = draw(st.lists(st.integers(-4, 4), min_size=len(d), max_size=len(d)))
    nudged = (SigmaTerm(t.coeff * (1 + k * 2.0**-52), t.factors) for t, k in zip(d.terms, ulps))
    return d, Decomposition.build(d.n_qubits, nudged)


@settings(max_examples=300, deadline=None)
@given(pair=nudged_decompositions())
def test_merge_tolerates_near_equal_coefficients(pair):
    exact, nudged = pair
    if isinstance(outcome(merge_terms, exact), str):  # every term cancels
        with pytest.raises(ValueError, match="no terms"):
            merge_terms(nudged)
        return
    merged = merge_terms(nudged)
    assert len(merged) <= len(nudged)
    # Rounding neither blocks a merge nor makes one that exact values would not.
    assert [t.factors for t in merged.terms] == [t.factors for t in merge_terms(exact).terms]
    scale = max([1.0, *(abs(t.coeff) for t in nudged.terms)])
    diff = reconstruct(merged).to_dense() - reconstruct(nudged).to_dense()
    assert np.max(np.abs(diff)) <= ZERO_TOL * scale


def test_merge_needs_second_pass():
    d = Decomposition.build(
        2, [SigmaTerm(1.0, (A, A)), SigmaTerm(1.0, (A, B)), SigmaTerm(1.0, (B, I))]
    )
    expected = Decomposition.build(2, (SigmaTerm(1.0, (I, I)),))
    assert merge_terms(d) == merge_terms_sorted_reference(d) == expected


def test_completion_examples():
    assert completion(SigmaTerm(1.0, (M, I, A))) == ["X", "I", "I"]
    assert completion(SigmaTerm(1.0, (I, I))) == ["I", "I"]
    assert completion(SigmaTerm(1.0, (P, M))) == ["X", "X"]


def test_completion_orthogonality():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        term = random_term(rng, n)
        comp = completion_matrix(term)
        dim = 1 << n
        # permutation matrix: orthogonal with 0/1 entries
        assert np.array_equal(comp @ comp.T, np.eye(dim))
        assert set(np.unique(comp.real)) <= {0.0, 1.0}
        block = term_matrix(term).to_dense()
        complement = comp - block
        assert np.array_equal(complement.T @ block, np.zeros((dim, dim)))
        assert np.array_equal(block.T @ complement, np.zeros((dim, dim)))


def test_decomposition_build_sums_and_sorts():
    d = Decomposition.build(
        1,
        [SigmaTerm(1.0, (P,)), SigmaTerm(1.0, (M,)), SigmaTerm(-1.0, (P,))],
    )
    assert [(t.factors, t.coeff) for t in d.terms] == [("M", 1.0)]


def test_decomposition_rejects_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        Decomposition.build(2, (SigmaTerm(1.0, (P,)),))


# Decomposition.build sums a repeated string; the file reader refuses one.
def test_decomposition_refuses_a_repeated_factor_string():
    terms = [{"re": 1.0, "im": 0.0, "factors": f} for f in ("P", "M", "M", "P")]
    with pytest.raises(ValueError) as info:
        from_json_dict({"n_qubits": 1, "terms": terms})
    assert str(info.value) == "duplicate factor string M"


# The last three are finite, but their magnitudes overflow a float; an
# int's compares below math.inf.  An int is quoted by its size: its 401
# digits were quoted whole, str() refuses one past 4300 digits, and
# from_string raised OverflowError.
@pytest.mark.parametrize(
    "bad",
    [
        float("nan"),
        float("inf"),
        complex(0.0, float("-inf")),
        complex(1.7e308, 1.7e308),
        pytest.param(10**400, id="int-past-float-range"),
        pytest.param(-(10**5000), id="int-past-str-limit"),
    ],
)
def test_term_rejects_non_finite_coefficient(bad):
    for make in (SigmaTerm, SigmaTerm.from_string):
        with pytest.raises(ValueError, match="not finite") as info:
            make(bad, "P")
        if isinstance(bad, int):
            bits = bad.bit_length()
            assert str(info.value) == f"sigma term P coefficient is a {bits}-bit integer, not finite in magnitude"


def test_build_refuses_sums_that_are_not_finite():
    with pytest.raises(ValueError, match="not finite"):
        Decomposition.build(1, [SigmaTerm(1e308, (P,)), SigmaTerm(1e308, (P,))])


def test_term_from_string_accepts_spaces():
    term = SigmaTerm.from_string(2.0, "M I A")
    assert term.factors == "MIA"
    with pytest.raises(ValueError, match="invalid factor"):
        SigmaTerm.from_string(1.0, "MXQ")


@st.composite
def spaced_factor_texts(draw):
    """Factor members, and their string with runs of spaces drawn between,
    before and after the characters."""
    members = draw(st.lists(st.sampled_from(list(SigmaFactor)), min_size=1, max_size=8))
    size = len(members) + 1
    gaps = draw(st.lists(st.sampled_from(["", " ", "  "]), min_size=size, max_size=size))
    spaced = gaps[0] + "".join(f + gap for f, gap in zip(members, gaps[1:]))
    return members, spaced


@settings(max_examples=200, deadline=None)
@given(
    case=spaced_factor_texts(),
    coeff=st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
)
def test_members_string_and_spaced_text_build_one_term(case, coeff):
    members, spaced = case
    term = SigmaTerm(coeff, members)
    assert term == SigmaTerm(coeff, tuple(members))
    assert term == SigmaTerm(coeff, "".join(members))
    assert term == SigmaTerm.from_string(coeff, spaced)
    assert type(term.factors) is str and term.factors == spaced.replace(" ", "")


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet="IPMAB Xx1-", min_size=1, max_size=8))
def test_strings_outside_the_alphabet_are_refused_with_the_text_as_given(text):
    assume(text.replace(" ", "").strip("IPMAB"))
    message = f"invalid factor string {text!r}"
    for build in (SigmaTerm, SigmaTerm.from_string):
        with pytest.raises(ValueError) as info:
            build(1.0, text)
        assert str(info.value) == message


@pytest.mark.parametrize("build, factors", [
    (SigmaTerm, ""),
    (SigmaTerm, ()),
    (SigmaTerm.from_string, ""),
    (SigmaTerm.from_string, "   "),
])
def test_empty_factor_strings_are_refused(build, factors):
    with pytest.raises(ValueError) as info:
        build(1.0, factors)
    assert str(info.value) == "a sigma term needs at least one factor"


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    m = random_sparse(rng, 3, density=0.2)
    d = decompose_numerical(m)
    assert from_json_dict(json.loads(reference.decomposition_json(d))) == d
    path = str(tmp_path / "d.json")
    save_decomposition(d, path)
    assert load_decomposition(path) == d


def kron_completion_matrix(term):
    """Slow reference: the Kronecker product of the per-position completion
    factors."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    out = np.array([[1]], dtype=complex)
    for tag in completion(term):
        out = np.kron(out, x if tag == "X" else np.eye(2, dtype=complex))
    return out


@settings(max_examples=100, deadline=None)
@given(factors=st.lists(st.sampled_from([I, P, M, A, B]), min_size=1, max_size=8))
def test_completion_matrix_matches_kron_reference(factors):
    term = SigmaTerm(1.0, tuple(factors))
    got = completion_matrix(term)
    expected = kron_completion_matrix(term)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_same_terms(got: Decomposition, want: Decomposition) -> None:
    """Equal factor strings, and coefficients equal to the bit."""
    assert got.n_qubits == want.n_qubits
    assert [t.factors for t in got.terms] == [t.factors for t in want.terms]
    got_coeffs = np.array([t.coeff for t in got.terms], dtype=complex)
    want_coeffs = np.array([t.coeff for t in want.terms], dtype=complex)
    assert got_coeffs.tobytes() == want_coeffs.tobytes()


# Finite coefficient parts: signed zeros, parts pruned at ZERO_TOL, and
# 1e308, so that some sums overflow to infinity or in magnitude.
COEFF_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-15, -1e308, 1e308]), st.floats(-4, 4)
)
COEFFS = st.builds(complex, COEFF_PARTS, COEFF_PARTS)
FACTORS = st.sampled_from([I, P, M, A, B])


@settings(max_examples=300, deadline=None)
@given(factors=st.lists(FACTORS, min_size=1, max_size=8), coeff=COEFFS)
@example(factors=[I, I, I], coeff=complex(-0.0, 2.0))
@example(factors=[A, I], coeff=1e-15)
def test_term_matrix_matches_product_reference(factors, coeff):
    term = SigmaTerm(coeff, tuple(factors))
    reference.assert_same_arrays(term_matrix(term), reference.term_matrix(term))


@st.composite
def term_lists(draw):
    """Terms on few strings, so that strings repeat and sums cancel."""
    n = draw(st.integers(1, 4))
    strings = st.lists(st.sampled_from([I, A, B, P]), min_size=n, max_size=n).map(tuple)
    coeff = st.one_of(st.sampled_from([1.0, -1.0, complex(-0.0, 1.0), 0.5j]), COEFFS)
    return n, draw(st.lists(st.builds(SigmaTerm, coeff, strings), max_size=12))


@settings(max_examples=300, deadline=None)
@given(case=term_lists())
@example(case=(1, [SigmaTerm(1.0, (I,)), SigmaTerm(-1.0, (A,))]))
@example(case=(2, []))
def test_build_and_reconstruct_match_references(case):
    n, terms = case
    try:
        want = reference.build(n, terms)
    except (ValueError, OverflowError) as exc:
        # A sum that is not finite, or whose magnitude overflows; or no term left.
        with pytest.raises(ValueError, match="no terms" if "no terms" in str(exc) else "not finite"):
            Decomposition.build(n, terms)
        return
    got = Decomposition.build(n, terms)
    assert_same_terms(got, want)
    try:
        want_matrix = reference.reconstruct(got)
    except (ValueError, OverflowError):
        with pytest.raises(ValueError, match="non-finite"):
            reconstruct(got)
        return
    reference.assert_same_arrays(reconstruct(got), want_matrix)


@st.composite
def stored_matrices(draw):
    """Matrices stored from a dict as given, negative zero parts kept."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, (1 << n) - 1)
    value = st.builds(complex, st.sampled_from([-0.0, 0.0, 1.0, -2.0]), st.floats(-4, 4))
    entries = draw(st.dictionaries(st.tuples(index, index), value, min_size=1, max_size=20))
    assume(all(abs(v) > ZERO_TOL for v in entries.values()))
    return reference.stored_matrix(n, entries)


@settings(max_examples=200, deadline=None)
@given(m=stored_matrices())
@example(m=reference.stored_matrix(2, {(3, 0): complex(-0.0, -1.0), (0, 3): -0.5}))
def test_decompose_numerical_matches_per_entry_reference(m):
    assert_same_terms(decompose_numerical(m), reference.decompose_numerical(m))


@settings(max_examples=300, deadline=None)
@given(d=decompositions_with_repeated_coefficients())
@example(d=reference.stored_decomposition(1, (SigmaTerm(complex(-0.0, 1.0), (A,)), SigmaTerm(complex(-0.0, 1.0), (B,)))))
@example(d=reference.stored_decomposition(2, (SigmaTerm(complex(2.0, -0.0), (A, P)),)))
def test_merge_matches_enum_tuple_reference(d):
    assert outcome(merge_terms, d) == outcome(reference.merge_terms, d)


@settings(max_examples=200, deadline=None)
@given(pair=nudged_decompositions())
def test_merge_of_nudged_coefficients_matches_enum_tuple_reference(pair):
    _, nudged = pair
    assert outcome(merge_terms, nudged) == outcome(reference.merge_terms, nudged)



# Coefficient parts for decompositions stored as given:
# signed zeros, subnormals, parts below ZERO_TOL, and 1e308, so that merged
# means and sums cancel, are pruned or overflow.
EXTREME_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-15, -1e-15, 1.0, -1.0, 0.5, 1e308, -1e308])


@st.composite
def stored_decompositions(draw):
    """Decompositions stored as given, over few factors and coefficients,
    so that most draws hold mergeable pairs, some only near-equal: every
    coefficient may be moved by up to four ulps.  Each coefficient is above
    ZERO_TOL in magnitude, as a decomposition requires."""
    n = draw(st.integers(1, 3))
    strings = st.lists(st.sampled_from("ABIP"), min_size=n, max_size=n).map("".join)
    coeff = st.builds(complex, EXTREME_PARTS, EXTREME_PARTS).filter(lambda c: abs(c) > ZERO_TOL)
    coeffs = draw(st.dictionaries(strings, coeff, min_size=1, max_size=12))
    ulps = draw(st.lists(st.integers(-4, 4), min_size=len(coeffs), max_size=len(coeffs)))
    return reference.stored_decomposition(
        n, [SigmaTerm(c * (1 + k * 2.0**-52), f) for (f, c), k in zip(coeffs.items(), ulps)]
    )


@settings(max_examples=400, deadline=None)
@given(d=stored_decompositions())
@example(d=reference.stored_decomposition(1, (SigmaTerm(1e308, "A"), SigmaTerm(1e308, "B"), SigmaTerm(1e308, "I"))))
@example(d=reference.stored_decomposition(1, (SigmaTerm(complex(1e308, 1e308), "A"), SigmaTerm(complex(1e308, 1e308), "B"))))
@example(d=reference.stored_decomposition(1, (SigmaTerm(complex(1.0, 5e-324), "A"), SigmaTerm(1.0, "B"), SigmaTerm(-1.0, "I"))))
@example(d=reference.stored_decomposition(2, (SigmaTerm(1.0, "AA"), SigmaTerm(1.0, "AB"), SigmaTerm(-1.0, "BI"))))
# AA and AB merge to an infinite AI, which is then taken as equal to BI.
@example(d=reference.stored_decomposition(2, (SigmaTerm(1e308, "AA"), SigmaTerm(1e308, "AB"), SigmaTerm(1e308, "AI"), SigmaTerm(1j, "BI"))))
def test_merge_of_stored_coefficients_matches_reference(d):
    try:
        want = reference.merge_terms(d)
    except (ValueError, OverflowError) as exc:
        # A merged total whose magnitude is not finite, or no term left.
        with pytest.raises(ValueError, match="no terms" if "no terms" in str(exc) else "not finite"):
            merge_terms(d)
        return
    assert_same_terms(merge_terms(d), want)


@settings(max_examples=200, deadline=None)
@given(d=stored_decompositions(), merge=st.booleans())
@example(d=reference.stored_decomposition(1, (SigmaTerm(complex(-1.0, 5e-324), "P"), SigmaTerm(-1e308, "M"))), merge=False)
def test_saved_files_match_the_json_writer_and_read_back(d, merge):
    if merge:
        try:
            d = merge_terms(d)
        except ValueError:
            return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        save_decomposition(d, path)
        with open(path, "rb") as fh:
            text = fh.read()
    assert text == reference.decomposition_json(d).encode("ascii")
    data = json.loads(text)
    # Reading back sums each coefficient once from 0.0, which turns a
    # negative zero part positive, and prunes at ZERO_TOL.
    assert_same_terms(from_json_dict(data), reference.from_json_dict(data))


@st.composite
def any_decompositions(draw):
    """A decomposition from each way to get one: the constructor, build,
    merge_terms and decompose_numerical.  A draw they refuse is rejected."""
    how = draw(st.sampled_from(["constructor", "build", "merge", "numerical"]))
    try:
        if how == "constructor":
            return draw(stored_decompositions())
        if how == "build":
            return Decomposition.build(*draw(term_lists()))
        if how == "merge":
            return merge_terms(draw(stored_decompositions()))
        return decompose_numerical(draw(stored_matrices()))
    except ValueError:
        reject()


@settings(max_examples=300, deadline=None)
@given(d=any_decompositions())
def test_every_decomposition_loads_back_from_its_file(d):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        save_decomposition(d, path)
        assert load_decomposition(path) == d


def unchecked(n_qubits, strings, coeffs):
    """A decomposition over arrays that skip every check."""
    rows = np.array([list(f.encode("ascii")) for f in strings], dtype=np.uint8).reshape(-1, n_qubits)
    return Decomposition._from_columns(n_qubits, rows, np.array(coeffs, dtype=complex))


@pytest.mark.parametrize("coeffs", [
    [complex(float("nan"), 0.0), 1.0],
    [1.0, complex(2.0, float("inf"))],
    [complex(float("-inf"), float("nan")), 1.0],
])
def test_writer_refuses_non_finite_with_the_json_message(tmp_path, coeffs):
    d = unchecked(1, ["M", "P"], coeffs)
    with pytest.raises(ValueError) as want:
        reference.decomposition_json(d)
    path = tmp_path / "d.json"
    with pytest.raises(ValueError) as got:
        save_decomposition(d, str(path))
    assert str(got.value) == str(want.value)
    assert not path.exists()


FILE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-15, 1.0, -2.0, 1e308, 1.7e308, float("inf")]),
    st.floats(-4, 4),
    st.integers(-2, 2),
    st.sampled_from([True, None, "1"]),
)
FILE_STRINGS = st.one_of(st.text(alphabet="IPMAB ", max_size=4), st.sampled_from(["PX", "Pé", 7, None]))
FILE_TERMS = st.one_of(
    st.fixed_dictionaries({"re": FILE_PARTS, "im": FILE_PARTS, "factors": FILE_STRINGS}),
    st.fixed_dictionaries({"re": FILE_PARTS, "factors": FILE_STRINGS}),
    st.sampled_from([5, "P", None, [1.0, 0.0]]),
)


@settings(max_examples=500, deadline=None)
@given(n=st.integers(0, 3), items=st.lists(FILE_TERMS, max_size=6))
@example(n=1, items=[{"re": 1, "im": 0, "factors": "P"}, {"re": 2, "im": 0, "factors": " P"}])
@example(n=2, items=[{"re": 10**400, "im": 0, "factors": "PM"}])
@example(n=2, items=[{"re": 0.0, "im": -0.0, "factors": "P"}, {"re": -0.0, "im": 1.0, "factors": "P M"}])
def test_reader_matches_term_by_term_reference(n, items):
    data = {"n_qubits": n, "terms": items}
    got = outcome(from_json_dict, data)
    try:
        terms = [
            SigmaTerm.from_string(_codec.complex_field(item), _codec.field(item, "factors", str))
            for item in items
        ]
    except ValueError as exc:  # the first faulty term is named as before
        assert got == str(exc)
        return
    strings = [t.factors for t in terms]
    repeated = [f for k, f in enumerate(strings) if f in strings[:k]]
    if repeated:  # the declared refusal: no longer summed
        assert got == f"duplicate factor string {repeated[0]}"
        return
    assert got == outcome(reference.from_json_dict, data)
