import itertools

import numpy as np

import reference
from sigmalcu.circuits import CLOSED, OPEN, _term_controls
from sigmalcu.sigma import (
    FACTOR_FROM_BITS,
    SigmaFactor,
    SigmaTerm,
    _digits,
    completion,
    completion_matrix,
)

I, P, M, A, B = (
    SigmaFactor.IDENT,
    SigmaFactor.SPLUS,
    SigmaFactor.SMINUS,
    SigmaFactor.SPSM,
    SigmaFactor.SMSP,
)


def test_derived_tables_match_literal_tables():
    """Every table derived from the sigma and Pauli matrices equals the
    literal table it replaced."""
    assert {f: f.bit_pairs for f in SigmaFactor} == {
        I: ((0, 0), (1, 1)),
        P: ((0, 1),),
        M: ((1, 0),),
        A: ((0, 0),),
        B: ((1, 1),),
    }
    assert FACTOR_FROM_BITS == {(0, 0): A, (0, 1): P, (1, 0): M, (1, 1): B}
    assert {f for f in SigmaFactor if f.is_ladder} == {P, M}
    term = SigmaTerm(1.0, (I, P, M, A, B))
    assert _term_controls(term, offset=1) == ((2, OPEN), (3, CLOSED), (4, OPEN), (5, CLOSED))
    literal_pauli = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]], dtype=complex
    )
    assert reference.PAULI_AT_PAIR.dtype == literal_pauli.dtype
    assert np.array_equal(reference.PAULI_AT_PAIR, literal_pauli)


def test_members_are_their_characters():
    for f in SigmaFactor:
        assert f == f.value and hash(f) == hash(f.value) and SigmaFactor(f.value) is f
    assert "".join(SigmaFactor) == "IPMAB"


def test_digit_tables_match_factor_properties():
    """Controls, identity positions and the ladder mask read off the digit
    tables equal those from ``bit_pairs`` and ``is_ladder``, for every
    string of three of the five characters."""
    for chars in itertools.product("IPMAB", repeat=3):
        term = SigmaTerm(1.0, "".join(chars))
        factors = [SigmaFactor(ch) for ch in chars]
        ident, row, col = _digits(term)
        assert ident == "".join("1" if f is I else "0" for f in factors)
        pairs = [f.bit_pairs[0] if f is not I else (0, 0) for f in factors]
        assert row == "".join(str(r) for r, _ in pairs)
        assert col == "".join(str(c) for _, c in pairs)
        mask = sum(1 << (2 - p) for p, f in enumerate(factors) if f.is_ladder)
        assert int(row, 2) ^ int(col, 2) == mask
        assert completion_matrix(term)[mask, 0] == 1.0
        assert completion(term) == ["X" if f.is_ladder else "I" for f in factors]
        controls = tuple(
            (1 + p, CLOSED if f.bit_pairs[0][0] else OPEN)
            for p, f in enumerate(factors)
            if f is not I
        )
        assert _term_controls(term, offset=1) == controls
