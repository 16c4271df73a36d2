import itertools

import numpy as np

import reference
from reference import bit_pairs, is_ladder
from sigmalcu.circuits import CLOSED, OPEN, _term_controls
from sigmalcu.sigma import (
    _CHAR_AT_BITS,
    _COL_DIGITS,
    _IDENT_DIGITS,
    _ROW_DIGITS,
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
    """The bit table holds each single-entry factor at the 1 of its
    reference matrix, the tables derived from it equal the literal tables
    they replaced, and so does the Pauli table derived from the Pauli
    matrices."""
    assert {f: bit_pairs(f) for f in SigmaFactor} == {
        I: ((0, 0), (1, 1)),
        P: ((0, 1),),
        M: ((1, 0),),
        A: ((0, 0),),
        B: ((1, 1),),
    }
    assert FACTOR_FROM_BITS == {(0, 0): A, (0, 1): P, (1, 0): M, (1, 1): B}
    assert FACTOR_FROM_BITS == reference.FACTOR_AT_BITS
    assert {f for f in SigmaFactor if is_ladder(f)} == {P, M}
    assert _ROW_DIGITS == {ord(ch): d for ch, d in zip("IPMAB", "00101")}
    assert _COL_DIGITS == {ord(ch): d for ch, d in zip("IPMAB", "01001")}
    assert _IDENT_DIGITS == {ord(ch): d for ch, d in zip("IPMAB", "10000")}
    assert _CHAR_AT_BITS.tobytes() == b"APMB"
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
    tables equal those from the reference's ``bit_pairs`` and
    ``is_ladder``, for every string of three of the five characters."""
    for chars in itertools.product("IPMAB", repeat=3):
        term = SigmaTerm(1.0, "".join(chars))
        factors = [SigmaFactor(ch) for ch in chars]
        ident, row, col = _digits(term)
        assert ident == "".join("1" if f is I else "0" for f in factors)
        pairs = [bit_pairs(f)[0] if f is not I else (0, 0) for f in factors]
        assert row == "".join(str(r) for r, _ in pairs)
        assert col == "".join(str(c) for _, c in pairs)
        mask = sum(1 << (2 - p) for p, f in enumerate(factors) if is_ladder(f))
        assert int(row, 2) ^ int(col, 2) == mask
        assert completion_matrix(term)[mask, 0] == 1.0
        assert completion(term) == ["X" if is_ladder(f) else "I" for f in factors]
        controls = tuple(
            (1 + p, CLOSED if bit_pairs(f)[0][0] else OPEN)
            for p, f in enumerate(factors)
            if f is not I
        )
        assert _term_controls(term, offset=1) == controls
