import numpy as np

from sigmalcu.circuits import CLOSED, OPEN, _term_controls
from sigmalcu.pauli import _PAULI_AT_PAIR
from sigmalcu.sigma import FACTOR_FROM_BITS, SigmaFactor, SigmaTerm

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
    assert _PAULI_AT_PAIR.dtype == literal_pauli.dtype
    assert np.array_equal(_PAULI_AT_PAIR, literal_pauli)
