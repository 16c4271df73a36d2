"""Byte-for-byte checks of the file formats against committed golden files.

The files under tests/data/golden were written by the gate-class
implementation that preceded the single gate record; the writers must keep
reproducing them exactly, and reading a file back and writing it again
must not change a byte.  Every oracle matrix has dyadic entries and every
block-encoding weight a dyadic square root, so the files do not depend on
the platform's BLAS.
"""

from pathlib import Path

import numpy as np
import pytest

from sigmalcu.blockenc import assemble
from sigmalcu.circuits import (
    OPEN,
    Circuit,
    SingleQubit,
    build_dilation_circuit,
    build_ul_circuit,
    controlled,
    load_circuit,
    row_swap_circuit,
    save_circuit,
    to_qasm,
)
from sigmalcu.cli import load_oracle, save_oracle
from sigmalcu.expectation import StateOracle, _hadamard_test_circuits
from sigmalcu.sigma import Decomposition, SigmaTerm, load_decomposition, save_decomposition

GOLDEN = Path(__file__).parent / "data" / "golden"

H2 = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex
)
U = StateOracle(H2 @ np.diag([1, 1j, -1, -1j]), "U")
V = StateOracle(
    np.array([[0, 0, 1j, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, -1j, 0, 0]], dtype=complex), "V"
)
M = StateOracle(np.diag([1, -1, 1j, -1j]) @ H2, "M")


def term(factors, coeff=1.0):
    return SigmaTerm.from_string(coeff, factors)


def circuits():
    # |coeff| in {4, 1} over lambda = 16: PREP amplitudes 1/2 and 1/4.
    be_terms = [
        term("II", 4),
        term("PM", -4),
        term("AB", 4j),
        term("MI", -1),
        term("IP", 1j),
        term("BA", -1j),
        term("AA", 1),
    ]
    return {
        "ul_MIA": build_ul_circuit(term("MIA")),
        "ul_III": build_ul_circuit(term("III")),
        "ul_BPMA": build_ul_circuit(term("BPMA")),
        "dilation_PMA": build_dilation_circuit(term("PMA")),
        "dilation_III": build_dilation_circuit(term("III")),
        "row_swap": row_swap_circuit(4, 3, 12),
        "block_encoding": assemble(Decomposition.build(2, be_terms)).overall,
        "hadamard_test": _hadamard_test_circuits(U, V, term("PA"))[1],
        "sandwich": _hadamard_test_circuits(U, V, term("PA"), M, term("MB"))[0],
        "controlled_h": controlled(
            Circuit(2, (SingleQubit("h", 1), SingleQubit("s", 1))), 0, OPEN
        ),
    }


CIRCUITS = circuits()


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_circuit_json_and_qasm_bytes(name, tmp_path):
    path = tmp_path / "c.json"
    save_circuit(CIRCUITS[name], str(path))
    assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert to_qasm(CIRCUITS[name]).encode("ascii") == (GOLDEN / f"{name}.qasm").read_bytes()
    again = tmp_path / "again.json"
    save_circuit(load_circuit(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


def test_decomposition_bytes(tmp_path):
    decomposition = Decomposition.build(
        3,
        [
            term("PIM", 0.1 + 0.2j),
            term("AAB", -1 / 3),
            term("III", 2.0),
            term("BMP", -1e-5j),
        ],
    )
    path = tmp_path / "d.json"
    save_decomposition(decomposition, str(path))
    assert path.read_bytes() == (GOLDEN / "decomposition.json").read_bytes()
    save_decomposition(load_decomposition(str(path)), str(path))
    assert path.read_bytes() == (GOLDEN / "decomposition.json").read_bytes()


def test_oracle_bytes(tmp_path):
    path = tmp_path / "u.json"
    save_oracle(U, str(path))
    assert path.read_bytes() == (GOLDEN / "oracle.json").read_bytes()
    save_oracle(load_oracle(str(path), "X"), str(path))
    assert path.read_bytes() == (GOLDEN / "oracle.json").read_bytes()
