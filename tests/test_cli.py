import argparse
import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import save_oracle
from sigmalcu import _codec, blockenc, cli, pde, sigma
from sigmalcu.circuits import (
    CLOSED,
    Circuit,
    Gate,
    build_ul_circuit,
    _json_bytes,
    embedded,
    save_circuit,
)
from sigmalcu.cli import main
from sigmalcu.expectation import StateOracle
from sigmalcu.matrices import SparseMatrix, load_matrix_market, save_matrix_market
from sigmalcu.sigma import SigmaTerm, load_decomposition


CORNER_PAIR_MTX = (
    "%%MatrixMarket matrix coordinate real general\n4 4 2\n1 4 1.0\n4 1 2.0\n"
)


def write(path, text):
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_decompose(tmp_path, capsys):
    mtx = write(tmp_path / "m.mtx", CORNER_PAIR_MTX)
    out = str(tmp_path / "d.json")
    assert main(["decompose", "--in", mtx, "--out", out]) == 0
    decomposition = load_decomposition(out)
    assert {t.factors for t in decomposition.terms} == {"PP", "MM"}
    captured = capsys.readouterr().out
    assert "terms: 2" in captured and "nnz: 2" in captured


def test_decompose_merge_identity(tmp_path):
    identity = SparseMatrix.from_dense(np.eye(4))
    mtx = str(tmp_path / "eye.mtx")
    save_matrix_market(identity, mtx)
    out = str(tmp_path / "d.json")
    assert main(["decompose", "--in", mtx, "--out", out, "--merge"]) == 0
    assert len(load_decomposition(out)) == 1


@pytest.mark.parametrize("merge", [[], ["--merge"]])
def test_decompose_builds_no_sigma_term_object(tmp_path, monkeypatch, merge):
    # Terms stay arrays from the matrix to the file; only len() is asked.
    def refuse(term):
        pytest.fail(f"SigmaTerm built for {term.factors!r}")

    mtx = str(tmp_path / "heat.mtx")
    save_matrix_market(pde.heat_1d(pde.HeatParams(3, 2, alpha=0.7, robin_w1=0.3)).matrix, mtx)
    monkeypatch.setattr(sigma.SigmaTerm, "__post_init__", refuse)
    assert main(["decompose", "--in", mtx, "--out", str(tmp_path / "d.json"), *merge]) == 0


def test_decompose_merge_tolerates_rounded_coefficients(tmp_path, capsys):
    # Non-integer heat parameters leave partner coefficients a few ulps apart
    # (0.9999999999999991 vs 0.9999999999999996); they still merge, to the
    # count the same grid gives with integer parameters.
    outdir = tmp_path / "heat"
    args = ["--family", "heat", "--s", "3", "--t", "2", "--outdir", str(outdir)]
    odd = ["--alpha", "1.673169", "--w1", "0.648434", "--w2", "1.150459"]
    for extra in (odd, []):
        assert main(["generate", *args, *extra]) == 0
        capsys.readouterr()
        out = str(tmp_path / "d.json")
        assert main(["decompose", "--in", str(outdir / "matrix.mtx"), "--out", out, "--merge"]) == 0
        assert capsys.readouterr().out.startswith("terms: 27 ")


@pytest.mark.parametrize("tol", ["0", "1e-30"])
def test_decompose_tol_below_floor(tmp_path, capsys, tol):
    mtx = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1e-20\n",
    )
    out = str(tmp_path / "d.json")
    assert main(["decompose", "--in", mtx, "--out", out, "--tol", tol]) == 0
    assert "terms: 1  nnz: 1" in capsys.readouterr().out
    assert [t.factors for t in load_decomposition(out).terms] == ["A"]


def test_decompose_rejects_non_power_of_two(tmp_path, capsys):
    mtx = write(
        tmp_path / "bad.mtx",
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n",
    )
    assert main(["decompose", "--in", mtx, "--out", str(tmp_path / "d.json")]) == 1
    assert "power of two" in capsys.readouterr().err


def test_generate_poisson(tmp_path):
    outdir = tmp_path / "poisson"
    assert main(["generate", "--family", "poisson", "--s", "4", "--outdir", str(outdir)]) == 0
    matrix = load_matrix_market(str(outdir / "matrix.mtx"))
    decomposition = load_decomposition(str(outdir / "decomposition.json"))
    assert len(decomposition) == 9
    assert matrix.nnz == 16 + 15 + 15
    assert not (outdir / "rhs.json").exists()
    rows = read_csv(outdir / "counts.csv")
    assert rows[0] == ["family", "n_x", "n_t", "sigma_terms", "pauli_terms", "predicted"]
    assert rows[1] == ["poisson", "16", "", "9", "", "9"]


def test_generate_heat_and_wave(tmp_path):
    heat_dir = tmp_path / "heat"
    assert (
        main(["generate", "--family", "heat", "--s", "2", "--t", "2", "--outdir", str(heat_dir)])
        == 0
    )
    heat = load_decomposition(str(heat_dir / "decomposition.json"))
    assert len(heat) <= 17
    rhs = json.loads((heat_dir / "rhs.json").read_text())
    assert rhs["length"] == 16

    wave_dir = tmp_path / "wave"
    assert (
        main(["generate", "--family", "wave", "--s", "2", "--t", "2", "--outdir", str(wave_dir)])
        == 0
    )
    wave = load_decomposition(str(wave_dir / "decomposition.json"))
    assert len(wave) <= 23


def test_generate_requires_t(tmp_path, capsys):
    assert (
        main(["generate", "--family", "heat", "--s", "2", "--outdir", str(tmp_path / "x")])
        == 1
    )
    assert "--t is required" in capsys.readouterr().err


def test_generate_pauli_over_limit_writes_nothing(tmp_path, capsys):
    outdir = tmp_path / "big"
    argv = ["generate", "--family", "poisson", "--s", "21", "--pauli", "--outdir", str(outdir)]
    assert main(argv) == 1
    assert "limited to 2^25 mask x column values" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("family", ["heat", "wave"])
def test_generate_refuses_tiny_length_and_writes_nothing(tmp_path, capsys, family):
    outdir = tmp_path / "sys"
    argv = ["generate", "--family", family, "--s", "2", "--t", "2", "--length", "1e-200"]
    assert main(argv + ["--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: grid spacing dx")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "options, message",
    [
        # w1 * dx + w2 = 0 would divide the Robin corner correction by zero.
        (["--family", "heat", "--s", "2", "--t", "2", "--w1", "-1", "--w2", "1"], "w1 * dx + w2 = 0"),
        # Refused before a 2^40-entry identity term is allocated.
        (["--family", "poisson", "--s", "40"], "sparse matrices limited to 31 qubits, got 40"),
        # An infinite w1 made the corner correction 0 and dropped its terms.
        (["--family", "heat", "--s", "2", "--t", "2", "--w1", "inf"], "error: robin_w1 must be finite, got inf"),
        # An infinite conductivity made the boundary forcing 0.
        (["--family", "heat", "--s", "2", "--t", "2", "--k-cond", "inf"], "error: k_cond must be positive and finite"),
        (["--family", "heat", "--s", "2", "--t", "2", "--alpha", "nan"], "error: alpha must be positive and finite"),
        (["--family", "heat", "--s", "2", "--t", "2", "--alpha", "inf"], "error: alpha must be positive and finite"),
        (["--family", "heat", "--s", "2", "--t", "2", "--final-time", "inf"], "error: final time T must be positive"),
        (["--family", "heat", "--s", "2", "--t", "2", "--final-time", "nan"], "error: final time T must be positive"),
        (["--family", "wave", "--s", "2", "--t", "2", "--final-time", "nan"], "error: final time T must be positive"),
        # Widths too large to shift by: refused before the grid is sized.
        (["--family", "poisson", "--s", str(10**20)], f"sparse matrices limited to 31 qubits, got {10**20}"),
        (["--family", "heat", "--s", "2", "--t", str(10**20)], f"sparse matrices limited to 31 qubits, got {10**20 + 2}"),
        (["--family", "wave", "--s", str(10**20), "--t", "2"], f"sparse matrices limited to 31 qubits, got {10**20 + 3}"),
        (
            ["--family", "poisson", "--s", str(10**20), "--pauli"],
            f"limited to 2^25 mask x column values, got {10**20 + 1} x 2^{10**20}",
        ),
        # A width below 1 is the grid's to refuse, not the Pauli budget's to shift by.
        (["--family", "poisson", "--s", "-1", "--pauli"], "error: s must be >= 1"),
        (["--family", "heat", "--s", "2", "--t", "-3", "--pauli"], "error: s and t must be >= 1"),
    ],
)
def test_generate_input_errors_write_nothing(tmp_path, options, message):
    outdir = tmp_path / "sys"
    err = assert_input_error(["generate", *options, "--outdir", str(outdir)])
    assert message in err
    assert not outdir.exists()


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 16.0 GiB")])
def test_generate_out_of_memory_is_an_input_error(tmp_path, monkeypatch, exc):
    def exhaust(s):
        raise exc

    monkeypatch.setattr(pde, "poisson_1d", exhaust)
    outdir = tmp_path / "sys"
    err = assert_input_error(["generate", "--family", "poisson", "--s", "31", "--outdir", str(outdir)])
    assert err.startswith("error: out of memory")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "module, writer, left",
    [
        pytest.param(_codec, "pairs_json", None, id="pairs_json"),
        pytest.param(sigma, "_json_text", ["matrix.mtx"], id="_json_text"),
        pytest.param(_codec, "write_json", ["decomposition.json", "matrix.mtx"], id="write_json"),
    ],
)
def test_generate_out_of_memory_while_writing_is_an_input_error(tmp_path, monkeypatch, module, writer, left):
    # The rhs payload is built before the output directory is made; memory
    # that runs out while files are written leaves the earlier files.  The
    # decomposition's text is rendered before its file is opened, and
    # rhs.json, the one file written by _codec.write_json, comes last.
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(module, writer, exhaust)
    outdir = tmp_path / "sys"
    argv = ["generate", "--family", "heat", "--s", "2", "--t", "2", "--outdir", str(outdir)]
    err = assert_input_error(argv)
    assert err == "error: out of memory: Unable to allocate 8.00 GiB\n"
    if left is None:
        assert not outdir.exists()
    else:
        assert sorted(p.name for p in outdir.iterdir()) == left


def test_decompose_refuses_integer_past_int64(tmp_path):
    # scipy's reader raised OverflowError, not ValueError, on such an entry.
    mtx = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 9223372036854775808\n",
    )
    out = tmp_path / "d.json"
    err = assert_input_error(["decompose", "--in", mtx, "--out", str(out)])
    assert err == (
        f"error: malformed Matrix Market file {mtx}: "
        "value '9223372036854775808' on line 3 is outside -9223372036854775808..9223372036854775807\n"
    )
    assert not out.exists()


def test_decompose_refuses_an_extra_value(tmp_path):
    # scipy's reader drops the 5.0: decompose printed "terms: 2  nnz: 2".
    mtx = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0 5.0\n2 2 2.0\n",
    )
    out = tmp_path / "d.json"
    err = assert_input_error(["decompose", "--in", mtx, "--out", str(out)])
    assert err == f"error: malformed Matrix Market file {mtx}: expected 6 values for 2 real entries, got 7\n"
    assert not out.exists()


@pytest.mark.parametrize("small", ["1.0", "1e-16"])
def test_decompose_refuses_nan_tolerance(tmp_path, small):
    # Without the check a NaN tolerance kept every entry: the 1e-16 one was
    # then refused as a stored zero, and ordinary files passed unpruned.
    mtx = write(
        tmp_path / "m.mtx",
        f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {small}\n",
    )
    out = tmp_path / "d.json"
    err = assert_input_error(["decompose", "--in", mtx, "--out", str(out), "--tol", "nan"])
    assert err == "error: zero-prune tolerance must be a number, got nan\n"
    assert not out.exists()


def test_generate_emitted_files_round_trip(tmp_path):
    outdir = tmp_path / "rt"
    assert main(["generate", "--family", "poisson", "--s", "2", "--outdir", str(outdir)]) == 0
    matrix = load_matrix_market(str(outdir / "matrix.mtx"))
    decomposition = load_decomposition(str(outdir / "decomposition.json"))
    from sigmalcu.sigma import reconstruct

    assert reconstruct(decomposition) == matrix


def test_compare_poisson_grid(tmp_path):
    out = str(tmp_path / "counts.csv")
    assert main(["compare", "--family", "poisson", "--range", "16,32,64,128", "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0] == ["family", "n_x", "n_t", "sigma_terms", "pauli_terms"]
    sigma_counts = [int(r[3]) for r in rows[1:]]
    pauli_counts = [int(r[4]) for r in rows[1:]]
    assert sigma_counts == [9, 11, 13, 15]
    assert all(p >= s for p, s in zip(pauli_counts, sigma_counts))


def test_compare_default_poisson_grid(capsys):
    assert main(["compare", "--family", "poisson"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "family,n_x,n_t,sigma_terms,pauli_terms",
        "poisson,16,,9,16",
        "poisson,32,,11,32",
        "poisson,64,,13,64",
        "poisson,128,,15,128",
    ]


@pytest.mark.parametrize("family, sigma_counts", [("heat", [16, 17, 21, 22]), ("wave", [19, 20, 24, 25])])
def test_compare_default_grid_sigma_counts(capsys, family, sigma_counts):
    assert main(["compare", "--family", family]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(r[3]) for r in rows] == sigma_counts


def test_compare_heat_point(tmp_path, capsys):
    assert main(["compare", "--family", "heat", "--range", "4(4)"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,n_x,n_t,sigma_terms,pauli_terms"
    family, n_x, n_t, sigma_terms, pauli_terms = lines[1].split(",")
    assert (family, n_x, n_t) == ("heat", "4", "4")
    assert int(pauli_terms) >= int(sigma_terms)


# One 21-qubit point per family (poisson s, heat s + t, wave s + t + 1),
# the narrowest over the Pauli budget at 22 masks x 2^21, for compare after
# a point that fits and for generate --pauli.
WIDE_POINTS = [
    ("poisson", "poisson_1d", "16,2097152", ["--s", "21"]),
    ("heat", "heat_1d", "4(4),262144(8)", ["--s", "18", "--t", "3"]),
    ("wave", "wave_1d", "4(4),131072(8)", ["--s", "17", "--t", "3"]),
]


@pytest.mark.parametrize("family, builder, points, grid", WIDE_POINTS, ids=[p[0] for p in WIDE_POINTS])
def test_pauli_guard_refuses_before_any_system_is_built(
    tmp_path, capsys, monkeypatch, family, builder, points, grid
):
    def refuse_to_build(*args, **kwargs):
        raise AssertionError("system built before the Pauli guard")

    monkeypatch.setattr(f"sigmalcu.pde.{builder}", refuse_to_build)
    expected = ["error: pauli decomposition limited to 2^25 mask x column values, got 22 x 2^21"]
    assert main(["compare", "--family", family, "--range", points]) == 1
    assert capsys.readouterr().err.splitlines() == expected
    outdir = tmp_path / "sys"
    argv = ["generate", "--family", family, *grid, "--pauli", "--outdir", str(outdir)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == expected
    assert not outdir.exists()


def test_compare_past_the_dense_limit(capsys):
    assert main(["compare", "--family", "poisson", "--range", "8192,65536"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "family,n_x,n_t,sigma_terms,pauli_terms",
        "poisson,8192,,27,8192",
        "poisson,65536,,33,65536",
    ]


def test_compare_rejects_bad_range(capsys):
    assert main(["compare", "--family", "heat", "--range", "4x4"]) == 1
    assert "grid point" in capsys.readouterr().err


@pytest.mark.parametrize("family, points, chunk", [
    ("poisson", "16,", "''"),
    ("poisson", "16,abc", "'abc'"),
    ("heat", "(4)", "'(4)'"),
    ("wave", "4(4),4()", "'4()'"),
    ("heat", "4(x)", "'4(x)'"),
])
def test_compare_names_the_malformed_grid_point(capsys, family, points, chunk):
    form = "n_x" if family == "poisson" else "n_x(n_t)"
    assert main(["compare", "--family", family, "--range", points]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: expected {form} grid point, got {chunk}"]


def test_verify_poisson(tmp_path, capsys):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "2", "--outdir", str(outdir)])
    code = main(["verify", "--decomp", str(outdir / "decomposition.json"), "--dilation"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "all 5 terms verified" in out


def test_verify_corrupted_circuit(tmp_path, capsys):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "1", "--outdir", str(outdir)])
    decomposition = load_decomposition(str(outdir / "decomposition.json"))
    circuit_dir = tmp_path / "circuits"
    circuit_dir.mkdir()
    for index, term in enumerate(decomposition.terms):
        save_circuit(build_ul_circuit(term), str(circuit_dir / f"term_{index:03d}.json"))
    # corrupt term 1: flip a control polarity
    target = circuit_dir / "term_001.json"
    data = json.loads(target.read_text())
    for gate in data["gates"]:
        if gate["kind"] == "mcx":
            gate["controls"][0]["pol"] = (
                "open" if gate["controls"][0]["pol"] == "closed" else "closed"
            )
    target.write_text(json.dumps(data))
    code = main(
        [
            "verify",
            "--decomp",
            str(outdir / "decomposition.json"),
            "--circuits",
            str(circuit_dir),
        ]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "   1  " in out and "FAIL" in out


def test_verify_fails_a_circuit_one_qubit_too_wide(tmp_path, capsys):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "1", "--outdir", str(outdir)])
    decomp = str(outdir / "decomposition.json")
    circuit_dir = tmp_path / "circuits"
    circuit_dir.mkdir()
    for index, term in enumerate(load_decomposition(decomp).terms):
        width = term.n_qubits + 1 + (index == 1)
        save_circuit(embedded(build_ul_circuit(term), width, offset=0), str(circuit_dir / f"term_{index:03d}.json"))
    capsys.readouterr()
    assert main(["verify", "--decomp", decomp, "--circuits", str(circuit_dir)]) == 2
    assert capsys.readouterr().out.splitlines()[2] == "   1  M            FAIL: circuit width mismatch"


@pytest.mark.parametrize("row", range(4))
def test_verify_fails_a_circuit_wrong_in_one_quadrant(tmp_path, capsys, row):
    # Output rows 0-3 of term A's completion come from columns 0, 3, 2, 1:
    # quadrants (0, 0), (0, 1), (1, 1), (1, 0).  A -1 on one row breaks one.
    decomp = write_json(tmp_path / "d.json", {"n_qubits": 1, "terms": [{"re": 1, "im": 0, "factors": "A"}]})
    circuit_dir = tmp_path / "circuits"
    circuit_dir.mkdir()
    sign = np.ones(4, dtype=complex)
    sign[row] = -1
    c = build_ul_circuit(SigmaTerm.from_string(1.0, "A"))
    wrong = Circuit(2, c.gates + (Gate("dense", (0, 1), (), np.diag(sign)),), c.ancillas)
    save_circuit(wrong, str(circuit_dir / "term_000.json"))
    capsys.readouterr()
    assert main(["verify", "--decomp", decomp, "--circuits", str(circuit_dir)]) == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        "   0  A            FAIL: matrix does not match completion block structure"
    )


def with_gates(*extra):
    """Wrap a circuit builder to append ``extra``, gates that cancel in
    pairs: the matrix is kept, the gate counts are not."""
    def wrap(build):
        def padded(term):
            c = build(term)
            return Circuit(c.n_qubits, c.gates + extra, c.ancillas)
        return padded
    return wrap


def of_flipped_term(build):
    """Wrap a circuit builder to build the circuit of the term with every
    bit flipped (s+ and s-, A and B exchanged)."""
    flip = str.maketrans("PMAB", "MPBA")
    return lambda term: build(SigmaTerm(1.0, term.factors.translate(flip)))


X_PAIR = (Gate("x", (0,)),) * 2
MCX_PAIR = (Gate("x", (0,), ((1, CLOSED),)),) * 2


@pytest.mark.parametrize(
    "builder, wrap, factors, message",
    [
        ("build_ul_circuit", with_gates(*X_PAIR), "M", "4 single-qubit gates exceeds n + 1"),
        ("build_ul_circuit", with_gates(*MCX_PAIR), "M", "expected one multi-controlled X of arity 1"),
        ("build_dilation_circuit", with_gates(*MCX_PAIR), "M", "dilation used 5 multi-controlled X, expected 3"),
        ("build_dilation_circuit", of_flipped_term, "A", "dilation and completion circuits disagree at s = 0"),
        ("build_dilation_circuit", of_flipped_term, "M", "dilation top-left block is not the term matrix"),
    ],
)
def test_verify_prints_the_fail_line_of_each_check(tmp_path, capsys, monkeypatch, builder, wrap, factors, message):
    decomp = write_json(tmp_path / "d.json", {"n_qubits": 1, "terms": [{"re": 1, "im": 0, "factors": factors}]})
    monkeypatch.setattr(cli, builder, wrap(getattr(cli, builder)))
    assert main(["verify", "--decomp", decomp, "--dilation"]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"   0  {factors:<12} FAIL: {message}",
        "1 of 1 terms failed",
    ]


def test_cli_import_leaves_scipy_out():
    # The package imports no scipy; only the tests' references use it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, sigmalcu.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def packages_loaded_by(argv, tmp_path):
    """The top-level names in ``sys.modules`` after ``main(argv)`` exits 0
    in a fresh interpreter, run on the inputs in ``tmp_path``: a Matrix
    Market file, a decomposition and an oracle."""
    write(tmp_path / "m.mtx", CORNER_PAIR_MTX)
    write_json(tmp_path / "d.json", VALID_DECOMPOSITION)
    write_json(tmp_path / "u.json", VALID_ORACLE)
    code = (
        "import json, sys\n"
        "from sigmalcu.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))\n"
    )
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "heat", "--s", "3", "--t", "2", "--alpha", "0.7", "--outdir", "{tmp}/sys"],
    ["generate", "--family", "poisson", "--s", "3", "--pauli", "--outdir", "{tmp}/sys"],
    ["compare", "--family", "wave", "--range", "4(4),8(4)"],
    ["verify", "--decomp", "{tmp}/d.json", "--dilation"],
    ["circuit", "--term", "PMA", "--out", "{tmp}/c.json", "--qasm"],
    ["expval", "--decomp", "{tmp}/d.json", "--u", "{tmp}/u.json", "--v", "{tmp}/u.json", "--out", "{tmp}/e.json"],
    ["block-encode", "--decomp", "{tmp}/d.json", "--outdir", "{tmp}/be"],
], ids=["generate", "generate --pauli", "compare", "verify", "circuit", "expval", "block-encode"])
def test_commands_that_read_no_matrix_market_file_leave_scipy_out(argv, tmp_path):
    assert "scipy" not in packages_loaded_by(argv, tmp_path)


@pytest.mark.parametrize("argv", [
    ["decompose", "--in", "{tmp}/m.mtx", "--out", "{tmp}/d2.json"],
    ["decompose", "--in", "{tmp}/m.mtx", "--out", "{tmp}/d2.json", "--merge"],
], ids=["decompose", "decompose --merge"])
def test_commands_that_read_a_matrix_market_file_leave_scipy_out(argv, tmp_path):
    # The reader parses the file with orjson, where it once imported scipy.io for mmread.
    assert "scipy" not in packages_loaded_by(argv, tmp_path)


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "heat", "--s", "3", "--t", "2", "--outdir", "{tmp}/sys"],
    ["compare", "--family", "wave", "--range", "4(4),8(4)"],
], ids=["generate", "compare"])
def test_commands_that_read_no_json_leave_orjson_out(argv, tmp_path):
    # orjson is imported by the first JSON or Matrix Market read; these
    # commands make no read.
    assert "orjson" not in packages_loaded_by(argv, tmp_path)


def test_decompose_refuses_a_value_read_in_part(tmp_path):
    # scipy's reader read 1D3 as 1: decompose wrote the coefficient 1.0.
    mtx = write(tmp_path / "m.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1D3\n")
    out = tmp_path / "d.json"
    err = assert_input_error(["decompose", "--in", mtx, "--out", str(out)])
    assert err == f"error: malformed Matrix Market file {mtx}: value '1D3' on line 3 is not a decimal number\n"
    assert not out.exists()


def test_expval_quotes_an_oracle_width_past_int64(tmp_path):
    # orjson reads the width as a float; json's exact integer is quoted.
    decomp = write_json(tmp_path / "d.json", VALID_DECOMPOSITION)
    good = write_json(tmp_path / "v.json", VALID_ORACLE)
    wide = write_json(tmp_path / "u.json", {**VALID_ORACLE, "n_qubits": 2**70})
    code, _, err = run_cli(["expval", "--decomp", decomp, "--u", wide, "--v", good])
    assert (code, err) == (1, f"error: oracle 'U' declares {2**70} qubits, its matrix acts on 2\n")


def test_circuit_command(tmp_path):
    out = str(tmp_path / "c.json")
    qasm = str(tmp_path / "c.qasm")
    assert main(["circuit", "--term", "M I A", "--out", out, "--qasm", qasm]) == 0
    data = json.loads(Path(out).read_text())
    assert data["n_qubits"] == 4
    kinds = [g["kind"] for g in data["gates"]]
    assert kinds == ["x", "x", "mcx"]
    mcx = data["gates"][2]
    assert mcx["controls"] == [
        {"q": 1, "pol": "closed"},
        {"q": 3, "pol": "open"},
    ]
    assert "OPENQASM" in Path(qasm).read_text()


def test_circuit_bare_qasm_flag_derives_path(tmp_path):
    out = tmp_path / "c.json"
    assert main(["circuit", "--term", "PM", "--out", str(out), "--qasm"]) == 0
    assert (tmp_path / "c.qasm").exists()


def test_circuit_rejects_bad_term(capsys, tmp_path):
    assert main(["circuit", "--term", "XYZ", "--out", str(tmp_path / "c.json")]) == 1
    assert "invalid factor" in capsys.readouterr().err


def test_expval_identity(tmp_path, capsys):
    identity = SparseMatrix.from_dense(np.eye(4))
    mtx = str(tmp_path / "eye.mtx")
    save_matrix_market(identity, mtx)
    decomp = str(tmp_path / "d.json")
    main(["decompose", "--in", mtx, "--out", decomp, "--merge"])
    oracle = StateOracle(np.eye(4, dtype=complex), "id")
    upath, vpath = str(tmp_path / "u.json"), str(tmp_path / "v.json")
    save_oracle(oracle, upath)
    save_oracle(oracle, vpath)
    out = str(tmp_path / "ev.json")
    capsys.readouterr()
    assert main(["expval", "--decomp", decomp, "--u", upath, "--v", vpath, "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["re"] == pytest.approx(1.0, abs=1e-12)
    assert payload["im"] == pytest.approx(0.0, abs=1e-12)
    assert len(payload["per_term"]) == 1


def test_expval_total_is_linear_in_the_terms(tmp_path, capsys):
    system = pde.poisson_1d(2)
    decomp = str(tmp_path / "d.json")
    sigma.save_decomposition(system.decomposition, decomp)
    rng = np.random.default_rng(77)
    upath, vpath = str(tmp_path / "u.json"), str(tmp_path / "v.json")
    save_oracle(StateOracle(reference.random_unitary(rng, 4), "U"), upath)
    save_oracle(StateOracle(reference.random_unitary(rng, 4), "V"), vpath)
    capsys.readouterr()
    assert main(["expval", "--decomp", decomp, "--u", upath, "--v", vpath]) == 0
    payload = json.loads(capsys.readouterr().out)
    total = complex(payload["re"], payload["im"])
    u, v = cli.load_oracle(upath, "U"), cli.load_oracle(vpath, "V")
    # Both sum coeff * expval_term in term order, so they agree bit for bit.
    assert total == reference.expval_full(u, v, load_decomposition(decomp))
    dense = (u.matrix.conj().T @ system.matrix.to_dense() @ v.matrix)[0, 0]
    assert abs(total - dense) < 1e-9 * len(system.decomposition)


def test_expval_shots_deterministic(tmp_path):
    mtx = write(tmp_path / "m.mtx", CORNER_PAIR_MTX)
    decomp = str(tmp_path / "d.json")
    main(["decompose", "--in", mtx, "--out", decomp])
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    upath, vpath = str(tmp_path / "u.json"), str(tmp_path / "v.json")
    save_oracle(StateOracle(q, "U"), upath)
    save_oracle(StateOracle(np.eye(4, dtype=complex), "V"), vpath)
    args = [
        "expval",
        "--decomp",
        decomp,
        "--u",
        upath,
        "--v",
        vpath,
        "--shots",
        "200",
        "--seed",
        "11",
        "--out",
    ]
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    assert json.loads(Path(out1).read_text()) == json.loads(Path(out2).read_text())


@pytest.mark.parametrize("shots, code", [("1000000000000000000", 0), ("100000000000000000000", 1)])
def test_expval_shots_up_to_int64_range(tmp_path, capsys, shots, code):
    mtx = write(tmp_path / "m.mtx", CORNER_PAIR_MTX)
    decomp = str(tmp_path / "d.json")
    main(["decompose", "--in", mtx, "--out", decomp])
    oracle = str(tmp_path / "id.json")
    save_oracle(StateOracle(np.eye(4, dtype=complex), "id"), oracle)
    capsys.readouterr()
    argv = ["expval", "--decomp", decomp, "--u", oracle, "--v", oracle, "--shots", shots]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.splitlines() == [f"error: shots must be <= {2**63 - 1}"]
    else:
        # Both corner-pair terms vanish on |0>; each estimate has a standard
        # deviation of at most 1e-9 at 1e18 shots.
        payload = json.loads(captured.out)
        parts = [part for p in payload["per_term"] for part in (p["re"], p["im"])]
        assert len(parts) == 4 and max(map(abs, parts)) <= 6e-9


def test_expval_sandwich_mode(tmp_path):
    mtx = write(tmp_path / "m.mtx", CORNER_PAIR_MTX)
    decomp = str(tmp_path / "d.json")
    main(["decompose", "--in", mtx, "--out", decomp])
    oracle = StateOracle(np.eye(4, dtype=complex), "id")
    upath, vpath, mpath = (
        str(tmp_path / "u.json"),
        str(tmp_path / "v.json"),
        str(tmp_path / "m.json"),
    )
    for path in (upath, vpath, mpath):
        save_oracle(oracle, path)
    out = str(tmp_path / "ev.json")
    assert main(
        ["expval", "--decomp", decomp, "--u", upath, "--v", vpath, "--m", mpath, "--out", out]
    ) == 0
    payload = json.loads(Path(out).read_text())
    assert len(payload["per_term"]) == 4
    # <0| A^dag A |0> for the corner-pair matrix: column 0 holds the value 2
    assert payload["re"] == pytest.approx(4.0, abs=1e-10)


def test_expval_rejects_shots_with_m(tmp_path, capsys):
    mtx = write(tmp_path / "m.mtx", CORNER_PAIR_MTX)
    decomp = str(tmp_path / "d.json")
    main(["decompose", "--in", mtx, "--out", decomp])
    oracle = StateOracle(np.eye(4, dtype=complex), "id")
    for name in ("u", "v", "mm"):
        save_oracle(oracle, str(tmp_path / f"{name}.json"))
    code = main(
        [
            "expval",
            "--decomp",
            decomp,
            "--u",
            str(tmp_path / "u.json"),
            "--v",
            str(tmp_path / "v.json"),
            "--m",
            str(tmp_path / "mm.json"),
            "--shots",
            "10",
        ]
    )
    assert code == 1
    assert "term expectations" in capsys.readouterr().err


def test_expval_refuses_a_negative_seed(tmp_path):
    mtx = write(tmp_path / "m.mtx", CORNER_PAIR_MTX)
    decomp = str(tmp_path / "d.json")
    main(["decompose", "--in", mtx, "--out", decomp])
    oracle = str(tmp_path / "id.json")
    save_oracle(StateOracle(np.eye(4, dtype=complex), "id"), oracle)
    argv = ["expval", "--decomp", decomp, "--u", oracle, "--v", oracle, "--shots", "10", "--seed", "-5"]
    assert assert_input_error(argv) == "error: seed must be >= 0\n"


def test_block_encode(tmp_path, capsys):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "2", "--outdir", str(outdir)])
    bedir = tmp_path / "be"
    code = main(
        ["block-encode", "--decomp", str(outdir / "decomposition.json"), "--outdir", str(bedir)]
    )
    assert code == 0
    report = json.loads((bedir / "verification.json").read_text())
    assert report["frobenius_error"] < 1e-10
    assert report["lambda"] == pytest.approx(
        sum(abs(complex(t["re"], t["im"])) for t in json.loads(
            (outdir / "decomposition.json").read_text()
        )["terms"])
    )
    resources = json.loads((bedir / "resources.json").read_text())
    assert resources["L"] == 5
    assert (bedir / "block_encoding.json").exists()


def test_block_encode_exits_2_above_tolerance(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "2", "--outdir", str(outdir)])
    capsys.readouterr()
    # Compare the encoded block against twice the true target.
    true_reconstruct = blockenc.reconstruct
    monkeypatch.setattr(blockenc, "reconstruct", lambda d: SparseMatrix.from_dense(2 * true_reconstruct(d).to_dense()))
    bedir = tmp_path / "be"
    code = main(
        ["block-encode", "--decomp", str(outdir / "decomposition.json"), "--outdir", str(bedir)]
    )
    assert code == 2
    report = json.loads((bedir / "verification.json").read_text())
    assert report["frobenius_error"] > blockenc.BLOCK_TOL
    assert f"frobenius_error: {report['frobenius_error']:.3e}" in capsys.readouterr().out
    assert (bedir / "resources.json").exists()
    assert (bedir / "block_encoding.json").exists()


def test_block_encode_refuses_width_before_resource_report(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "8", "--outdir", str(outdir)])
    capsys.readouterr()

    def no_report(*args):
        raise AssertionError("resource_report ran before the width guard")

    monkeypatch.setattr(blockenc, "resource_report", no_report)
    bedir = tmp_path / "be"
    # 17 terms: a 5-qubit selector, the ancilla and 8 system qubits.
    assert main(["block-encode", "--decomp", str(outdir / "decomposition.json"), "--outdir", str(bedir)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: block encoding limited to 12 qubits, got 14"]
    assert not bedir.exists()


@pytest.mark.parametrize("epsilon", ["2", "0", "-1"])
def test_block_encode_bad_epsilon_writes_nothing(tmp_path, capsys, epsilon):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "2", "--outdir", str(outdir)])
    capsys.readouterr()
    bedir = tmp_path / "be"
    decomp = str(outdir / "decomposition.json")
    code = main(["block-encode", "--decomp", decomp, "--outdir", str(bedir), "--epsilon", epsilon])
    assert code == 1
    assert "epsilon" in capsys.readouterr().err
    assert not bedir.exists()


def test_block_encode_subnormal_epsilon_reports_finite_counts(tmp_path, capsys):
    outdir = tmp_path / "sys"
    main(["generate", "--family", "poisson", "--s", "2", "--outdir", str(outdir)])
    bedir = tmp_path / "be"
    decomp = str(outdir / "decomposition.json")
    assert main(["block-encode", "--decomp", decomp, "--outdir", str(bedir), "--epsilon", "1e-320"]) == 0
    text = (bedir / "resources.json").read_text()
    assert "inf" not in text
    assert json.loads(text)["prep"]["count"] == "O(L log2(1/eps)) = O(5315.1)"


def test_missing_file_is_validation_error(tmp_path, capsys):
    assert main(["decompose", "--in", str(tmp_path / "nope.mtx"), "--out", "d.json"]) == 1
    assert "error:" in capsys.readouterr().err


# Malformed input files: every schema violation is an input error (exit 1)
# reported on a single stderr line, never a traceback.

VALID_DECOMPOSITION = {
    "n_qubits": 2,
    "terms": [
        {"re": 1.0, "im": 0.5, "factors": "PM"},
        {"re": -1, "im": 0, "factors": "AI"},
    ],
}
DECOMPOSITION_FIELDS = [
    ((), "object"),
    (("n_qubits",), "int"),
    (("terms",), "list"),
    (("terms", 1), "object"),
    (("terms", 0, "re"), "float"),
    (("terms", 1, "im"), "float"),
    (("terms", 0, "factors"), "str"),
]
# The one-qubit identity with true and false for 1 and 0.
BOOLEAN_ORACLE = '{"n_qubits": 1, "matrix": [[true, false], [false, false], [false, false], [true, false]]}'
VALID_ORACLE = {
    "n_qubits": 2,
    "label": "U",
    "matrix": [[1.0 if r == c else 0.0, 0.0] for r in range(4) for c in range(4)],
}
ORACLE_FIELDS = [
    ((), "object"),
    (("n_qubits",), "int"),
    (("label",), "str"),
    (("matrix",), "list"),
    (("matrix", 5), "pair"),
    (("matrix", 5, 1), "float"),
]
CIRCUIT_FIELDS = [
    ((), "object"),
    (("n_qubits",), "int"),
    (("ancillas",), "list"),
    (("gates",), "list"),
    (("gates", 0), "object"),
    (("gates", 0, "kind"), "str"),
    (("gates", 0, "target"), "int"),
    (("gates", 3, "controls"), "list"),
    (("gates", 3, "controls", 0), "object"),
    (("gates", 3, "controls", 0, "q"), "int"),
    (("gates", 3, "controls", 0, "pol"), "str"),
    (("gates", 4, "targets"), "list"),
    (("gates", 4, "label"), "str"),
    (("gates", 4, "matrix"), "list"),
    (("gates", 4, "matrix", 1), "pair"),
    (("gates", 4, "matrix", 1, 0), "float"),
]
OPTIONAL_FIELDS = {("label",), ("ancillas",), ("gates", 4, "label")}

JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 3),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=3),
    # Two-element lists are left out: they could form a valid [re, im] pair.
    "list": st.lists(st.integers(-3, 3), max_size=3).filter(lambda v: len(v) != 2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
ACCEPTED = {
    "int": {"int"},
    "float": {"int", "float"},
    "str": {"str"},
    "list": {"list"},
    "object": {"object"},
    "pair": set(),
}
DELETE = object()


def wrong_value(kind):
    return st.one_of(*(s for name, s in JSON_VALUES.items() if name not in ACCEPTED[kind]))


@st.composite
def malformed(draw, valid, fields):
    """A copy of ``valid`` with one field given a value of the wrong JSON
    type, or with one required field removed."""
    path, kind = draw(st.sampled_from(fields))
    removable = path and not isinstance(path[-1], int) and path not in OPTIONAL_FIELDS
    value = draw(st.just(DELETE) | wrong_value(kind) if removable else wrong_value(kind))
    if not path:
        return value
    data = copy.deepcopy(valid)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def run_cli(argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_input_error(argv):
    code, _, err = run_cli(argv)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def decomposition_argv(command, tmp, payload):
    """argv running ``command`` on a decomposition file holding ``payload``."""
    decomp = write_json(tmp / "d.json", payload)
    oracle = write_json(tmp / "u.json", VALID_ORACLE)
    return {
        "verify": ["verify", "--decomp", decomp],
        "expval": ["expval", "--decomp", decomp, "--u", oracle, "--v", oracle],
        "block-encode": ["block-encode", "--decomp", decomp, "--outdir", str(tmp / "be")],
    }[command]


@pytest.mark.parametrize("command", ["verify", "expval", "block-encode"])
@settings(max_examples=40, deadline=None)
@given(payload=malformed(VALID_DECOMPOSITION, DECOMPOSITION_FIELDS))
def test_malformed_decomposition_exits_1(command, payload):
    with tempfile.TemporaryDirectory() as tmp:
        assert_input_error(decomposition_argv(command, Path(tmp), payload))


@pytest.mark.parametrize("command", ["verify", "expval", "block-encode"])
@pytest.mark.parametrize(
    "payload, reason",
    [
        ({"n_qubits": -3, "terms": []}, "n_qubits"),
        ({"n_qubits": 2, "terms": []}, "no terms"),
        # Wider than any numpy dimension, with no term or only a pruned one.
        ({"n_qubits": 2**70, "terms": []}, "no terms"),
        ({"n_qubits": 2**70, "terms": [{"re": 0.0, "im": 0.0, "factors": "P"}]}, "no terms"),
    ],
)
def test_decomposition_without_terms_or_width_exits_1(tmp_path, command, payload, reason):
    assert reason in assert_input_error(decomposition_argv(command, tmp_path, payload))


def test_decomposition_listing_a_string_twice_exits_1(tmp_path):
    # The reader refuses a repeated string, as the Decomposition constructor does.
    payload = {"n_qubits": 1, "terms": [{"re": 1.0, "im": 0.0, "factors": "P"}, {"re": 2.0, "im": 0.0, "factors": "P"}]}
    code, _, err = run_cli(decomposition_argv("verify", tmp_path, payload))
    assert (code, err) == (1, "error: duplicate factor string P\n")


@settings(max_examples=60, deadline=None)
@given(
    payload=malformed(VALID_ORACLE, ORACLE_FIELDS),
    role=st.sampled_from(["--u", "--v", "--m"]),
)
def test_malformed_oracle_exits_1(payload, role):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        decomp = write_json(tmp / "d.json", VALID_DECOMPOSITION)
        good = write_json(tmp / "good.json", VALID_ORACLE)
        bad = write_json(tmp / "bad.json", payload)
        roles = {"--u": good, "--v": good, "--m": good, role: bad}
        argv = ["expval", "--decomp", decomp]
        for flag, path in roles.items():
            argv += [flag, path]
        assert_input_error(argv)


def test_oracle_declaring_another_width_exits_1(tmp_path):
    decomp = write_json(tmp_path / "d.json", VALID_DECOMPOSITION)
    good = write_json(tmp_path / "v.json", VALID_ORACLE)
    wide = write_json(tmp_path / "u.json", {**VALID_ORACLE, "n_qubits": 3})
    out = tmp_path / "out.json"
    code, _, err = run_cli(["expval", "--decomp", decomp, "--u", wide, "--v", good, "--out", str(out)])
    assert (code, err) == (1, "error: oracle 'U' declares 3 qubits, its matrix acts on 2\n")
    assert not out.exists()


def valid_circuit():
    term = SigmaTerm.from_string(1.0, "PM")
    gates = build_ul_circuit(term).gates + (Gate("dense", (1,), (), np.eye(2, dtype=complex), "id"),)
    return json.loads(_json_bytes(Circuit(3, gates, frozenset({0}))))


def test_valid_circuit_fixture_verifies(tmp_path):
    circuit_dir = tmp_path / "circuits"
    circuit_dir.mkdir()
    decomp = write_json(tmp_path / "d.json", {"n_qubits": 2, "terms": [{"re": 1, "im": 0, "factors": "PM"}]})
    write_json(circuit_dir / "term_000.json", valid_circuit())
    code, _, err = run_cli(["verify", "--decomp", decomp, "--circuits", str(circuit_dir)])
    assert code == 0 and err == ""


@settings(max_examples=80, deadline=None)
@given(payload=malformed(valid_circuit(), CIRCUIT_FIELDS))
def test_malformed_circuit_exits_1(payload):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        circuit_dir = tmp / "circuits"
        circuit_dir.mkdir()
        write_json(circuit_dir / "term_000.json", payload)
        decomp = write_json(tmp / "d.json", {"n_qubits": 2, "terms": [{"re": 1, "im": 0, "factors": "PM"}]})
        assert_input_error(["verify", "--decomp", decomp, "--circuits", str(circuit_dir)])


@pytest.mark.parametrize(
    "command, payload",
    [
        ("decomposition", {"n_qubits": 2, "terms": 5}),
        ("decomposition", {"n_qubits": 2, "terms": [{"re": "1", "im": 0, "factors": "PM"}]}),
        ("decomposition", [{"n_qubits": 2, "terms": []}]),
        ("decomposition", {"n_qubits": 2, "terms": [{"re": 1, "im": 0, "factors": 7}]}),
        ("oracle", {"label": "U", "matrix": 5}),
        (
            "circuit",
            {"n_qubits": 3, "gates": [{"kind": "mcx", "controls": 5, "target": 0}]},
        ),
        ("decomposition", "{\"n_qubits\": 2, \"terms\": [{\"re\": NaN, \"im\": 0, \"factors\": \"PM\"}]}"),
        ("oracle", "[[not json"),
        ("oracle", "[" * 100000 + "]" * 100000),
    ],
)
def test_malformed_examples_exit_1(tmp_path, command, payload):
    good_decomp = {"n_qubits": 2, "terms": [{"re": 1, "im": 0, "factors": "PM"}]}
    text = payload if isinstance(payload, str) else json.dumps(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    decomp = str(bad) if command == "decomposition" else write_json(tmp_path / "d.json", good_decomp)
    oracle = str(bad) if command == "oracle" else write_json(tmp_path / "u.json", VALID_ORACLE)
    argv = ["expval", "--decomp", decomp, "--u", oracle, "--v", oracle]
    if command == "circuit":
        circuit_dir = tmp_path / "circuits"
        circuit_dir.mkdir()
        bad.rename(circuit_dir / "term_000.json")
        argv = ["verify", "--decomp", decomp, "--circuits", str(circuit_dir)]
    assert_input_error(argv)


def test_verify_refuses_twelve_qubits_before_building_dense_blocks(tmp_path, monkeypatch):
    def fail(term):
        pytest.fail("completion_matrix called before the size check")

    monkeypatch.setattr(sigma, "completion_matrix", fail)
    decomp = write_json(tmp_path / "d.json", {"n_qubits": 12, "terms": [{"re": 1, "im": 0, "factors": "P" * 12}]})
    err = assert_input_error(["verify", "--decomp", decomp])
    assert "circuit_to_matrix limited to 12 qubits, got 13" in err


# Non-finite numbers never enter a matrix or a decomposition, and no file
# is written for them.
NAN_MTX = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 nan\n2 2 1.0\n"
INF_MTX = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 inf\n2 2 1.0\n"
BIG_MTX = "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.7e308 1.7e308\n"


@pytest.mark.parametrize(
    "case",
    [
        "decompose-nan", "decompose-inf", "block-encode-1e400", "block-encode-lambda-overflow",
        "generate-alpha-1e308", "generate-alpha-nan", "generate-w1-nan",
        "decompose-magnitude-overflow", "block-encode-magnitude-overflow", "generate-k-cond-0",
        "generate-k-cond-nan", "generate-q-flux-nan", "generate-flux-overflow",
    ],
)
def test_non_finite_numbers_exit_1_and_write_nothing(tmp_path, case):
    out = tmp_path / "out"
    argv = {
        "decompose-nan": ["decompose", "--in", write(tmp_path / "nan.mtx", NAN_MTX), "--out", str(out)],
        "decompose-inf": ["decompose", "--in", write(tmp_path / "inf.mtx", INF_MTX), "--out", str(out)],
        "block-encode-1e400": [
            "block-encode", "--outdir", str(out), "--decomp",
            write(tmp_path / "big.json", '{"n_qubits": 1, "terms": [{"re": 1e400, "im": 0, "factors": "P"}]}'),
        ],
        # Each coefficient is finite; their sum, lambda, is not.
        "block-encode-lambda-overflow": [
            "block-encode", "--outdir", str(out), "--decomp",
            write_json(tmp_path / "sum.json", {"n_qubits": 1, "terms": [
                {"re": 1e308, "im": 0, "factors": "P"}, {"re": 1e308, "im": 0, "factors": "M"},
            ]}),
        ],
        "generate-alpha-1e308": [
            "generate", "--family", "heat", "--s", "2", "--t", "2", "--alpha", "1e308", "--outdir", str(out),
        ],
        "generate-alpha-nan": [
            "generate", "--family", "heat", "--s", "2", "--t", "2", "--alpha", "nan", "--outdir", str(out),
        ],
        "generate-w1-nan": [
            "generate", "--family", "heat", "--s", "2", "--t", "2", "--w1", "nan", "--outdir", str(out),
        ],
        # Finite parts whose magnitude overflows a float.
        "decompose-magnitude-overflow": ["decompose", "--in", write(tmp_path / "big.mtx", BIG_MTX), "--out", str(out)],
        "block-encode-magnitude-overflow": [
            "block-encode", "--outdir", str(out), "--decomp",
            write_json(tmp_path / "big_magnitude.json", {"n_qubits": 1, "terms": [{"re": 1.7e308, "im": 1.7e308, "factors": "P"}]}),
        ],
        # The boundary flux q * dt / (k * dx) must be finite.
        **{
            f"generate-{name}": [
                "generate", "--family", "heat", "--s", "2", "--t", "2", *flags, "--outdir", str(out),
            ]
            for name, flags in (
                ("k-cond-0", ["--k-cond", "0"]),
                ("k-cond-nan", ["--k-cond", "nan"]),
                ("q-flux-nan", ["--q-flux", "nan"]),
                ("flux-overflow", ["--q-flux", "1e308", "--k-cond", "1e-10"]),
            )
        },
    }[case]
    assert_input_error(argv)
    assert not out.exists()


def test_merge_of_coefficients_whose_difference_overflows(tmp_path, capsys):
    """Each entry has a finite magnitude; the difference of the projector
    pair does not, so the pair is not merged."""
    mtx = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.2e308 1.2e308\n2 2 -1e307 -1e307\n",
    )
    out = tmp_path / "d.json"
    assert main(["decompose", "--in", mtx, "--out", str(out), "--merge"]) == 0
    assert capsys.readouterr().out == "terms: 2  nnz: 2\n"
    assert [t.factors for t in load_decomposition(str(out)).terms] == ["A", "B"]


def test_merge_of_equal_coefficients_whose_sum_overflows(tmp_path, capsys):
    """The projector pair's sum overflows in both parts; their mean does
    not, and the merged identity reconstructs the matrix exactly."""
    mtx = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1e308 1e308\n2 2 1e308 1e308\n",
    )
    out = tmp_path / "d.json"
    assert main(["decompose", "--in", mtx, "--out", str(out), "--merge"]) == 0
    assert capsys.readouterr().out == "terms: 1  nnz: 2\n"
    merged = load_decomposition(str(out))
    assert [(t.factors, t.coeff) for t in merged.terms] == [("I", complex(1e308, 1e308))]
    assert sigma.reconstruct(merged) == load_matrix_market(mtx)


def test_oracle_entry_overflowing_to_infinity_exits_1(tmp_path):
    decomp = write_json(tmp_path / "d.json", VALID_DECOMPOSITION)
    oracle = write(tmp_path / "u.json", json.dumps(VALID_ORACLE).replace("1.0", "1e400", 1))
    err = assert_input_error(["expval", "--decomp", decomp, "--u", oracle, "--v", oracle])
    assert "floating-point range" in err


def test_oracle_integer_entry_too_large_for_a_float_exits_1(tmp_path):
    decomp = write_json(tmp_path / "d.json", VALID_DECOMPOSITION)
    oracle = write(tmp_path / "u.json", json.dumps(VALID_ORACLE).replace("1.0", "1" + "0" * 400, 1))
    code, _, err = run_cli(["expval", "--decomp", decomp, "--u", oracle, "--v", oracle])
    assert (code, err) == (1, "error: matrix entries out of floating-point range\n")


def test_oracle_of_booleans_exits_1_and_writes_nothing(tmp_path):
    """A boolean identity is refused as a matrix of numbers, not read as 1 and 0."""
    decomp = write_json(tmp_path / "d.json", {"n_qubits": 1, "terms": [{"re": 1, "im": 0, "factors": "I"}]})
    oracle = write(tmp_path / "u.json", BOOLEAN_ORACLE)
    out = tmp_path / "out.json"
    code, _, err = run_cli(["expval", "--decomp", decomp, "--u", oracle, "--v", oracle, "--out", str(out)])
    assert (code, err) == (1, "error: matrix entries must be [re, im] pairs of numbers\n")
    assert not out.exists()


def test_json_writer_refuses_non_finite_and_leaves_no_file(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _codec.write_json(path, {"values": [[1.0, float("nan")]]})
    assert not path.exists()


# One parser serves every main() call in a process; each call must behave as
# in a fresh interpreter.

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(argv, cwd):
    """Exit code, stdout and stderr of ``python -m sigmalcu.cli argv``."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "sigmalcu.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_builds_its_parser_once(monkeypatch, request, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    request.addfinalizer(cli._build_parser.cache_clear)
    for points in ("16", "32", "16,32"):
        assert main(["compare", "--family", "poisson", "--range", points]) == 0
    # The top-level parser and one per subcommand, all from the first call.
    assert len(built) == 8
    assert cli._build_parser() is cli._build_parser()


def test_main_runs_the_handler_bound_at_call_time(monkeypatch, capsys):
    argv = ["compare", "--family", "poisson", "--range", "16"]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_compare", lambda args: seen.append(args.range) or 7)
    assert main(argv) == 7
    assert seen == ["16"]
    monkeypatch.setattr(cli, "cmd_block_encode", lambda args: seen.append(args.epsilon) or 9)
    assert main(["block-encode", "--decomp", "d.json", "--outdir", "be"]) == 9
    assert seen == ["16", 1e-3]


def snapshot(directory):
    root = Path(directory)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def leak_case_inputs(tmp):
    mtx = write(tmp / "m.mtx", CORNER_PAIR_MTX)
    assert main(["decompose", "--in", mtx, "--out", str(tmp / "d.json")]) == 0
    rng = np.random.default_rng(5)
    for name in ("u", "v", "m"):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        save_oracle(StateOracle(q, name.upper()), str(tmp / f"{name}.json"))


# (first call with an option, second call without it); "{in}" holds the
# shared inputs and "{out}" is a directory of the call's own.
LEAK_CASES = {
    "generate --pauli": (
        ["generate", "--family", "heat", "--s", "2", "--t", "2", "--alpha", "0.7", "--w1", "0.3", "--pauli",
         "--outdir", "{out}/sys"],
        ["generate", "--family", "heat", "--s", "2", "--t", "2", "--outdir", "{out}/sys"],
    ),
    "compare --out": (
        ["compare", "--family", "wave", "--range", "4(4)", "--out", "{out}/c.csv"],
        ["compare", "--family", "wave", "--range", "4(4)"],
    ),
    "verify --dilation": (
        ["verify", "--decomp", "{in}/d.json", "--dilation"],
        ["verify", "--decomp", "{in}/d.json"],
    ),
    "expval --m": (
        ["expval", "--decomp", "{in}/d.json", "--u", "{in}/u.json", "--v", "{in}/v.json", "--m", "{in}/m.json"],
        ["expval", "--decomp", "{in}/d.json", "--u", "{in}/u.json", "--v", "{in}/v.json"],
    ),
}


@pytest.mark.parametrize("case", LEAK_CASES)
def test_options_do_not_leak_into_the_next_call(tmp_path, case):
    inputs = tmp_path / "in"
    inputs.mkdir()
    leak_case_inputs(inputs)

    def fill(argv, out):
        out.mkdir()
        return [arg.replace("{in}", str(inputs)).replace("{out}", str(out)) for arg in argv]

    first, second = LEAK_CASES[case]
    assert run_cli(fill(first, tmp_path / "first"))[0] == 0
    argv = fill(second, tmp_path / "here")
    # The options of the second call are those a fresh parser gives it.
    fresh = cli._build_parser.__wrapped__().parse_args(argv)
    assert cli._build_parser().parse_args(argv) == fresh
    here = run_cli(argv)
    fresh_out = tmp_path / "fresh"
    assert run_fresh(fill(second, fresh_out), tmp_path) == here
    assert here[0] == 0 and here[2] == ""
    assert snapshot(tmp_path / "here") == snapshot(fresh_out)
    if case == "generate --pauli":
        rows = read_csv(tmp_path / "here" / "sys" / "counts.csv")
        assert [row[4] for row in rows] == ["pauli_terms", ""]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify", "--help"], 0),
    (["verify"], 2),
    (["frobnicate"], 2),
], ids=["help", "verify help", "missing option", "unknown command"])
def test_help_and_usage_repeat_exactly(tmp_path, monkeypatch, argv, code):
    # argparse wraps help text to COLUMNS; the fresh interpreter gets the same.
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    first, second = run_cli(argv), run_cli(argv)
    assert first == second
    assert first[0] == code and (first[1] if code == 0 else first[2]).startswith("usage: sigmalcu")
    assert run_fresh(argv, tmp_path) == first


def test_expval_refuses_an_oracle_nested_a_million_deep(tmp_path):
    # orjson parses any depth until its stack overflows and the process dies;
    # json refuses past the recursion limit, so the reader gives it deep files.
    decomp = write_json(tmp_path / "d.json", VALID_DECOMPOSITION)
    deep = write(tmp_path / "u.json", "[" * 10**6 + "]" * 10**6)
    assert run_fresh(["expval", "--decomp", decomp, "--u", deep, "--v", deep], tmp_path) == (
        1, "", "error: JSON nesting too deep\n"
    )
