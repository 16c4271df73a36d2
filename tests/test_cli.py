import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmalcu import _codec, blockenc, sigma
from sigmalcu.circuits import (
    Circuit,
    DenseUnitary,
    build_ul_circuit,
    circuit_to_json_dict,
    save_circuit,
)
from sigmalcu.cli import main, save_oracle
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
    argv = ["generate", "--family", "poisson", "--s", "13", "--pauli", "--outdir", str(outdir)]
    assert main(argv) == 1
    assert "limited to 12 qubits" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("family", ["heat", "wave"])
def test_generate_refuses_tiny_length_and_writes_nothing(tmp_path, capsys, family):
    outdir = tmp_path / "sys"
    argv = ["generate", "--family", family, "--s", "2", "--t", "2", "--length", "1e-200"]
    assert main(argv + ["--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: grid spacing dx")
    assert not outdir.exists()


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


def test_compare_heat_point(tmp_path, capsys):
    assert main(["compare", "--family", "heat", "--range", "4(4)"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,n_x,n_t,sigma_terms,pauli_terms"
    family, n_x, n_t, sigma_terms, pauli_terms = lines[1].split(",")
    assert (family, n_x, n_t) == ("heat", "4", "4")
    assert int(pauli_terms) >= int(sigma_terms)


# One 13-qubit point per family (poisson s, heat s + t, wave s + t + 1),
# for compare after a point that fits and for generate --pauli.
WIDE_POINTS = [
    ("poisson", "poisson_1d", "16,8192", ["--s", "13"]),
    ("heat", "heat_1d", "4(4),1024(8)", ["--s", "10", "--t", "3"]),
    ("wave", "wave_1d", "4(4),512(8)", ["--s", "9", "--t", "3"]),
]


@pytest.mark.parametrize("family, builder, points, grid", WIDE_POINTS)
def test_pauli_guard_refuses_before_any_system_is_built(
    tmp_path, capsys, monkeypatch, family, builder, points, grid
):
    def refuse_to_build(*args, **kwargs):
        raise AssertionError("system built before the Pauli guard")

    monkeypatch.setattr(f"sigmalcu.pde.{builder}", refuse_to_build)
    expected = ["error: pauli decomposition limited to 12 qubits, got 13"]
    assert main(["compare", "--family", family, "--range", points]) == 1
    assert capsys.readouterr().err.splitlines() == expected
    outdir = tmp_path / "sys"
    argv = ["generate", "--family", family, *grid, "--pauli", "--outdir", str(outdir)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == expected
    assert not outdir.exists()


def test_compare_rejects_bad_range(capsys):
    assert main(["compare", "--family", "heat", "--range", "4x4"]) == 1
    assert "grid point" in capsys.readouterr().err


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
VALID_ORACLE = {
    "n_qubits": 2,
    "label": "U",
    "matrix": [[1.0 if r == c else 0.0, 0.0] for r in range(4) for c in range(4)],
}
ORACLE_FIELDS = [
    ((), "object"),
    (("label",), "str"),
    (("matrix",), "list"),
    (("matrix", 5), "pair"),
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_input_error(argv):
    code, err = run_cli(argv)
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
    [({"n_qubits": -3, "terms": []}, "n_qubits"), ({"n_qubits": 2, "terms": []}, "no terms")],
)
def test_decomposition_without_terms_or_width_exits_1(tmp_path, command, payload, reason):
    assert reason in assert_input_error(decomposition_argv(command, tmp_path, payload))


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


def valid_circuit():
    term = SigmaTerm.from_string(1.0, "PM")
    gates = build_ul_circuit(term).gates + (DenseUnitary((1,), np.eye(2, dtype=complex), "id"),)
    return circuit_to_json_dict(Circuit(3, gates, frozenset({0})))


def test_valid_circuit_fixture_verifies(tmp_path):
    circuit_dir = tmp_path / "circuits"
    circuit_dir.mkdir()
    decomp = write_json(tmp_path / "d.json", {"n_qubits": 2, "terms": [{"re": 1, "im": 0, "factors": "PM"}]})
    write_json(circuit_dir / "term_000.json", valid_circuit())
    code, err = run_cli(["verify", "--decomp", decomp, "--circuits", str(circuit_dir)])
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


def test_oracle_entry_overflowing_to_infinity_exits_1(tmp_path):
    decomp = write_json(tmp_path / "d.json", VALID_DECOMPOSITION)
    oracle = write(tmp_path / "u.json", json.dumps(VALID_ORACLE).replace("1.0", "1e400", 1))
    err = assert_input_error(["expval", "--decomp", decomp, "--u", oracle, "--v", oracle])
    assert "floating-point range" in err


def test_json_writer_refuses_non_finite_and_leaves_no_file(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _codec.write_json(path, {"values": [[1.0, float("nan")]]})
    assert not path.exists()
