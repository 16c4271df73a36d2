"""Command-line surface.

Subcommands mirror the library workflows and emit machine-readable
artifacts (Matrix Market, JSON, CSV).  Exit codes: 0 success, 1 validation
or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import _codec, blockenc, matrices, pauli, pde, sigma
from .circuits import (
    build_dilation_circuit,
    build_ul_circuit,
    gate_count,
    load_circuit,
    save_circuit,
    to_qasm,
)
from .expectation import StateOracle, expval_sandwich, expval_term, sample_expval
from .matrices import ZERO_TOL, _require_power_of_two, load_matrix_market, save_matrix_market
from .sigma import SigmaFactor, SigmaTerm, term_matrix
from .simulate import circuit_to_matrix

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2

POISSON_GRID = (4, 5, 6, 7)  # n_x = 16, 32, 64, 128
HEAT_WAVE_GRID = ((2, 2), (2, 3), (3, 3), (3, 4))  # n_x(n_t) = 4(4), 4(8), 8(8), 8(16)


def load_oracle(path: str, label: str) -> StateOracle:
    data = _codec.read_json(path)
    matrix = _codec.complex_matrix(_codec.field(data, "matrix", list))
    return StateOracle(matrix, _codec.field(data, "label", str, label))


def save_oracle(oracle: StateOracle, path: str) -> None:
    payload = {
        "n_qubits": oracle.n_qubits,
        "label": oracle.label,
        "matrix": _codec.complex_pairs(oracle.matrix.reshape(-1)),
    }
    _codec.write_json(path, payload)


def _require_pauli_size(family: str, s: int, t: int | None) -> None:
    """Refuse a grid point too wide for the Pauli decomposition without
    building it: poisson takes s qubits, heat s + t and wave s + t + 1."""
    width = s if family == "poisson" else s + t + (family == "wave")
    matrices._require_dense_size(width, "pauli decomposition")


def _generate_system(
    family: str, s: int, t: int | None, args: argparse.Namespace | None = None
) -> pde.PdeSystem:
    """System of one grid point.  ``args`` carries generate's physical
    options; without it every option keeps its library default."""
    if family == "poisson":
        return pde.poisson_1d(s)
    if family == "heat":
        options = {} if args is None else dict(
            alpha=args.alpha, length=args.length, T=args.final_time, q_flux=args.q_flux,
            k_cond=args.k_cond, robin_w1=args.w1, robin_w2=args.w2,
        )
        return pde.heat_1d(pde.HeatParams(s, t, **options))
    options = {} if args is None else dict(c=args.wave_speed, length=args.length, T=args.final_time)
    return pde.wave_1d(s, t, **options)


def cmd_decompose(args: argparse.Namespace) -> int:
    matrix = load_matrix_market(args.infile, tol=args.tol)
    decomposition = sigma.decompose_numerical(matrix)
    if args.merge:
        decomposition = sigma.merge_terms(decomposition)
    sigma.save_decomposition(decomposition, args.out)
    print(f"terms: {len(decomposition)}  nnz: {matrix.nnz}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family in ("heat", "wave") and args.t is None:
        raise ValueError(f"--t is required for the {args.family} family")
    if args.pauli:  # refused before anything is built or written
        _require_pauli_size(args.family, args.s, args.t)
    system = _generate_system(args.family, args.s, args.t, args)
    pauli_terms = len(pauli.decompose_pauli(system.matrix)) if args.pauli else ""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_matrix_market(system.matrix, str(outdir / "matrix.mtx"))
    sigma.save_decomposition(system.decomposition, str(outdir / "decomposition.json"))
    if system.rhs is not None:
        payload = {"length": int(system.rhs.size), "values": _codec.complex_pairs(system.rhs)}
        _codec.write_json(outdir / "rhs.json", payload)
    n_x = 1 << args.s
    n_t = "" if args.family == "poisson" else 1 << args.t
    _append_counts_row(
        outdir / "counts.csv",
        [args.family, n_x, n_t, len(system.decomposition), pauli_terms, system.predicted_term_count],
    )
    print(
        f"{args.family}: sigma terms {len(system.decomposition)} "
        f"(predicted <= {system.predicted_term_count})"
    )
    return EXIT_OK


def _append_counts_row(path: Path, row: list) -> None:
    new_file = not path.exists()
    with open(path, "a", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(
                ["family", "n_x", "n_t", "sigma_terms", "pauli_terms", "predicted"]
            )
        writer.writerow(row)


def _parse_compare_range(family: str, text: str | None) -> list[tuple[int, int | None]]:
    """Grid points as (s, t).  Poisson ranges list n_x values; heat and wave
    ranges list n_x(n_t) pairs."""
    if text is None:
        if family == "poisson":
            return [(s, None) for s in POISSON_GRID]
        return [(s, t) for s, t in HEAT_WAVE_GRID]
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if family == "poisson":
            n_x = int(chunk)
        else:
            if "(" not in chunk or not chunk.endswith(")"):
                raise ValueError(f"expected n_x(n_t) grid point, got {chunk!r}")
            n_x = int(chunk[: chunk.index("(")])
            n_t = int(chunk[chunk.index("(") + 1 : -1])
        s = _require_power_of_two(n_x)
        points.append((s, None if family == "poisson" else _require_power_of_two(n_t)))
    return points


def cmd_compare(args: argparse.Namespace) -> int:
    points = _parse_compare_range(args.family, args.range)
    for s, t in points:
        _require_pauli_size(args.family, s, t)
    rows = []
    for s, t in points:
        system = _generate_system(args.family, s, t)
        n_t = "" if t is None else 1 << t
        pauli_terms = len(pauli.decompose_pauli(system.matrix))
        rows.append([args.family, 1 << s, n_t, len(system.decomposition), pauli_terms])
    lines = [["family", "n_x", "n_t", "sigma_terms", "pauli_terms"]] + rows
    if args.out:
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            csv.writer(fh).writerows(lines)
    else:
        for line in lines:
            print(",".join(str(x) for x in line))
    return EXIT_OK


def _verify_term(
    term: SigmaTerm, index: int, circuit_dir: Path | None, check_dilation: bool
) -> tuple[bool, str]:
    n = term.n_qubits
    if circuit_dir is not None:
        circuit = load_circuit(str(circuit_dir / f"term_{index:03d}.json"))
        if circuit.n_qubits != n + 1:
            return False, "circuit width mismatch"
    else:
        circuit = build_ul_circuit(term)
    # Extract first: its size check fires before any dense array exists.
    actual = circuit_to_matrix(circuit)
    unit = SigmaTerm(1.0, term.factors)
    block = term_matrix(unit).to_dense()
    comp = sigma.completion_matrix(unit) - block
    expected = np.block([[block, comp], [comp, block]])
    if not np.array_equal(actual, expected):
        return False, "matrix does not match completion block structure"
    counts = gate_count(circuit)
    k = term.factors.count(SigmaFactor.IDENT)
    if circuit_dir is None:
        if counts.single_qubit > n + 1:
            return False, f"{counts.single_qubit} single-qubit gates exceeds n + 1"
        if len(counts.mcx) > 1 or (counts.mcx and counts.mcx[0] != n - k):
            return False, f"expected one multi-controlled X of arity {n - k}"
    if check_dilation:
        ok, msg = _verify_dilation(term, actual, block)
        if not ok:
            return False, msg
    note = " (identity circuit)" if k == n else ""
    return True, f"ok{note}"


def _verify_dilation(term: SigmaTerm, completion: np.ndarray, block: np.ndarray) -> tuple[bool, str]:
    circuit = build_dilation_circuit(term)
    s = term.factors.count(SigmaFactor.SPLUS) + term.factors.count(SigmaFactor.SMINUS)
    counts = gate_count(circuit)
    # The all-identity term normalizes its single zero-control gate to X.
    expected_mcx = 0 if term.factors.count(SigmaFactor.IDENT) == term.n_qubits else 2 * s + 1
    if len(counts.mcx) != expected_mcx:
        return False, f"dilation used {len(counts.mcx)} multi-controlled X, expected {expected_mcx}"
    matrix = circuit_to_matrix(circuit)
    dim = block.shape[0]
    if s == 0:
        if not np.array_equal(matrix, completion):
            return False, "dilation and completion circuits disagree at s = 0"
    elif not np.array_equal(matrix[:dim, :dim], block):
        return False, "dilation top-left block is not the term matrix"
    return True, "ok"


def cmd_verify(args: argparse.Namespace) -> int:
    decomposition = sigma.load_decomposition(args.decomp)
    circuit_dir = Path(args.circuits) if args.circuits else None
    failures = 0
    print(f"{'term':>4}  {'factors':<12} {'result'}")
    for index, term in enumerate(decomposition.terms):
        ok, message = _verify_term(term, index, circuit_dir, args.dilation)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{index:>4}  {term.factors:<12} {status}: {message}")
    if failures:
        print(f"{failures} of {len(decomposition)} terms failed")
        return EXIT_VERIFY_FAILED
    print(f"all {len(decomposition)} terms verified")
    return EXIT_OK


def cmd_circuit(args: argparse.Namespace) -> int:
    term = SigmaTerm.from_string(1.0, args.term)
    circuit = build_ul_circuit(term)
    save_circuit(circuit, args.out)
    if args.qasm is not None:
        qasm_path = args.qasm or str(Path(args.out).with_suffix(".qasm"))
        with open(qasm_path, "w", encoding="ascii") as fh:
            fh.write(to_qasm(circuit))
    counts = gate_count(circuit)
    print(
        f"qubits: {circuit.n_qubits}  single-qubit gates: {counts.single_qubit}  "
        f"mcx arities: {list(counts.mcx)}"
    )
    return EXIT_OK


def cmd_expval(args: argparse.Namespace) -> int:
    decomposition = sigma.load_decomposition(args.decomp)
    u = load_oracle(args.u, "U")
    v = load_oracle(args.v, "V")
    terms = decomposition.terms
    if args.m is not None:
        if args.shots is not None:
            raise ValueError("shot sampling supports term expectations only")
        m = load_oracle(args.m, "M")
        rows = (
            ({"i": i, "j": j}, ti.coeff.conjugate() * tj.coeff, expval_sandwich(u, v, m, ti, tj))
            for i, ti in enumerate(terms)
            for j, tj in enumerate(terms)
        )
    elif args.shots is not None:
        rows = (
            ({"factors": t.factors}, t.coeff, sample_expval(u, v, t, args.shots, args.seed + i))
            for i, t in enumerate(terms)
        )
    else:
        rows = (({"factors": t.factors}, t.coeff, expval_term(u, v, t)) for t in terms)
    per_term = []
    total = 0j
    for keys, weight, value in rows:
        total += weight * value
        per_term.append({**keys, "re": value.real, "im": value.imag})
    payload = {"re": total.real, "im": total.imag, "per_term": per_term}
    text = json.dumps(payload, indent=1, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    print(text)
    return EXIT_OK


def cmd_block_encode(args: argparse.Namespace) -> int:
    decomposition = sigma.load_decomposition(args.decomp)
    # Compute everything first, so that invalid input writes no file.
    resources = blockenc.resource_report(decomposition, args.epsilon)
    encoding = blockenc.assemble(decomposition)
    report = blockenc.verify_block_encoding(encoding)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_circuit(encoding.overall, str(outdir / "block_encoding.json"))
    _codec.write_json(outdir / "verification.json", report, indent=1)
    _codec.write_json(outdir / "resources.json", resources, indent=1)
    print(
        f"lambda: {report['lambda']:.6g}  frobenius_error: {report['frobenius_error']:.3e}  "
        f"qubits: {report['qubits']}"
    )
    if not report["frobenius_error"] <= blockenc.BLOCK_TOL:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmalcu",
        description="Sigma-basis decompositions, completion circuits, and block encodings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="sigma-decompose a Matrix Market file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--merge", action="store_true", help="merge projector pairs into identities")
    p.add_argument(
        "--tol", type=float, default=ZERO_TOL, help=f"zero-prune tolerance (at least {ZERO_TOL:g})"
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("generate", help="emit a PDE system and its decomposition")
    p.add_argument("--family", choices=("poisson", "heat", "wave"), required=True)
    p.add_argument("--s", type=int, required=True, help="log2 of the spatial grid size")
    p.add_argument("--t", type=int, default=None, help="log2 of the number of time levels")
    p.add_argument("--alpha", type=float, default=1.0, help="thermal diffusivity")
    p.add_argument("--length", type=float, default=None, help="domain length (default n_x)")
    p.add_argument("--final-time", type=float, default=None, help="integration time (default n_t - 1)")
    p.add_argument("--q-flux", type=float, default=1.0, help="boundary heat flux")
    p.add_argument("--k-cond", type=float, default=1.0, help="thermal conductivity")
    p.add_argument("--w1", type=float, default=0.0, help="Robin weight on u")
    p.add_argument("--w2", type=float, default=1.0, help="Robin weight on du/dx")
    p.add_argument("--wave-speed", type=float, default=1.0)
    p.add_argument("--pauli", action="store_true", help="also record the Pauli term count")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compare", help="sigma vs Pauli term counts over a grid")
    p.add_argument("--family", choices=("poisson", "heat", "wave"), required=True)
    p.add_argument(
        "--range",
        default=None,
        help="poisson: comma list of n_x; heat/wave: comma list of n_x(n_t)",
    )
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="check completion circuits of a decomposition")
    p.add_argument("--decomp", required=True)
    p.add_argument("--dilation", action="store_true", help="also cross-check dilation circuits")
    p.add_argument(
        "--circuits",
        default=None,
        help="directory of term_NNN.json circuits to verify instead of freshly built ones",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("circuit", help="build the completion circuit of one term")
    p.add_argument("--term", required=True, help="factor string over I, P, M, A, B")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--qasm",
        nargs="?",
        const="",
        default=None,
        help="also write a QASM-like text file (default path: --out with .qasm)",
    )
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("expval", help="Hadamard-test expectation of a decomposition")
    p.add_argument("--decomp", required=True)
    p.add_argument("--u", required=True, help="left state-preparation oracle (JSON)")
    p.add_argument("--v", required=True, help="right state-preparation oracle (JSON)")
    p.add_argument("--m", default=None, help="optional observable oracle (JSON)")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expval)

    p = sub.add_parser("block-encode", help="assemble and verify a PREP/SELECT encoding")
    p.add_argument("--decomp", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.set_defaults(func=cmd_block_encode)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
