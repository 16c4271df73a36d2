"""The four workloads: seeded inputs, op lists, and each op's check.

An op is one ``sigmalcu.cli.main(argv)`` call.  ``{i}`` in an argv or
output path stands for the run's input directory and ``{o}`` for the op's
own output directory, which is fresh for every execution.  Inputs the
program needs from an earlier command (a written ``matrix.mtx``, saved
circuit files, PDE decompositions) are produced during set-up by
``setup_ops`` and checked like any other op, so timed ops never depend on
each other and can run in any order.

Sizes are fixed per workload; the seed picks the random matrices, the
random sigma decompositions, the Haar oracles, the non-integer physical
parameters and the op order, so runs with different seeds do the same
amount of work on different data.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as ref
from oracles import require


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    i: str
    o: str
    stderr: str = ""

    def path(self, template: str) -> str:
        return template.format(i=self.i, o=self.o)


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[Outcome], None]
    # Output files the check reads.  The first one (or stdout when there
    # is none) is what the negative control corrupts.
    outputs: list[str] = field(default_factory=list)

    def resolve(self, i: str, o: str) -> list[str]:
        return [a.format(i=i, o=o) for a in self.argv]


@dataclass
class Workload:
    name: str
    write_inputs: Callable[[np.random.Generator, str], None]
    setup_ops: list[Op]
    ops: list[Op]


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _ok(out: Outcome) -> None:
    require(out.rc == 0, f"exit code {out.rc}")


def _pde_flags(family: str, s: int, t: int | None, params: dict) -> list[str]:
    argv = ["--family", family, "--s", str(s)]
    if t is not None:
        argv += ["--t", str(t)]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return argv


def _n_qubits(family: str, s: int, t: int | None) -> int:
    return s if family == "poisson" else s + t + (family == "wave")


@functools.cache
def _pde_reference(family: str, s: int, t: int | None, params_json: str):
    return ref.pde_matrix(family, s, t, json.loads(params_json))


@functools.cache
def _pauli_reference(family: str, s: int, t: int | None, params_json: str) -> int:
    return ref.pauli_count(_pde_reference(family, s, t, params_json))


# --------------------------------------------------------------------------
# Op builders


def generate_op(family, s, t=None, params=None, outdir="{o}", pauli=False) -> Op:
    params = dict(params or {})
    key = (family, s, t, json.dumps(params, sort_keys=True))
    argv = ["generate", *_pde_flags(family, s, t, params), "--outdir", outdir]
    if pauli:
        argv.append("--pauli")

    def check(out: Outcome) -> None:
        _ok(out)
        d = out.path(outdir)
        n, terms = ref.load_terms(f"{d}/decomposition.json")
        require(n == _n_qubits(family, s, t), f"register width {n}")
        predicted = ref.predicted_terms(family, s, t)
        require(len(terms) <= predicted, f"{len(terms)} terms > predicted {predicted}")
        require(family != "poisson" or len(terms) == predicted, "poisson needs exactly 2s + 1 terms")
        written = ref.read_mtx(f"{d}/matrix.mtx")
        for what, other in (
            ("reconstruction", ref.reconstruct(n, terms)),
            ("finite-difference operator", _pde_reference(*key)),
        ):
            reason = ref.same_matrix(written, other)
            require(reason is None, f"matrix.mtx vs {what}: {reason}")
        row = _read(f"{d}/counts.csv").splitlines()[-1].split(",")
        expected = [
            family,
            str(1 << s),
            "" if t is None else str(1 << t),
            str(len(terms)),
            str(_pauli_reference(*key)) if pauli else "",
            str(predicted),
        ]
        require(row == expected, f"counts.csv row {row} != {expected}")
        line = f"{family}: sigma terms {len(terms)} (predicted <= {predicted})"
        require(out.stdout.strip() == line, "summary line differs")

    return Op("generate --pauli" if pauli else "generate", argv, check, [f"{outdir}/decomposition.json", f"{outdir}/matrix.mtx", f"{outdir}/counts.csv"])


def decompose_op(infile: str, merge: bool) -> Op:
    outfile = "{o}/decomp.json"
    argv = ["decompose", "--in", infile, "--out", outfile] + (["--merge"] if merge else [])

    def check(out: Outcome) -> None:
        _ok(out)
        source = ref.prune(ref.read_mtx(out.path(infile)))
        nnz = source[1].size
        n, terms = ref.load_terms(out.path(outfile))
        rebuilt = ref.reconstruct(n, terms)
        if merge:
            require(len(terms) <= nnz, f"merge grew {nnz} terms to {len(terms)}")
            reason = ref.same_matrix(rebuilt, source)
        else:
            require(len(terms) == nnz, f"{len(terms)} terms for {nnz} nonzeros")
            reason = ref.same_matrix(rebuilt, source, exact=True)
        require(reason is None, f"round trip: {reason}")
        require(out.stdout.strip() == f"terms: {len(terms)}  nnz: {nnz}", "summary line differs")

    return Op("decompose --merge" if merge else "decompose", argv, check, [outfile])


def verify_op(decomp: str, dilation=False, circuits: str | None = None) -> Op:
    argv = ["verify", "--decomp", decomp]
    kind = "verify"
    if dilation:
        argv.append("--dilation")
        kind += " --dilation"
    if circuits:
        argv += ["--circuits", circuits]
        kind += " --circuits"

    def check(out: Outcome) -> None:
        _ok(out)
        _, terms = ref.load_terms(out.path(decomp))
        lines = out.stdout.strip().splitlines()
        passed = sum(" PASS: " in line for line in lines)
        require(passed == len(terms), f"{passed} of {len(terms)} terms passed")
        require(lines[-1] == f"all {len(terms)} terms verified", "summary line differs")

    return Op(kind, argv, check)


def circuit_op(factors: str, outfile: str) -> Op:
    qasm = outfile[: -len(".json")] + ".qasm"
    argv = ["circuit", "--term", factors, "--out", outfile, "--qasm"]

    def check(out: Outcome) -> None:
        _ok(out)
        width, image, gates = ref.circuit_permutation(out.path(outfile))
        require(width == len(factors) + 1, f"circuit width {width}")
        require(gates <= len(factors) + 2, f"{gates} gates > n + 2")
        expected = ref.completion_unitary(factors)
        require(np.array_equal(ref.permutation_matrix(image), expected), "unitary is not [[T, C], [C, T]]")
        text = _read(out.path(qasm))
        require(text.startswith("OPENQASM 2.0;") and f"qreg q[{width}];" in text, "bad QASM header")
        require(out.stdout.startswith(f"qubits: {width}  "), "summary line differs")

    return Op("circuit --qasm", argv, check, [outfile, qasm])


def block_encode_op(decomp: str) -> Op:
    outdir = "{o}/be"
    argv = ["block-encode", "--decomp", decomp, "--outdir", outdir]

    def check(out: Outcome) -> None:
        _ok(out)
        d = out.path(outdir)
        n, terms = ref.load_terms(out.path(decomp))
        with open(f"{d}/verification.json", encoding="ascii") as fh:
            report = json.load(fh)
        with open(f"{d}/resources.json", encoding="ascii") as fh:
            resources = json.load(fh)
        lam = sum(abs(c) for c, _ in terms)
        qubits = max(0, (len(terms) - 1).bit_length()) + 1 + n
        require(report["frobenius_error"] <= ref.BLOCK_TOL, f"frobenius_error {report['frobenius_error']:.3e}")
        require(abs(report["lambda"] - lam) <= ref.MATCH_RTOL * lam, f"lambda {report['lambda']} != {lam}")
        require(report["qubits"] == qubits, f"qubits {report['qubits']} != {qubits}")
        require(resources["L"] == len(terms), "resources.json L differs")
        with open(f"{d}/block_encoding.json", encoding="ascii") as fh:
            require(json.load(fh)["n_qubits"] == qubits, "block_encoding.json width differs")

    files = [f"{outdir}/{name}.json" for name in ("verification", "resources", "block_encoding")]
    return Op("block-encode", argv, check, files)


def expval_op(decomp: str, n: int, m=False, shots: int | None = None, seed: int = 0) -> Op:
    oracle = {name: f"{{i}}/{name}{n}.json" for name in "uvm"}
    argv = ["expval", "--decomp", decomp, "--u", oracle["u"], "--v", oracle["v"]]
    kind = "expval"
    if m:
        argv += ["--m", oracle["m"]]
        kind += " --m"
    if shots is not None:
        argv += ["--shots", str(shots), "--seed", str(seed)]
        kind += " --shots"
    memo: dict = {}

    def check(out: Outcome) -> None:
        _ok(out)
        if not memo:
            nq, terms = ref.load_terms(out.path(decomp))
            mats = {}
            for name in "uvm":
                with open(out.path(oracle[name]), encoding="ascii") as fh:
                    pairs = np.array(json.load(fh)["matrix"])
                mats[name] = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(1 << nq, 1 << nq)
            values, total = ref.expval_reference(nq, terms, mats["u"], mats["v"], mats["m"] if m else None)
            lam = sum(abs(c) for c, _ in terms)
            weights = [ci.conjugate() * cj for ci, _ in terms for cj, _ in terms] if m else [c for c, _ in terms]
            memo.update(values=values, total=total, weights=weights, scale=max(1.0, lam**2 if m else lam))
        result = json.loads(out.stdout)
        got = [complex(p["re"], p["im"]) for p in result["per_term"]]
        require(len(got) == len(memo["values"]), f"{len(got)} values, expected {len(memo['values'])}")
        total = complex(result["re"], result["im"])
        if shots is None:
            err = max(abs(a - b) for a, b in zip(got, memo["values"]))
            require(err <= ref.EXPVAL_TOL, f"term value off by {err:.3e}")
            err = abs(total - memo["total"])
            require(err <= ref.EXPVAL_TOL * memo["scale"], f"total off by {err:.3e}")
        else:
            bound = ref.SHOT_SIGMAS / np.sqrt(shots)
            err = max(max(abs(a.real - b.real), abs(a.imag - b.imag)) for a, b in zip(got, memo["values"]))
            require(err <= bound, f"shot estimate off by {err:.3e} > {bound:.3e}")
            weighted = sum((w * g for w, g in zip(memo["weights"], got)), 0j)
            require(abs(total - weighted) <= ref.EXPVAL_TOL * memo["scale"], "total is not the weighted sum")

    return Op(kind, argv, check)


def compare_op(family: str, points: list[tuple[int, int | None]] | None = None) -> Op:
    from_default = points is None
    if from_default:
        points = [(s, None) for s in (4, 5, 6, 7)] if family == "poisson" else [(2, 2), (2, 3), (3, 3), (3, 4)]
    argv = ["compare", "--family", family]
    if not from_default:
        grid = [str(1 << s) if t is None else f"{1 << s}({1 << t})" for s, t in points]
        argv += ["--range", ",".join(grid)]

    def check(out: Outcome) -> None:
        _ok(out)
        rows = [line.split(",") for line in out.stdout.strip().splitlines()]
        require(rows[0] == ["family", "n_x", "n_t", "sigma_terms", "pauli_terms"], "bad CSV header")
        require(len(rows) == len(points) + 1, f"{len(rows) - 1} rows for {len(points)} grid points")
        for row, (s, t) in zip(rows[1:], points):
            key = (family, s, t, "{}")
            predicted = ref.predicted_terms(family, s, t)
            sigma = int(row[3])
            require(row[:3] == [family, str(1 << s), "" if t is None else str(1 << t)], f"grid row {row}")
            require(sigma <= predicted and (family != "poisson" or sigma == predicted), f"sigma terms {sigma}")
            require(int(row[4]) == _pauli_reference(*key), f"pauli terms {row[4]} != {_pauli_reference(*key)}")

    return Op("compare", argv, check)


# --------------------------------------------------------------------------
# Seeded inputs written by the benchmark itself


def write_random_mtx(rng, path: str, n: int, nnz: int) -> None:
    """Random complex sparse matrix with a fixed number of nonzeros.  Its
    values are all distinct, so no projector pair can merge."""
    dim = 1 << n
    lin = np.sort(rng.choice(dim * dim, size=nnz, replace=False))
    vals = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    ref.write_mtx(path, n, lin // dim, lin % dim, vals)


def random_terms(rng, n: int, count: int) -> list[tuple[complex, str]]:
    """Distinct random factor strings of a fixed make-up: n // 4 identity
    factors, n // 3 ladder factors (s+ or s-) and projectors elsewhere, so
    every seed yields circuits with the same gate counts and arities."""
    identities, ladders = n // 4, n // 3
    seen: dict[str, complex] = {}
    while len(seen) < count:
        slots = rng.permutation(n)
        factors = rng.choice(list("AB"), size=n)
        factors[slots[:ladders]] = rng.choice(list("PM"), size=ladders)
        factors[slots[ladders : ladders + identities]] = "I"
        seen.setdefault("".join(factors), complex(rng.standard_normal(), rng.standard_normal()))
    return [(c, f) for f, c in sorted(seen.items())]


def write_terms(path: str, n: int, terms) -> None:
    payload = {"n_qubits": n, "terms": [{"re": c.real, "im": c.imag, "factors": f} for c, f in terms]}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)


def heat_params(rng) -> dict:
    """Non-integer diffusivity and Robin weights."""
    return {
        "alpha": round(float(rng.uniform(0.3, 1.7)), 6),
        "w1": round(float(rng.uniform(0.1, 0.9)), 6),
        "w2": round(float(rng.uniform(0.5, 1.5)), 6),
    }


# --------------------------------------------------------------------------
# Workloads


# Each workload runs 15 or 25 ops per cycle, so that p90 over all executions
# falls mid-way through one op's band of samples rather than on the edge
# between two ops.


def pde_roundtrip(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    # Systems whose matrix.mtx is also decomposed, then larger ones that
    # are only generated (decomposing them would dominate the cycle).
    decomposed = [
        ("poisson", 11, None, {}),
        ("heat", 5, 4, heat_params(rng)),
        ("heat", 6, 3, {}),
        ("wave", 4, 4, {"wave_speed": round(float(rng.uniform(0.5, 1.5)), 6)}),
    ]
    generated = [
        ("poisson", 12, None, {}),
        ("poisson", 13, None, {}),
        ("heat", 7, 5, heat_params(rng)),
        ("heat", 8, 4, heat_params(rng)),
        ("heat", 6, 5, {}),
        ("wave", 6, 4, {}),
        ("wave", 5, 5, {}),
    ]
    randoms = [("r8", 8, 2048), ("r9", 9, 4096), ("r10", 10, 4096)]

    def write_inputs(rng, i):
        for name, n, nnz in randoms:
            write_random_mtx(rng, f"{i}/{name}.mtx", n, nnz)

    setup_ops = [generate_op(*spec, outdir=f"{{i}}/sys{k}") for k, spec in enumerate(decomposed)]
    ops = [generate_op(*spec) for spec in decomposed + generated]
    for infile in [f"{{i}}/sys{k}/matrix.mtx" for k in range(len(decomposed))] + [f"{{i}}/{r[0]}.mtx" for r in randoms]:
        ops += [decompose_op(infile, merge=False), decompose_op(infile, merge=True)]
    return Workload("pde-roundtrip", write_inputs, setup_ops, ops)


def circuit_verify(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    # 15 of the 25 ops are single-term circuit builds, so the median lies
    # inside their band rather than on the cheapest verify op.
    circuit_terms = random_terms(rng, 7, 15)
    # Random decompositions: name -> (system qubits, terms).  be5 and be6
    # block-encode on 10 and 11 qubits.
    randoms = {"rv9": (9, 4), "be5": (5, 16), "be6": (6, 16)}
    pde = [("heat", 3, 3, heat_params(rng)), ("wave", 3, 3, {}), ("poisson", 4, None, {})]

    def write_inputs(rng, i):
        for name, (n, count) in randoms.items():
            write_terms(f"{i}/{name}.json", n, random_terms(rng, n, count))
        write_terms(f"{i}/circ.json", 7, circuit_terms)
        os.makedirs(f"{i}/circ", exist_ok=True)

    setup_ops = [generate_op(*spec, outdir=f"{{i}}/sys{k}") for k, spec in enumerate(pde)]
    setup_ops += [circuit_op(f, f"{{i}}/circ/term_{k:03d}.json") for k, (_, f) in enumerate(circuit_terms)]
    decomps = ["{i}/sys0/decomposition.json", "{i}/sys1/decomposition.json", "{i}/rv9.json"]
    ops = [verify_op(d, dilation) for d in decomps for dilation in (False, True)]
    ops += [circuit_op(f, f"{{o}}/term_{k:03d}.json") for k, (_, f) in enumerate(circuit_terms)]
    ops.append(verify_op("{i}/circ.json", circuits="{i}/circ"))
    ops += [block_encode_op(d) for d in ("{i}/sys2/decomposition.json", "{i}/be5.json", "{i}/be6.json")]
    return Workload("circuit-verify", write_inputs, setup_ops, ops)


def hadamard_expval(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    pde = [
        ("heat", 2, 2, heat_params(rng)),
        ("wave", 2, 2, {}),
        ("heat", 3, 2, heat_params(rng)),
        ("heat", 3, 3, heat_params(rng)),
        ("wave", 3, 3, {}),
        ("heat", 4, 3, heat_params(rng)),
        ("wave", 3, 2, {}),
        ("wave", 2, 3, {}),
        ("heat", 4, 2, heat_params(rng)),
    ]
    widths = sorted({_n_qubits(f, s, t) for f, s, t, _ in pde})
    shot_seed = int(rng.integers(1 << 30))

    def write_inputs(rng, i):
        for n in widths:
            for name in "uvm":
                ref.write_oracle(f"{i}/{name}{n}.json", ref.haar_unitary(rng, n), name.upper())

    setup_ops = [generate_op(*spec, outdir=f"{{i}}/sys{k}") for k, spec in enumerate(pde)]
    decomp = {k: (f"{{i}}/sys{k}/decomposition.json", _n_qubits(*spec[:3])) for k, spec in enumerate(pde)}
    ops = [expval_op(*decomp[k]) for k in range(len(pde))]
    ops += [expval_op(*decomp[k], shots=4000, seed=shot_seed + k) for k in (0, 2, 3, 6)]
    ops += [expval_op(*decomp[k], m=True) for k in (0, 1)]
    return Workload("hadamard-expval", write_inputs, setup_ops, ops)


def pauli_compare(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    # The default wave grid reaches 8 qubits and is the one heavy op; the
    # rest splice 4 to 7 qubits.
    ops = [compare_op(family) for family in ("poisson", "heat", "wave")]
    ops += [compare_op("poisson", [(s, None)]) for s in (4, 5, 6, 7)]
    ops += [compare_op("heat", [p]) for p in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (3, 4))]
    ops += [compare_op("wave", [p]) for p in ((2, 2), (2, 3), (3, 2), (3, 3))]
    ops += [generate_op("heat", s, t, heat_params(rng), pauli=True) for s, t in ((2, 2), (3, 2), (3, 3))]
    speeds = [{"wave_speed": round(float(rng.uniform(0.5, 1.5)), 6)} for _ in range(2)]
    ops += [generate_op("wave", s, t, p, pauli=True) for (s, t), p in zip(((2, 2), (3, 2)), speeds)]
    ops += [generate_op("poisson", s, pauli=True) for s in (5, 6, 7)]
    return Workload("pauli-compare", lambda rng, i: None, [], ops)


WORKLOADS = {
    "pde-roundtrip": pde_roundtrip,
    "circuit-verify": circuit_verify,
    "hadamard-expval": hadamard_expval,
    "pauli-compare": pauli_compare,
}
