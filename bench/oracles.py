"""Reference computations and per-op output checks owned by the benchmark.

Nothing here imports sigmalcu: every check parses the files and stdout a
CLI op produced and compares them with plain numpy code, so a defect in
the layer under test cannot also hide in its own check.

A check raises ``CheckFailed`` with a one-line reason.  Matrices are kept
sparse as sorted (linear index, value) pairs; only registers of at most
``DENSE_LIMIT`` qubits are densified.
"""

from __future__ import annotations

import json
import re

import numpy as np

DENSE_LIMIT = 10
PAULI_TOL = 1e-12  # the program's default Pauli pruning tolerance
EXPVAL_TOL = 1e-10
BLOCK_TOL = 1e-10
MATCH_RTOL = 1e-12
# Shot estimates: each part of each term is a mean of +-1/0 outcomes with
# variance <= 1, so the estimate stays within SHOT_SIGMAS / sqrt(shots) of
# the exact value except with probability ~1e-9.  Fixed before any run.
SHOT_SIGMAS = 6.0


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Sparse matrices as (n_qubits, linear index array, value array)


def coo(n: int, rows, cols, vals) -> tuple[int, np.ndarray, np.ndarray]:
    """Sum duplicate coordinates and sort by linear index."""
    lin = np.asarray(rows, dtype=np.int64) * (1 << n) + np.asarray(cols, dtype=np.int64)
    uniq, inv = np.unique(lin, return_inverse=True)
    out = np.zeros(uniq.size, dtype=complex)
    np.add.at(out, inv, np.asarray(vals, dtype=complex))
    return n, uniq, out


def prune(m, tol: float = 1e-14):
    n, lin, vals = m
    keep = np.abs(vals) > tol
    return n, lin[keep], vals[keep]


def same_matrix(a, b, rtol: float = MATCH_RTOL, exact: bool = False) -> str | None:
    """None when equal (exactly, or to rtol of the largest magnitude),
    otherwise the reason."""
    a, b = prune(a), prune(b)
    if a[0] != b[0]:
        return f"register width {a[0]} != {b[0]}"
    if exact:
        if not np.array_equal(a[1], b[1]) or not np.array_equal(a[2], b[2]):
            return "entries differ"
        return None
    lin = np.union1d(a[1], b[1])
    va = np.zeros(lin.size, dtype=complex)
    vb = np.zeros(lin.size, dtype=complex)
    va[np.searchsorted(lin, a[1])] = a[2]
    vb[np.searchsorted(lin, b[1])] = b[2]
    scale = max(1.0, float(np.abs(va).max(initial=0.0)))
    err = float(np.abs(va - vb).max(initial=0.0))
    if err > rtol * scale:
        return f"entries differ by {err:.3e}"
    return None


def dense(m) -> np.ndarray:
    n, lin, vals = m
    require(n <= DENSE_LIMIT, f"reference densifies at most {DENSE_LIMIT} qubits")
    out = np.zeros(1 << (2 * n), dtype=complex)
    np.add.at(out, lin, vals)
    return out.reshape(1 << n, 1 << n)


def read_mtx(path: str):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        body = [ln for ln in fh if not ln.startswith("%")]
    require(len(header) == 5 and header[0] == "%%MatrixMarket", "bad Matrix Market header")
    field = header[3]
    dims = body[0].split()
    dim, nnz = int(dims[0]), int(dims[2])
    require(int(dims[1]) == dim and dim & (dim - 1) == 0, "matrix is not 2^n square")
    width = 4 if field == "complex" else 3
    data = np.array(" ".join(body[1:]).split(), dtype=float).reshape(-1, width)
    require(data.shape[0] == nnz, f"declared {nnz} entries, found {data.shape[0]}")
    vals = data[:, 2] + (1j * data[:, 3] if width == 4 else 0)
    n = dim.bit_length() - 1
    return coo(n, data[:, 0].astype(np.int64) - 1, data[:, 1].astype(np.int64) - 1, vals)


def write_mtx(path: str, n: int, rows, cols, vals) -> None:
    dim = 1 << n
    lines = ["%%MatrixMarket matrix coordinate complex general", f"{dim} {dim} {len(vals)}"]
    lines += [f"{r + 1} {c + 1} {float(v.real)!r} {float(v.imag)!r}" for r, c, v in zip(rows, cols, vals)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Sigma terms

# (row bit, col bit) of the single 1 in each non-identity factor.
_BITS = {"P": (0, 1), "M": (1, 0), "A": (0, 0), "B": (1, 1)}
_KRON = {
    "I": np.eye(2),
    "P": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "M": np.array([[0.0, 0.0], [1.0, 0.0]]),
    "A": np.array([[1.0, 0.0], [0.0, 0.0]]),
    "B": np.array([[0.0, 0.0], [0.0, 1.0]]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
}


def load_terms(path: str) -> tuple[int, list[tuple[complex, str]]]:
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    n = int(data["n_qubits"])
    terms = [(complex(t["re"], t["im"]), t["factors"]) for t in data["terms"]]
    for _, f in terms:
        require(len(f) == n and set(f) <= set("IPMAB"), f"bad factor string {f!r}")
    return n, terms


def term_entries(factors: str) -> tuple[np.ndarray, np.ndarray]:
    rows = np.zeros(1, dtype=np.int64)
    cols = np.zeros(1, dtype=np.int64)
    for ch in factors:
        if ch == "I":
            rows = np.concatenate([2 * rows, 2 * rows + 1])
            cols = np.concatenate([2 * cols, 2 * cols + 1])
        else:
            rb, cb = _BITS[ch]
            rows, cols = 2 * rows + rb, 2 * cols + cb
    return rows, cols


def reconstruct(n: int, terms: list[tuple[complex, str]]):
    """Sum of coefficient times term matrix, vectorized over terms with no
    identity factor (the bulk of numerical decompositions)."""
    plain = [(c, f) for c, f in terms if "I" not in f]
    rows, cols, vals = [], [], []
    if plain:
        codes = np.frombuffer("".join(f for _, f in plain).encode(), dtype=np.uint8).reshape(len(plain), n)
        rbit = np.isin(codes, (ord("M"), ord("B"))).astype(np.int64)
        cbit = np.isin(codes, (ord("P"), ord("B"))).astype(np.int64)
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        rows.append(rbit @ weights)
        cols.append(cbit @ weights)
        vals.append(np.array([c for c, _ in plain], dtype=complex))
    for c, f in terms:
        if "I" in f:
            r, k = term_entries(f)
            rows.append(r)
            cols.append(k)
            vals.append(np.full(r.size, c, dtype=complex))
    if not rows:
        return coo(n, [], [], [])
    return coo(n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def kron_all(mats) -> np.ndarray:
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def completion_unitary(factors: str) -> np.ndarray:
    """[[T, C], [C, T]] with C = completion(T) - T, ancilla most significant."""
    t = kron_all(_KRON[ch] for ch in factors)
    comp = kron_all(_KRON["X" if ch in "PM" else "I"] for ch in factors)
    return np.block([[t, comp - t], [comp - t, t]])


# --------------------------------------------------------------------------
# Finite-difference operators assembled directly from the PDE definitions


def _stencil(n_x: int, corner: float):
    """tridiag(1, -2, 1) plus ``corner`` at both diagonal corners."""
    i = np.arange(n_x)
    rows = np.concatenate([i, i[1:], i[:-1]])
    cols = np.concatenate([i, i[:-1], i[1:]])
    vals = np.concatenate([np.full(n_x, -2.0), np.ones(n_x - 1), np.ones(n_x - 1)])
    vals[0] += corner
    vals[n_x - 1] += corner
    return rows, cols, vals


def _time_stepped(t: int, block_rows, block_cols, block_vals, block_dim: int, scale: float):
    """Block (0,0) = I; blocks (k,k) = I + scale * G for k >= 1; blocks
    (k, k-1) = -I.  G is given in coordinate form."""
    n_t = 1 << t
    eye = np.arange(block_dim)
    rows, cols, vals = [eye], [eye], [np.ones(block_dim)]
    for k in range(1, n_t):
        off = k * block_dim
        rows += [off + eye, off + block_rows, off + eye]
        cols += [off + eye, off + block_cols, off - block_dim + eye]
        vals += [np.ones(block_dim), scale * block_vals, -np.ones(block_dim)]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def pde_matrix(family: str, s: int, t: int | None, params: dict):
    n_x = 1 << s
    if family == "poisson":
        r, c, v = _stencil(n_x, 0.0)
        return coo(s, r, c, -v)
    n_t = 1 << t
    length = params.get("length") or float(n_x)
    final = params.get("final_time") or float(n_t - 1)
    dx, dt = length / n_x, final / (n_t - 1)
    if family == "heat":
        w1, w2 = params.get("w1", 0.0), params.get("w2", 1.0)
        gamma = params.get("alpha", 1.0) * dt / dx**2
        r, c, v = _stencil(n_x, w2 / (w1 * dx + w2))
        return coo(t + s, *_time_stepped(t, r, c, v, n_x, -gamma))
    # Wave: G = [[0, I], [speed * D, 0]] on (displacement, velocity).
    speed = params.get("wave_speed", 1.0) ** 2 / dx**2
    r, c, v = _stencil(n_x, 1.0)
    eye = np.arange(n_x)
    gr = np.concatenate([n_x + r, eye])
    gc = np.concatenate([c, n_x + eye])
    gv = np.concatenate([speed * v, np.ones(n_x)])
    return coo(t + s + 1, *_time_stepped(t, gr, gc, gv, 2 * n_x, -dt))


def predicted_terms(family: str, s: int, t: int | None) -> int:
    if family == "poisson":
        return 2 * s + 1
    if family == "heat":
        return (t + 1) + (4 * s + 6)
    return (t + 1) + 2 * (2 * (s + 1) + 4)


_PAULI_AT_PAIR = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]], dtype=complex
)


def pauli_count(m) -> int:
    """Number of Pauli strings with |Tr(P^dag A)| / 2^n > PAULI_TOL, by a
    per-qubit 4x4 transform of the dense matrix."""
    n = m[0]
    a = dense(m).reshape((2,) * (2 * n))
    a = a.transpose([ax for p in range(n) for ax in (p, n + p)]).reshape((4,) * n)
    w = _PAULI_AT_PAIR.conj() / 2
    for axis in range(n):
        a = np.moveaxis(np.tensordot(w, a, axes=([1], [axis])), 0, axis)
    return int(np.count_nonzero(np.abs(a) > PAULI_TOL))


# --------------------------------------------------------------------------
# Circuits


def circuit_permutation(path: str) -> tuple[int, np.ndarray, int]:
    """Simulate an x/mcx-only circuit file on basis indices.  Returns the
    width, the image of every basis index, and the gate count."""
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    n = int(data["n_qubits"])
    idx = np.arange(1 << n, dtype=np.int64)
    for g in data["gates"]:
        if g["kind"] == "x":
            idx ^= 1 << (n - 1 - int(g["target"]))
            continue
        require(g["kind"] == "mcx", f"unexpected gate kind {g['kind']!r}")
        fire = np.ones(idx.size, dtype=bool)
        for ctl in g["controls"]:
            bit = (idx >> (n - 1 - int(ctl["q"]))) & 1
            fire &= bit == (1 if ctl["pol"] == "closed" else 0)
        idx = np.where(fire, idx ^ (1 << (n - 1 - int(g["target"]))), idx)
    return n, idx, len(data["gates"])


def permutation_matrix(image: np.ndarray) -> np.ndarray:
    out = np.zeros((image.size, image.size))
    out[image, np.arange(image.size)] = 1.0
    return out


# --------------------------------------------------------------------------
# Oracles and expectation values


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with the phases
    of R's diagonal folded back into Q."""
    dim = 1 << n
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def write_oracle(path: str, matrix: np.ndarray, label: str) -> None:
    n = matrix.shape[0].bit_length() - 1
    payload = {
        "n_qubits": n,
        "label": label,
        "matrix": [[float(v.real), float(v.imag)] for v in matrix.reshape(-1)],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)


def expval_reference(n: int, terms, u: np.ndarray, v: np.ndarray, m: np.ndarray | None):
    """Per-term (or per-pair) bare values and the weighted total, from
    dense U[:, 0] and V[:, 0]."""
    u0, v0 = u[:, 0], v[:, 0]
    mats = [dense(reconstruct(n, [(1.0, f)])).real for _, f in terms]
    if m is None:
        values = [complex(u0.conj() @ t @ v0) for t in mats]
        total = sum((c * x for (c, _), x in zip(terms, values)), 0j)
        return values, total
    left = [u0.conj() @ t.T for t in mats]
    right = [m @ (t @ v0) for t in mats]
    values = [complex(lv @ rv) for lv in left for rv in right]
    coeffs = [ci.conjugate() * cj for ci, _ in terms for cj, _ in terms]
    return values, sum((c * x for c, x in zip(coeffs, values)), 0j)


# --------------------------------------------------------------------------
# Negative control


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def corrupt(text: str) -> str:
    """Add one to the last number in the text."""
    last = None
    for last in _NUMBER.finditer(text):
        pass
    require(last is not None, "nothing to corrupt")
    token = last.group()
    bumped = str(int(token) + 1) if token.lstrip("-").isdigit() else repr(float(token) + 1.0)
    return text[: last.start()] + bumped + text[last.end() :]
