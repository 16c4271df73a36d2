"""Outside-in tracing of the nine sigmalcu modules.

``Tracer.patches`` wraps every public module-level function of each
module, plus the ``SparseMatrix`` constructors and ``to_dense``, in a
wrapper that records a span.  It lists both the defining binding and every
name a sibling module imported (``cli.circuit_to_matrix``,
``expectation.run``, ``pde.reconstruct``, ...), so nested calls are caught
too; ``enable`` and ``disable`` swap the wrappers in and out.

Spans live in memory as ``[name, start, end, parent, op, counts]`` and are
reduced once the run ends.  A span's self time is its duration minus the
time covered by its children; the program is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("matrices", "sigma", "pde", "pauli", "circuits", "simulate", "expectation", "blockenc", "cli")
CLI_COMMANDS = ("decompose", "generate", "compare", "verify", "circuit", "expval", "block_encode")


def _counts(name: str, args, result) -> dict | None:
    """Work counts recorded at the span boundary, from argument and result
    sizes.  Byte counts are computed, not measured."""
    if name == "matrices.from_entries":
        return {"nnz_out": result.nnz}
    if name == "matrices.to_dense":
        return {"bytes": 16 * result.size}
    if name == "matrices.load_matrix_market":
        return {"file_bytes": os.path.getsize(args[0])}
    if name == "matrices.save_matrix_market":
        return {"file_bytes": os.path.getsize(args[1])}
    if name == "sigma.decompose_numerical":
        return {"terms_out": len(result)}
    if name == "sigma.reconstruct":
        return {"nnz_out": result.nnz}
    if name == "sigma.merge_terms":
        return {"terms_in": len(args[0]), "terms_out": len(result)}
    if name in ("pde.poisson_1d", "pde.heat_1d", "pde.wave_1d"):
        return {"terms_out": len(result.decomposition)}
    if name == "pauli.decompose_pauli":
        m = args[0]
        return {"entries": m.nnz, "madds": m.nnz * 4**m.n_qubits, "terms_out": len(result), "strings": 4**m.n_qubits}
    if name.startswith("circuits.") and name.split(".")[1] in (
        "build_ul_circuit", "build_dilation_circuit", "controlled", "embedded", "row_swap_circuit", "load_circuit",
    ):
        return {"gates_built": len(result.gates)}
    if name == "simulate.circuit_to_matrix":
        g = len(args[0].gates)
        return {"gates": g, "bytes": g * 2 * 16 * 4 ** args[0].n_qubits}
    if name == "simulate.run":
        g = len(args[0].gates)
        return {"gates": g, "bytes": g * 2 * 16 * 2 ** args[0].n_qubits}
    if name == "blockenc.verify_block_encoding":
        be = args[0]
        return {"useful_cols": 2**be.system_qubits, "cols": 2**be.n_qubits}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _counts(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to trace:
        the public functions where they are defined and every module that
        imported them by name."""
        modules = {layer: importlib.import_module(f"sigmalcu.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        out = []
        for mod in [*modules.values(), importlib.import_module("sigmalcu")]:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    out.append((mod, attr, obj, wrapped[obj]))
        matrix_cls = modules["matrices"].SparseMatrix
        for attr in ("from_entries", "from_dense"):
            original = vars(matrix_cls)[attr]
            out.append((matrix_cls, attr, original, classmethod(self._wrap(f"matrices.{attr}", original.__func__))))
        out.append((matrix_cls, "to_dense", matrix_cls.to_dense, self._wrap("matrices.to_dense", matrix_cls.to_dense)))
        return out

    def enable(self, patches) -> None:
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)

    def disable(self, patches) -> None:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)

    def reduce(self) -> dict:
        """Per-name calls, self time and summed counts, plus the number of
        simulator calls made under an expectation span."""
        child_time = [0.0] * len(self.spans)
        in_expectation = [False] * len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        sim_under_expectation = 0
        for index, (name, start, end, parent, _, extra) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_expectation[index] = in_expectation[parent] or self.spans[parent][0].startswith("expectation.")
            if in_expectation[index] and name in ("simulate.run", "simulate.circuit_to_matrix"):
                sim_under_expectation += 1
            calls[name] += 1
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] += value
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            self_s[name] += end - start - child_time[index]
        return {"calls": calls, "self_s": self_s, "counts": counts, "sim_under_expectation": sim_under_expectation}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as per-op averages over the traced ops, and
    ratios over the whole traced run."""
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]

    def per_op(value: float) -> float:
        return value / ops

    out: dict[str, tuple[float, str]] = {}

    def self_time(name: str) -> None:
        out[f"{name}.self_s"] = (per_op(self_s.get(name, 0.0)), "s/op")

    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (per_op(total), "s/op")

    for fn in ("load_matrix_market", "save_matrix_market", "from_entries", "to_dense"):
        self_time(f"matrices.{fn}")
    out["matrices.from_entries.nnz_out"] = (per_op(counts["matrices.from_entries.nnz_out"]), "1/op")
    out["matrices.to_dense.bytes_computed"] = (per_op(counts["matrices.to_dense.bytes"]), "B/op")
    file_bytes = counts["matrices.load_matrix_market.file_bytes"] + counts["matrices.save_matrix_market.file_bytes"]
    out["matrices.file_bytes"] = (per_op(file_bytes), "B/op")

    for fn in ("decompose_numerical", "reconstruct", "term_matrix", "merge_terms", "save_decomposition",
               "load_decomposition", "completion_matrix"):
        self_time(f"sigma.{fn}")
    out["sigma.decompose_numerical.terms_out"] = (per_op(counts["sigma.decompose_numerical.terms_out"]), "1/op")
    out["sigma.reconstruct.nnz_out"] = (per_op(counts["sigma.reconstruct.nnz_out"]), "1/op")
    out["sigma.term_matrix.calls"] = (per_op(calls.get("sigma.term_matrix", 0)), "1/op")
    out["sigma.merge_terms.kept_frac"] = (
        _ratio(counts["sigma.merge_terms.terms_out"], counts["sigma.merge_terms.terms_in"]), "fraction")

    out["pde.terms_out"] = (
        per_op(sum(counts[f"pde.{fn}.terms_out"] for fn in ("poisson_1d", "heat_1d", "wave_1d"))), "1/op")

    self_time("pauli.decompose_pauli")
    out["pauli.decompose_pauli.entries_spliced"] = (per_op(counts["pauli.decompose_pauli.entries"]), "1/op")
    out["pauli.decompose_pauli.madds_computed"] = (per_op(counts["pauli.decompose_pauli.madds"]), "1/op")
    out["pauli.decompose_pauli.kept_frac"] = (
        _ratio(counts["pauli.decompose_pauli.terms_out"], counts["pauli.decompose_pauli.strings"]), "fraction")

    for fn in ("build_ul_circuit", "build_dilation_circuit", "controlled", "embedded", "save_circuit",
               "load_circuit", "to_qasm"):
        self_time(f"circuits.{fn}")
    out["circuits.controlled.calls"] = (per_op(calls.get("circuits.controlled", 0)), "1/op")
    out["circuits.gates_built"] = (
        per_op(sum(v for k, v in counts.items() if k.startswith("circuits.") and k.endswith(".gates_built"))), "1/op")

    for fn, width in (("circuit_to_matrix", 4), ("run", 2)):
        name = f"simulate.{fn}"
        self_time(name)
        out[f"{name}.gates_applied"] = (per_op(counts[f"{name}.gates"]), "1/op")
        out[f"{name}.bytes_computed"] = (per_op(counts[f"{name}.bytes"]), "B/op")
    out["simulate.circuit_to_matrix.calls"] = (per_op(calls.get("simulate.circuit_to_matrix", 0)), "1/op")
    # run() applies each gate through the public apply_gate, which is traced
    # on its own; circuit_to_matrix applies gates internally.
    self_time("simulate.apply_gate")
    out["simulate.apply_gate.calls"] = (per_op(calls.get("simulate.apply_gate", 0)), "1/op")
    self_time("simulate.ancilla_probs")

    values = sum(calls.get(f"expectation.{fn}", 0) for fn in ("expval_term", "expval_sandwich", "sample_expval"))
    for fn in ("expval_term", "expval_sandwich", "sample_expval"):
        self_time(f"expectation.{fn}")
    out["expectation.values_out"] = (per_op(values), "1/op")
    out["expectation.sim_calls_per_value"] = (_ratio(agg["sim_under_expectation"], values), "ratio")

    for fn in ("assemble", "verify_block_encoding", "resource_report"):
        self_time(f"blockenc.{fn}")
    out["blockenc.verify_block_encoding.useful_col_frac"] = (
        _ratio(counts["blockenc.verify_block_encoding.useful_cols"], counts["blockenc.verify_block_encoding.cols"]),
        "fraction")

    for command in CLI_COMMANDS:
        self_time(f"cli.cmd_{command}")
    self_time("cli.load_oracle")
    return out


# Functions each workload must reach; a missing rebinding would otherwise
# silently report a layer as idle.
EXPECTED_CALLS = {
    "pde-roundtrip": (
        "matrices.load_matrix_market", "matrices.save_matrix_market", "matrices.from_entries",
        "sigma.decompose_numerical", "sigma.reconstruct", "sigma.term_matrix", "sigma.merge_terms",
        "sigma.save_decomposition", "pde.poisson_1d", "pde.heat_1d", "pde.wave_1d",
        "cli.cmd_generate", "cli.cmd_decompose",
    ),
    "circuit-verify": (
        "matrices.to_dense", "sigma.load_decomposition", "sigma.completion_matrix", "sigma.term_matrix",
        "circuits.build_ul_circuit", "circuits.build_dilation_circuit", "circuits.controlled",
        "circuits.embedded", "circuits.save_circuit", "circuits.load_circuit", "circuits.to_qasm",
        "simulate.circuit_to_matrix", "blockenc.assemble", "blockenc.verify_block_encoding",
        "blockenc.resource_report", "cli.cmd_verify", "cli.cmd_circuit", "cli.cmd_block_encode",
    ),
    "hadamard-expval": (
        "sigma.load_decomposition", "circuits.build_ul_circuit", "circuits.controlled", "circuits.embedded",
        "simulate.run", "simulate.apply_gate", "simulate.ancilla_probs", "expectation.expval_term",
        "expectation.expval_sandwich", "expectation.sample_expval", "cli.cmd_expval", "cli.load_oracle",
    ),
    "pauli-compare": (
        "pauli.decompose_pauli", "pde.poisson_1d", "pde.heat_1d", "pde.wave_1d", "sigma.reconstruct",
        "cli.cmd_compare", "cli.cmd_generate",
    ),
}
