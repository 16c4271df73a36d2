"""sigmalcu benchmark: one workload, one fresh process, one closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
there.  An op is one ``sigmalcu.cli.main(argv)`` call.  Ops run one at a
time in cycles: a cycle is every op of the workload once, in an order
drawn from the seed and kept for the whole run.  Whole cycles repeat until
the timed phase has lasted ``--seconds`` and holds at least ``MIN_OPS``
ops.  After each cycle the timer stops and every op's exit code, stdout
and files are checked against the benchmark's own references
(``oracles.py``); the first cycle also runs a negative control per op
kind, which corrupts an output and requires its check to reject it.

``--trace 0`` reports the end-to-end metrics over every timed execution.
Its ``setup_s`` is the median of ``SETUP_PROCESSES`` cold set-ups: this
process's own, and one each in fresh processes started one at a time
(``--setup-only``) before the timed phase.  ``--trace 1`` alternates
untraced cycles with cycles under the outside-in tracer (``tracer.py``)
and reports the per-layer metrics and the tracing overhead.

The last stdout line is the result object; the line before it holds the
details: environment, seed, sample counts, error rate, failures, and the
median latency of each op.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import oracles
import tracer as tracing
from oracles import CheckFailed
from workloads import WORKLOADS, Op, Outcome

ROOT = Path.cwd()
# Cold set-ups per run, each in a fresh process; setup_s is their median.
SETUP_PROCESSES = 3
# A run times at least this many ops, so that ten samples lie beyond p90.
MIN_OPS = 100
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError)


def import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        from sigmalcu import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import sigmalcu from {src}: {exc}")
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: sigmalcu was imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    def __init__(self, cli, workload, inputs: str, work: Path, tracer: tracing.Tracer):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.tracer = tracer
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.by_op: dict[int, list[float]] = {}
        self.failed = 0
        self.failures: list[str] = []
        self.cycles = 0
        self.cycle_s: list[float] = []
        self.controls: dict[str, bool] = {}
        # Outcomes byte-identical to one already checked for the same op
        # pass without recomputing the references.
        self.passed: dict[int, set] = {}

    def run_op(self, op: Op, o: str) -> tuple[float, Outcome]:
        os.makedirs(o, exist_ok=True)
        argv = op.resolve(self.inputs, o)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a traceback escaping the CLI is a failed op
            rc, out = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        return elapsed, Outcome(rc, out.getvalue(), self.inputs, o, err.getvalue())

    def check(self, key: int, op: Op, out: Outcome) -> bool:
        try:
            if out.rc != 0:
                raise CheckFailed(f"exit code {out.rc}: {(out.stderr or out.stdout).strip()[-300:]}")
            files = []
            for template in op.outputs:
                with open(out.path(template), "rb") as fh:
                    files.append(fh.read())
            digest = (out.rc, out.stdout, *files)
            if digest in self.passed.setdefault(key, set()):
                return True
            op.check(out)
        except CHECK_ERRORS as exc:
            self.failures.append(f"{' '.join(op.resolve(out.i, out.o))}: {type(exc).__name__}: {exc}")
            return False
        self.passed[key].add(digest)
        return True

    def setup(self, seed: int) -> float:
        """Write the seeded inputs, make the program-made inputs and run one
        warm-up op per kind.  Returns the seconds from process start to the
        end of set-up; its checks run after that and are not counted."""
        warm: dict[str, int] = {}
        for index, op in enumerate(self.workload.ops):
            warm.setdefault(op.kind, index)
        self.inputs = str(self.work / "inputs")
        os.makedirs(self.inputs)
        self.workload.write_inputs(np.random.default_rng([seed, 0]), self.inputs)
        made = [(-1 - k, op, self.run_op(op, self.inputs)[1]) for k, op in enumerate(self.workload.setup_ops)]
        for index in warm.values():
            op = self.workload.ops[index]
            made.append((index, op, self.run_op(op, f"{self.inputs}/warm{index}")[1]))
        setup_s = time.perf_counter() - T_START
        for key, op, out in made:
            if not self.check(key, op, out):
                sys.exit("error: set-up failed: " + self.failures[-1])
        return setup_s

    def cycles_until(self, order: list[int], seconds: float, min_ops: int) -> tuple[float, int]:
        """Whole cycles until both limits are reached; returns the timed
        wall seconds and the number of ops timed."""
        timed, ops = 0.0, 0
        while timed < seconds or ops < min_ops:
            cycle = self.work / f"cycle{self.cycles}"
            outcomes = []
            start = time.perf_counter()
            for index in order:
                op = self.workload.ops[index]
                self.tracer.op = len(self.latencies)
                elapsed, out = self.run_op(op, str(cycle / f"op{index}"))
                self.latencies.append(elapsed)
                self.by_kind.setdefault(op.kind, []).append(elapsed)
                self.by_op.setdefault(index, []).append(elapsed)
                outcomes.append((index, out))
            self.cycle_s.append(time.perf_counter() - start)
            timed += self.cycle_s[-1]
            ops += len(order)
            self.failed += sum(not self.check(index, self.workload.ops[index], out) for index, out in outcomes)
            if self.cycles == 0:
                self.negative_controls(outcomes)
            shutil.rmtree(cycle)
            self.cycles += 1
        return timed, ops

    def negative_controls(self, outcomes) -> None:
        """Corrupt one output per op kind in place and require its check to
        reject it."""
        for index, out in outcomes:
            op = self.workload.ops[index]
            if op.kind in self.controls or out.rc != 0:
                continue
            if op.outputs:
                path = out.path(op.outputs[0])
                with open(path, "r", encoding="ascii") as fh:
                    text = fh.read()
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(oracles.corrupt(text))
            else:
                out = Outcome(out.rc, oracles.corrupt(out.stdout), out.i, out.o)
            try:
                op.check(out)
                self.controls[op.kind] = False
            except CHECK_ERRORS:
                self.controls[op.kind] = True


def environment(seed: int) -> dict:
    blas, threads = "unknown", None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cold_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh process; returns its setup_s."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up process exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(cli, workload, args, work: Path, import_s: float) -> dict:
    tracer = tracing.Tracer()
    runner = Runner(cli, workload, "", work, tracer)
    setup_times = [runner.setup(args.seed)]
    order = [int(k) for k in np.random.default_rng([args.seed, 9]).permutation(len(workload.ops))]
    detail = {"workload": workload.name, "env": environment(args.seed), "import_s": import_s,
              "cycle_ops": len(order)}
    if args.trace:
        # Untraced and traced cycles alternate, so both see the same warm-up
        # history; the ratio of their median cycle times is the overhead.
        patches = tracer.patches()
        cycle_s: dict[bool, list[float]] = {False: [], True: []}
        timed = 0.0
        while timed < args.seconds or len(cycle_s[True]) * len(order) < MIN_OPS // 2:
            traced = len(cycle_s[True]) < len(cycle_s[False])
            if traced:
                tracer.enable(patches)
            elapsed, _ = runner.cycles_until(order, 0.0, 1)
            tracer.disable(patches)
            cycle_s[traced].append(elapsed)
            timed += elapsed
        traced_ops = len(cycle_s[True]) * len(order)
        agg = tracer.reduce()
        layer = tracing.layer_metrics(agg, traced_ops)
        untraced_op_s = statistics.median(cycle_s[False]) / len(order)
        traced_op_s = statistics.median(cycle_s[True]) / len(order)
        layer["trace.untraced_op_s"] = (untraced_op_s, "s/op")
        layer["trace.traced_op_s"] = (traced_op_s, "s/op")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        missing = [n for n in tracing.EXPECTED_CALLS[workload.name] if not agg["calls"].get(n)]
        detail.update(trace_overhead_frac=traced_op_s / untraced_op_s - 1.0, traced_cycle_s=cycle_s[True],
                      spans=len(tracer.spans), traced_bindings=len(patches), traced_ops=traced_ops,
                      calls=dict(sorted(agg["calls"].items())))
        if missing:
            print(json.dumps(detail))
            sys.exit(f"error: trace wiring check: no calls recorded for {', '.join(missing)}")
    else:
        setup_times += [cold_setup(workload.name, args.seed) for _ in range(SETUP_PROCESSES - 1)]
        timed, ops = runner.cycles_until(order, args.seconds, MIN_OPS)
        lat = runner.latencies
        p90 = statistics.quantiles(lat, n=10)[8]
        metrics = {
            "ops_per_s": {"value": ops / timed, "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "op_p90_s": {"value": p90, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        detail.update(timed_s=timed, samples=len(lat), beyond_p90=sum(x > p90 for x in lat),
                      setup_process_s=setup_times)

    attempted = len(runner.latencies)
    detail.update(
        attempted=attempted,
        failed=runner.failed,
        error_rate=runner.failed / attempted,
        cycles=runner.cycles,
        cycle_s=runner.cycle_s,
        negative_controls=runner.controls,
        failures=runner.failures[:10],
        kind_p50_s={k: statistics.median(v) for k, v in sorted(runner.by_kind.items())},
        op_p50_s={" ".join(workload.ops[k].argv): statistics.median(v) for k, v in sorted(runner.by_op.items())},
    )
    correct = runner.failed == 0 and bool(runner.controls) and all(runner.controls.values())
    print(json.dumps(detail))
    return {"correct": correct, "attempted": attempted, "failed": runner.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli = import_program()
    import_s = time.perf_counter() - T_START
    workload = WORKLOADS[args.workload](args.seed)
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            result = {"setup_s": Runner(cli, workload, "", work, tracing.Tracer()).setup(args.seed)}
        else:
            result = measure(cli, workload, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
