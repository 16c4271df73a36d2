"""Run every workload once, one after another, and print all metrics.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own fresh ``bench/run.py`` process, never two at
once.  The table gives every end-to-end metric by name with its unit and
sample count, plus the error rate (failed ops over attempted ops).  With
``--trace`` it also runs each workload traced and prints the per-layer
metrics that are not zero, and the tracing overhead.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {workload} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    print(f"{'workload':<16} {'metric':<14} {'value':>12} {'unit':<9} samples")
    for name in WORKLOADS:
        detail, result = run(name, args.seed, args.seconds, 0)
        timed = f"{detail['samples']} ops timed"
        samples = {"ops_per_s": timed, "op_p50_s": timed, "op_p90_s": f"{timed}, {detail['beyond_p90']} beyond",
                   "setup_s": f"median of {len(detail['setup_process_s'])} cold set-ups",
                   "peak_rss_mb": "1 process", "error_rate": f"{detail['attempted']} ops"}
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("error_rate", detail["error_rate"], "fraction"))
        for metric, value, unit in rows:
            print(f"{name:<16} {metric:<14} {value:>12.5g} {unit:<9} {samples.get(metric, '')}")
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name:<16} {verdict}: {result['attempted']} ops, {result['failed']} failed, "
              f"negative controls {detail['negative_controls']}, blas threads {detail['env']['blas_threads']}")
    if args.trace:
        for name in WORKLOADS:
            detail, result = run(name, args.seed, args.seconds, 1)
            print(f"\n{name}: traced {detail['traced_ops']} ops, overhead {detail['trace_overhead_frac']:+.1%}")
            for metric, m in result["metrics"].items():
                if m["value"]:
                    print(f"  {metric:<50} {m['value']:>12.5g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
