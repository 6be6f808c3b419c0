"""geograph training benchmark: one workload per invocation.

    python3 geobench/run.py --workload gcn-deep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is used from ``src``
through PYTHONPATH, never installed. This process writes the workload's corpus
from ``--seed`` and starts the measured processes, so neither the generator
nor this process counts towards their time or memory. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs one untraced round
for reference, then a traced run, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is the result as JSON.
The full record, with the machine it ran on, goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
from corpus import write_corpus
from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Set-up is measured in separate processes, at least SETUP_MIN_SAMPLES of
# them and until SETUP_MIN_SECONDS have passed; the measured run adds one more
# sample and setup_s is their median.
SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_SAMPLES = 9
# Every worker is stopped once the whole run has taken this long.
RUN_DEADLINE_S = 170.0
STARTED = time.perf_counter()
E2E_UNITS = {"setup_s": "s", "train_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"geobench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(work: Path, tag: str, argv: list[str]) -> dict:
    """Start one worker process, wait for it, and return what it wrote."""
    out = work / f"{tag}.json"
    threads = str(blas_thread_count())
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv, "--out", str(out),
             "--spawned", repr(spawned)],
            env=env, stdout=sys.stderr, timeout=max(1.0, RUN_DEADLINE_S - (spawned - STARTED)),
            check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"worker {tag} did not finish within the run's {RUN_DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        fail(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(out.read_text())


def blas_thread_count() -> int:
    """One process drives the load, with no more BLAS threads than cores (at most 2)."""
    return max(1, min(2, os.cpu_count() or 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/geograph/__init__.py").is_file():
        fail("run from the root of a geograph checkout (src/geograph not found)")
    try:
        selftest.run()
    except RuntimeError as exc:
        fail(f"correctness-check self-test failed: {exc}")

    w = WORKLOADS[args.workload]
    work = Path(".bench_work") / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        users, edges = write_corpus(w.corpus, args.seed, work)
        common = ["--workload", w.name, "--seed", str(args.seed), "--users", str(users),
                  "--edges", str(edges)]
        if args.trace:
            reference = spawn(work, "reference", common)
            result = spawn(work, "traced", [*common, "--trace", "--seconds", str(args.seconds)])
            layers = result["layers"]
            layers["trace.overhead_s"] = result["total_s"] - reference["total_s"]
            metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, _) in LAYER_METRICS.items()}
        else:
            setups, began = [], time.perf_counter()
            while len(setups) < SETUP_MAX_SAMPLES and (
                    len(setups) < SETUP_MIN_SAMPLES or time.perf_counter() - began < SETUP_MIN_SECONDS):
                setups.append(spawn(work, f"setup{len(setups)}", [*common, "--setup-only"])["setup_s"])
            result = spawn(work, "measured", [*common, "--seconds", str(args.seconds)])
            result["setup_samples"] = setups + [result["setup_s"]]
            result["setup_s"] = statistics.median(result["setup_samples"])
            result["total_s"] = result["setup_s"] + result["round_s"]
            metrics = {k: {"value": result[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = result["check_errors"]
    summary = {"correct": not errors, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    record = Path(".bench_results") / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({**result, "summary": summary}, indent=1, default=str))

    print(f"workload {w.name}  seed {args.seed}  rounds {result['rounds']}  "
          f"machine {json.dumps(result['machine'], sort_keys=True)}")
    for message in result["failures"] + errors:
        print(f"  FAIL {message}")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
