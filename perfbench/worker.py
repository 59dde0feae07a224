"""One benchmark process: set up a workload, then run ops until the
time share is spent.  Started by ``run.py``; prints one JSON line.

Measure mode times untraced ops.  Trace mode records spans for the
workload's first ``traced_ops`` ops, then alternates untraced and
traced runs of the same op to measure what tracing costs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"repro imported from {repro.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402


#: Matrix products per reference sample (about 0.1-0.15 s on a 2.1 GHz
#: Xeon vCPU).
REFERENCE_PRODUCTS = 400


def reference_s(matrix) -> float:
    """Host seconds for a fixed bulk-array kernel in the benchmark's own
    code.  Sampled between ops, it tracks drift in host speed, which
    later changes to the program cannot move."""
    start = time.perf_counter()
    for _ in range(REFERENCE_PRODUCTS):
        matrix @ matrix
    return time.perf_counter() - start


class Runner:
    """Runs and checks ops, keeping the tallies for the record."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def op(self, index: int, tracer=None):
        """Run op ``index`` once; returns its host seconds (None: failed)."""
        workload = self.workload
        op_input = workload.make_input(index)
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                output = workload.run(op_input)
                elapsed = time.perf_counter() - start
            else:
                with tracer.installed():
                    start = time.perf_counter()
                    output = tracer.run_op(index, workload.run, op_input)
                    elapsed = time.perf_counter() - start
            workload.check(index, op_input, output)
        except workloads.CheckFailed as exc:
            self._fail(index, f"check failed: {exc}")
            return None
        except Exception:  # an op that raises is a failed op, not a crash
            self._fail(index, traceback.format_exc())
            return None
        return elapsed

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        self.errors.append({"op": index, "error": message})
        print(f"op {index} of {self.workload.name} failed: {message}",
              file=sys.stderr)


def measure(runner: Runner, first_op: int, share_s: float,
            matrix, references: list) -> dict:
    """Untraced ops until ``share_s`` is spent (at least one), with
    reference samples after each."""
    start = time.perf_counter()
    times = []
    index = first_op
    while True:
        elapsed = runner.op(index)
        references.extend(reference_s(matrix) for _ in range(2))
        index += 1
        if elapsed is not None:
            times.append(elapsed)
        if time.perf_counter() - start >= share_s:
            break
    return {"op_s": times, "reference_s": references, "next_op": index,
            "measure_s": time.perf_counter() - start}


def trace(runner: Runner, share_s: float, spans_path: Path) -> dict:
    """Spans for the first ops, then untraced/traced pairs."""
    start = time.perf_counter()
    tracer = tracing.Tracer()
    count = runner.workload.traced_ops
    for index in range(count):
        runner.op(index, tracer)
    metrics = tracer.layer_metrics()
    tracer.write_spans(spans_path)
    del tracer

    untraced, traced = [], []
    index = count
    while True:
        # Alternate which side runs first, so drift favours neither.
        order = (False, True) if (index - count) % 2 == 0 else (True, False)
        for with_tracer in order:
            elapsed = runner.op(index,
                                tracing.Tracer() if with_tracer else None)
            if elapsed is not None:
                (traced if with_tracer else untraced).append(elapsed)
        index += 1
        if time.perf_counter() - start >= share_s:
            break
    untraced_s = statistics.median(untraced) if untraced else 0.0
    traced_s = statistics.median(traced) if traced else 0.0
    metrics["trace.ops"] = count
    metrics["trace.untraced_op_s"] = untraced_s
    metrics["trace.traced_op_s"] = traced_s
    metrics["trace.overhead_x"] = (traced_s / untraced_s
                                   if untraced_s else 0.0)
    return {"layers": metrics, "pairs": index - count,
            "measure_s": time.perf_counter() - start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--share", type=float, required=True,
                        help="seconds of ops to run after set-up")
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--spans", type=Path,
                        help="trace mode: write spans to this file")
    args = parser.parse_args()

    # Reference samples on either side of set-up scale set-up time and
    # are not part of it.
    matrix = numpy.random.default_rng(0).standard_normal((200, 200))
    references = [reference_s(matrix) for _ in range(2)]
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.load_golden())
    runner = Runner(workload)
    workload.setup()
    runner.op(-1)  # warm-up: part of set-up, not timed as an op
    setup_s = time.monotonic() - args.spawned_at - sum(references)
    references.extend(reference_s(matrix) for _ in range(2))
    setup_reference_s = statistics.median(references)

    if args.spans is None:
        result = measure(runner, args.first_op, args.share, matrix,
                         references)
    else:
        result = trace(runner, args.share, args.spans)
    result.update({
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "sim_s": workload.sim_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
