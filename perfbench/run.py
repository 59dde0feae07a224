"""Repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload handheld_session --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``handheld_session``, ``calibration``, ``trace_corpus`` (see
``perfbench/README.md`` for why each was chosen and what each layer
metric should move).  The run is single-process per worker, with
``REPRO_WORKERS=1`` and every BLAS/OpenMP pool pinned to one thread.

``--trace 0`` starts :data:`SETUPS` workers one after another.  Each
imports the program, sets the workload up and runs one warm-up op
(timed together as ``setup_s``), then runs checked ops for its share of
``--seconds``.  The result holds the end-to-end metrics: ``op_s`` is
the median seconds per op over all workers' ops, each scaled by its
worker's reference-kernel time (see ``perfbench/README.md``).

``--trace 1`` starts one worker that records per-layer spans over the
workload's first ops and then measures the tracing overhead; the result
holds the per-layer metrics.

The last line of standard output is the result object; a longer record
with every op time, the versions and the CPU set is written to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import tracing  # stdlib only: importing it loads nothing of the program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("handheld_session", "calibration", "trace_corpus")

#: Workers per untraced run: ``setup_s`` is the median of their set-ups.
SETUPS = 3

#: Host seconds are reported as seconds on a host that runs the reference
#: kernel (``worker.reference_s``) in this time.
REFERENCE_NOMINAL_S = 0.1

#: Whole-run limit; a worker still running past it is killed.
DEADLINE_S = 170.0

PINNED_ENV = {
    "REPRO_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _worker(args, share_s: float, first_op: int, started: float,
            spans: Optional[Path] = None) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--share", repr(share_s), "--first-op", str(first_op)]
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    left = DEADLINE_S - (spawned_at - started)
    completed = subprocess.run(command, cwd=ROOT, env=env, timeout=left,
                               stdout=subprocess.PIPE, text=True,
                               check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"worker exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _environment() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "pinned_env": PINNED_ENV}


def run_untraced(args, started: float) -> tuple:
    workers = []
    first_op = 0
    left_s = float(args.seconds)
    for k in range(SETUPS):
        result = _worker(args, left_s / (SETUPS - k), first_op, started)
        workers.append(result)
        first_op = result["next_op"]
        left_s = max(0.0, left_s - result["measure_s"])
    # Host speed differs between worker processes and drifts between
    # runs, so each worker's times are scaled by its own reference:
    # op times by all its samples, set-up by those taken around set-up.
    op_s = statistics.median(
        t / statistics.median(w["reference_s"]) * REFERENCE_NOMINAL_S
        for w in workers for t in w["op_s"])
    setup_s = statistics.median(
        w["setup_s"] / w["setup_reference_s"] * REFERENCE_NOMINAL_S
        for w in workers)
    host_op_s = statistics.median(t for w in workers for t in w["op_s"])
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    metrics = {
        "op_s": (op_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    readout = {
        "ops": sum(len(w["op_s"]) for w in workers),
        "error_rate": failed / attempted,
        "reference_s": statistics.median(
            t for w in workers for t in w["reference_s"]),
        "host_op_s": host_op_s,
        "host_setup_s": statistics.median(w["setup_s"] for w in workers),
        "setup_s": setup_s,
        "peak_rss_mb": metrics["peak_rss_mb"][0],
    }
    sim_s = workers[0]["sim_s"]
    if sim_s:
        readout["host_realtime_x"] = sim_s / host_op_s
        readout["realtime_x"] = sim_s / op_s
    else:
        readout["host_calibrate_s"] = host_op_s
        readout["calibrate_s"] = op_s
    return metrics, attempted, failed, workers, readout


def run_traced(args, started: float) -> tuple:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    result = _worker(args, float(args.seconds), 0, started, spans)
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    metrics = {name: (value, units[name])
               for name, value in result["layers"].items()}
    readout = {"overhead_x": result["layers"]["trace.overhead_x"],
               "spans": str(spans.relative_to(ROOT))}
    return (metrics, result["attempted"], result["failed"], [result],
            readout)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 1 is checked against "
                             "recorded outputs, any other against the "
                             "paper-shape bands")
    parser.add_argument("--seconds", type=int, default=20,
                        help="seconds of measured ops per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    runner = run_traced if args.trace else run_untraced
    try:
        metrics, attempted, failed, workers, readout = runner(args, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": dict(_environment(),
                            **workers[0]["versions"]),
        "readout": readout,
        "workers": workers,
    }
    record_path = OUT / (f"record-{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in readout.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
