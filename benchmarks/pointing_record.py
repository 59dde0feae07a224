"""Per-layer timing record of the closed-loop geometry: ``BENCH_pointing.json``.

One row per layer of the Section 4.3 closed loop and its calibration:

* ``G`` -- the scalar trace ``repro.galvo.mirror.trace``, per call;
* ``trace_batch`` -- the array ``G`` kernel, per row of a 1000-row call;
* ``G'`` -- ``repro.core.inverse.solve`` from rest voltages, per solve;
* ``P`` warm -- ``repro.core.pointing.point`` seeded with the previous
  report's command along a hand-held motion, per report;
* ``P`` cold -- the same reports, each seeded by ``cold_start_seed``
  (timed together), per report;
* channel -- ``FsoChannel.evaluate`` per 1 ms slot, with a new command
  applied every 12 slots as in a session;
* calibrate -- ``Testbed(seed).calibrate(mapping_samples=10)`` on a
  fresh testbed, per call.

Each row is the median over repeats and carries the machine metadata
(nproc, CPU affinity, python/numpy/scipy).  ``--label`` names the code
measured; rows with other labels already in the output file are kept,
so two checkouts measured on one host land side by side::

    PYTHONPATH=src python benchmarks/pointing_record.py --label change
    PYTHONPATH=../other/src python benchmarks/pointing_record.py \\
        --label parent

Only the public API is used.  Not collected by pytest (no ``bench_``
prefix); run it directly.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from repro.core import cold_start_seed, point, solve_inverse, trace_batch
from repro.galvo.mirror import trace
from repro.motion import HandheldProfile
from repro.simulate import Testbed
from repro.store import read_json, write_json_atomic
from repro.vrh import Pose

#: The calibrated rig of Fig. 14 and the session benchmarks.
RIG_SEED = 3
REPEATS = 5
#: Reports per P/channel repeat: 1.5 s of hand-held motion.
REPORTS = 120
SLOTS_PER_REPORT = 12
CALIBRATION_SEEDS = (11, 12, 13)


def machine() -> dict:
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _median_per_unit(run, units: int, repeats: int = REPEATS) -> tuple:
    """Median and all samples of ``run()`` wall time per unit."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append((time.perf_counter() - start) / units)
    return statistics.median(samples), samples


def _report(testbed: Testbed, pose: Pose) -> Pose:
    """A noise-free tracking report (no tracker RNG consumed)."""
    transform = testbed.tracker.true_report_transform(pose)
    return Pose(transform.translation, transform.rotation)


def _motion(testbed: Testbed) -> list:
    """(report, slot poses) pairs along the fast half of a hand-held
    ramp, one report per 12 ms."""
    profile = HandheldProfile(base_pose=testbed.home_pose,
                              peak_linear_m_s=0.45,
                              peak_angular_rad_s=math.radians(28.0),
                              duration_s=40.0, seed=11)
    steps = []
    for k in range(REPORTS):
        t = 20.0 + k * SLOTS_PER_REPORT * 1e-3
        slots = [profile.pose_at(t + (s + 1) * 1e-3)
                 for s in range(SLOTS_PER_REPORT)]
        steps.append((_report(testbed, profile.pose_at(t)), slots))
    return steps


def measure() -> list:
    testbed = Testbed(seed=RIG_SEED)
    system = testbed.calibrate().system
    rng = np.random.default_rng(0)
    rows = []

    def row(layer, unit, scale, median_samples, **extra):
        median, samples = median_samples
        rows.append({"layer": layer, "unit": unit,
                     "value": round(median * scale, 3),
                     "samples": [round(s * scale, 3) for s in samples],
                     **extra})

    params = testbed.tx_hardware.params
    volts = rng.uniform(-5.0, 5.0, size=(2000, 2))
    row("G (galvo.mirror.trace)", "us/call", 1e6, _median_per_unit(
        lambda: [trace(params, a, b) for a, b in volts], len(volts)))

    vector = params.to_vector()
    many = rng.uniform(-5.0, 5.0, size=(2, 1000))
    row("trace_batch (1000-row call)", "us/row", 1e6, _median_per_unit(
        lambda: [trace_batch(vector, many[0], many[1])
                 for _ in range(20)], 20 * many.shape[1]))

    steps = _motion(testbed)
    tx = system.tx_model_vr
    targets = [system.rx_model_vr(report).beam(0.0, 0.0).origin
               for report, _ in steps]
    row("G' (inverse.solve from rest)", "us/solve", 1e6, _median_per_unit(
        lambda: [solve_inverse(tx, tau) for tau in targets], len(targets)),
        iterations_mean=statistics.mean(
            solve_inverse(tx, tau).iterations for tau in targets))

    commands = []

    def warm():
        commands.clear()
        seed = cold_start_seed(system, steps[0][0])
        for report, _ in steps:
            command = point(system, report, initial=seed)
            seed = (command.v_tx1, command.v_tx2,
                    command.v_rx1, command.v_rx2)
            commands.append(command)

    row("P warm (point, previous command as seed)", "ms/report", 1e3,
        _median_per_unit(warm, len(steps)),
        iterations_mean=statistics.mean(c.iterations for c in commands))
    row("P cold (cold_start_seed + point)", "ms/report", 1e3,
        _median_per_unit(lambda: [
            point(system, report,
                  initial=cold_start_seed(system, report))
            for report, _ in steps], len(steps)))

    channel = testbed.channel

    def slots():
        # Time evaluate only; applying a command is not a slot's work.
        total = 0.0
        for command, (_, poses) in zip(commands, steps):
            testbed.apply_command(command)
            start = time.perf_counter()
            for pose in poses:
                channel.evaluate(pose)
            total += time.perf_counter() - start
        return total

    samples = [slots() / (len(steps) * SLOTS_PER_REPORT)
               for _ in range(REPEATS)]
    row("FsoChannel.evaluate (12 slots per command)", "us/slot", 1e6,
        (statistics.median(samples), samples))

    calls = iter(CALIBRATION_SEEDS)
    row("calibrate(mapping_samples=10), fresh testbed", "s/call", 1.0,
        _median_per_unit(
            lambda: Testbed(seed=next(calls)).calibrate(mapping_samples=10),
            1, repeats=len(CALIBRATION_SEEDS)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="name of the code measured, e.g. parent")
    parser.add_argument("--output", default="BENCH_pointing.json")
    args = parser.parse_args(argv)

    meta = machine()
    rows = [dict(r, label=args.label, machine=meta) for r in measure()]
    path = Path(args.output)
    kept = []
    if path.exists():
        kept = [r for r in read_json(path)["rows"]
                if r["label"] != args.label]
    write_json_atomic(path, {
        "description": "closed-loop geometry, one row per layer; "
                       "value = median over samples",
        "rows": kept + rows,
    })
    for r in rows:
        print(f"{r['label']:>8}  {r['layer']:<48} {r['value']:>10} "
              f"{r['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
