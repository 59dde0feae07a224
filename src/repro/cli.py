"""Command-line interface: ``python -m repro <command>``.

Small, dependency-free front door to the common workflows so a user
can poke the system without writing code::

    python -m repro table1            # Table 1 tolerances
    python -m repro fig11             # the beam-diameter sweep
    python -m repro calibrate         # run the Section 4 pipeline
    python -m repro traces            # Section 5.4 availability (subset)
    python -m repro safety            # eye-safety reports
    python -m repro plan --width 4 --depth 3   # ceiling TX plan
    python -m repro formats           # the VR-format bandwidth ladder
    python -m repro bench             # time the trace pipeline
    python -m repro chaos             # fault-injection robustness sweep
    python -m repro sweep --checkpoint ck   # crash-safe resumable sweep
    python -m repro lint              # determinism/units static analysis
    python -m repro analyze           # whole-program layering/unit/RNG flow

``bench``, ``chaos``, and ``sweep`` publish their JSON records
atomically (tmp + rename) and defer SIGINT/SIGTERM to checkpoint
boundaries, exiting ``128 + signum`` with no torn artifacts; ``sweep``
additionally checkpoints per work unit and resumes byte-identically
with ``--resume``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_table1(args):
    from .link import evaluate, link_10g_collimated, link_10g_diverging
    from .reporting import TextTable, fmt_float
    table = TextTable(["design", "TX tol (mrad)", "RX tol (mrad)",
                       "peak (dBm)"])
    for design in (link_10g_collimated(20e-3),
                   link_10g_diverging(20e-3)):
        r = evaluate(design)
        table.add_row(design.name,
                      fmt_float(r.tx_angular_tolerance_rad * 1e3),
                      fmt_float(r.rx_angular_tolerance_rad * 1e3),
                      fmt_float(r.peak_power_dbm, 1))
    print(table.render())
    return 0


def _cmd_fig11(args):
    from .link import diameter_sweep, link_10g_diverging
    from .reporting import TextTable, fmt_float
    diameters = np.arange(8e-3, 33e-3, 2e-3)
    table = TextTable(["beam at RX (mm)", "RX tol (mrad)",
                       "TX tol (mrad)", "peak (dBm)"])
    for r in diameter_sweep(link_10g_diverging, diameters, 1.75):
        table.add_row(fmt_float(r.beam_diameter_at_rx_m * 1e3, 0),
                      fmt_float(r.rx_angular_tolerance_rad * 1e3),
                      fmt_float(r.tx_angular_tolerance_rad * 1e3),
                      fmt_float(r.peak_power_dbm, 1))
    print(table.render())
    return 0


def _cmd_calibrate(args):
    from .core import point
    from .simulate import Testbed
    testbed = Testbed(seed=args.seed)
    print(f"calibrating (seed {args.seed})...")
    outcome = testbed.calibrate()
    connected = 0
    for pose in testbed.evaluation_poses(args.trials):
        command = point(outcome.system, testbed.tracker.report(pose))
        testbed.apply_command(command)
        connected += testbed.channel.evaluate(pose).connected
    print(f"realign trials at optimal: {connected}/{args.trials}")
    return 0 if connected == args.trials else 1


def _cmd_traces(args):
    from .motion import generate_dataset
    from .simulate import analyze, report, simulate_dataset
    traces = generate_dataset(viewers=args.viewers, videos=args.videos,
                              workers=args.workers)
    results = simulate_dataset(traces, workers=args.workers)
    availability = report(results)
    clustering = analyze(results)
    print(f"traces: {len(traces)}")
    print(f"overall availability: "
          f"{availability.overall_availability * 100:.2f} % "
          f"(paper: 98.6)")
    print(f"range: {availability.worst * 100:.2f} - "
          f"{availability.best * 100:.2f} %")
    print(f"off-slots in frames with <10 offs: "
          f"{clustering.fraction_in_frames_below(10) * 100:.0f} % "
          f"(paper: >60)")
    return 0


def _cmd_safety(args):
    from .link import link_10g_collimated, link_10g_diverging, link_25g
    from .optics import assess_design
    from .reporting import TextTable, fmt_float
    table = TextTable(["design", "launched (dBm)", "limit (mW)",
                       "hazard dist (m)", "safe @ 1.75 m"])
    for design in (link_10g_diverging(), link_10g_collimated(),
                   link_25g()):
        r = assess_design(design)
        table.add_row(design.name, fmt_float(r.launched_power_dbm, 1),
                      fmt_float(r.class1_limit_mw, 1),
                      fmt_float(r.hazard_distance_m, 2),
                      "yes" if r.safe_at_link_range else "NO")
    print(table.render())
    return 0


def _cmd_plan(args):
    from .plan import CoverageConstraints, Room, plan_greedy
    room = Room(width_m=args.width, depth_m=args.depth,
                ceiling_height_m=args.ceiling)
    plan = plan_greedy(room, CoverageConstraints(),
                       target_fraction=args.coverage,
                       resolution_m=0.2)
    print(f"{len(plan.tx_positions)} TXs -> "
          f"{plan.coverage_fraction(0.2) * 100:.0f} % coverage, "
          f"{plan.redundancy_fraction(0.2) * 100:.0f} % redundant")
    for i, (x, y) in enumerate(plan.tx_positions):
        print(f"  TX {i}: ({x:.2f}, {y:.2f}) m")
    return 0


def _cmd_formats(args):
    from .reporting import TextTable, fmt_float
    from .stream import CATALOGUE
    table = TextTable(["format", "raw Gbps", "fits 10G", "fits 25G"])
    for fmt in CATALOGUE:
        table.add_row(fmt.name.split(" (")[0],
                      fmt_float(fmt.raw_bitrate_gbps, 1),
                      "yes" if fmt.fits_raw(9.4) else "no",
                      "yes" if fmt.fits_raw(23.5) else "no")
    print(table.render())
    return 0


def _bench_machine() -> dict:
    """Machine metadata stamped into every bench record."""
    import os
    import platform

    import scipy
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _bench_row(workers: int, args, repeats: int) -> dict:
    """Time the pipeline at one worker count.

    Each row runs generate -> simulate -> aggregate end to end,
    ``repeats`` times, keeping the best wall clock per stage (best-of
    smooths allocator and scheduler noise; the stages are pure, so
    repetition cannot change the result).  Any
    :class:`~repro.parallel.ParallelFallbackWarning` raised while the
    row runs is recorded in the ``serial_fallback`` field instead of
    hiding in the warning stream.
    """
    import time
    import warnings

    from .motion import generate_batch
    from .parallel import ParallelFallbackWarning
    from .simulate import simulate_batch

    def one_pass():
        t0 = time.perf_counter()
        batch = generate_batch(
            viewers=args.viewers, videos=args.videos,
            duration_s=args.duration, workers=workers, columns="steps")
        t_gen = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = simulate_batch(batch, workers=workers)
        t_sim = time.perf_counter() - t0
        t0 = time.perf_counter()
        connected = result.connected
        overall = (int(np.count_nonzero(connected)) / connected.size
                   if connected.size else 0.0)
        t_rep = time.perf_counter() - t0
        return (t_gen, t_sim, t_rep, len(result), connected.size,
                overall)

    best = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParallelFallbackWarning)
        for _ in range(max(1, repeats)):
            sample = one_pass()
            if best is None or sum(sample[:3]) < sum(best[:3]):
                best = sample
        fallbacks = sum(
            1 for w in caught
            if issubclass(w.category, ParallelFallbackWarning))
    t_gen, t_sim, t_rep, traces, slots, overall = best
    wall_s = t_gen + t_sim + t_rep
    return {
        "transport": "none" if workers <= 1 else "shm",
        "workers": workers,
        "traces": traces,
        "slots": slots,
        # The declared computation dtype of the step columns (every
        # engine allocation passes dtype= explicitly; rule Y002 keeps
        # it that way).
        "dtype": np.dtype(np.float64).name,
        "wall_s": wall_s,
        "generate_s": t_gen,
        "simulate_s": t_sim,
        "report_s": t_rep,
        "traces_per_s": traces / wall_s if wall_s > 0 else 0.0,
        "slots_per_s": slots / wall_s if wall_s > 0 else 0.0,
        "serial_fallback": fallbacks > 0,
        "overall_availability": overall,
    }


def _parallel_gate(required: float, workers: int, rows: list,
                   machine: dict, speedup) -> dict:
    """Judge ``batch xN >= required x batch x1`` where it can hold.

    The gate is enforced only when the process may run on at least
    ``workers`` cores and the pool really ran; otherwise it is
    recorded as skipped, with the reason.
    """
    cores = machine["cpu_affinity"] or machine["cpu_count"] or 1
    if speedup is None:
        reason = "no pooled row (workers <= 1)"
    elif cores < workers:
        reason = f"cpu_affinity {cores} < {workers} workers"
    elif any(row["serial_fallback"] for row in rows):
        reason = "process pool unavailable (serial fallback in rows)"
    else:
        passed = speedup >= required
        return {"required": required,
                "status": "passed" if passed else "failed",
                "reason": f"{speedup:.2f}x {'>=' if passed else '<'} "
                          f"{required:.2f}x"}
    return {"required": required, "status": "skipped", "reason": reason}


def _cmd_bench(args):
    """Bench the trace pipeline at one worker and across a pool.

    Both rows run the batch engines; the pooled row moves its tensors
    through the shared-memory transport.  Every row must report the
    identical overall availability — the bench doubles as an
    end-to-end determinism check.  ``--require-parallel-speedup X``
    turns the record into a gate: exit nonzero when the pooled row's
    slots/s falls below ``X`` times the single-worker row's, on a
    machine with at least as many cores as workers.
    """
    from .orchestrator.signals import SignalGuard, SweepInterrupted
    try:
        with SignalGuard() as guard:
            return _bench_run(args, guard)
    except SweepInterrupted as exc:
        print(f"interrupted by signal {exc.signum}; partial bench rows "
              "discarded (the record publishes atomically at the end)")
        return exc.exit_code


def _bench_run(args, guard):
    """The bench body; ``guard.check()`` between rows keeps Ctrl-C clean."""
    from .parallel import default_workers
    from .store import write_json_atomic

    if args.quick:
        # The pinned CI preset: the paper's 500-trace corpus with
        # best-of-3 rows.  The parallel comparison needs the full
        # corpus — on a small one the pool spawn cost dominates.
        args.viewers, args.videos = 50, 10
        args.duration = 60.0
        repeats = 3
    else:
        repeats = args.repeats

    pool_workers = args.workers if args.workers else \
        max(2, default_workers())

    rows = []
    for row_workers in [1, pool_workers] if pool_workers > 1 else [1]:
        guard.check()
        rows.append(_bench_row(row_workers, args, repeats))

    # Bitwise contract: every worker count must agree on the
    # availability number exactly.
    availabilities = {row["overall_availability"] for row in rows}
    if len(availabilities) != 1:
        print("ERROR: rows disagree on overall availability: "
              + ", ".join(f"{row['workers']}w="
                          f"{row['overall_availability']!r}"
                          for row in rows))
        return 1

    machine = _bench_machine()
    speedup = None
    if len(rows) > 1 and rows[0]["slots_per_s"] > 0:
        speedup = rows[1]["slots_per_s"] / rows[0]["slots_per_s"]
    gate = None
    if args.require_parallel_speedup is not None:
        gate = _parallel_gate(args.require_parallel_speedup,
                              pool_workers, rows, machine, speedup)

    payload = {
        "pipeline": "generate->simulate->report",
        "viewers": args.viewers,
        "videos": args.videos,
        "duration_s": args.duration,
        "workers": pool_workers,
        "quick": bool(args.quick),
        "repeats": repeats,
        "machine": machine,
        "rows": rows,
        "overall_availability": rows[0]["overall_availability"],
        "parallel_speedup": speedup,
        "parallel_gate": gate,
    }
    write_json_atomic(args.output, payload)

    for row in rows:
        flag = " (serial fallback!)" if row["serial_fallback"] else ""
        print(f"batch x{row['workers']} "
              f"[{row['transport']:>4s}]: {row['wall_s']:.2f} s "
              f"(gen {row['generate_s']:.2f}, sim "
              f"{row['simulate_s']:.2f}), "
              f"{row['slots_per_s'] / 1e6:.1f}M slots/s{flag}")
    if speedup is not None:
        print(f"parallel speedup (x{pool_workers} vs x1): {speedup:.2f}x")
    print(f"wrote {args.output}")

    if gate is not None:
        print(f"parallel gate {gate['status']}: {gate['reason']}")
        if gate["status"] == "failed":
            return 1
    return 0


def _cmd_chaos(args):
    """Sweep fault scenarios, supervised vs bare, write BENCH_chaos.json."""
    import time

    from .faults.chaos import get_scenarios, run_chaos, sweep_payload
    from .orchestrator.signals import SignalGuard
    from .reporting import TextTable, fmt_float
    from .store import write_json_atomic

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        scenarios = get_scenarios(names)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    # The sweep is one compute call, so a first Ctrl-C defers: the
    # finished records still publish (atomically) before exiting
    # 128+signum.  A second Ctrl-C aborts the blunt way.
    with SignalGuard() as guard:
        t0 = time.perf_counter()
        records = run_chaos(scenarios, workers=args.workers)
        wall_s = time.perf_counter() - t0

    table = TextTable(["scenario", "bare up", "supervised up", "gain",
                       "MTTR (s)", "recoveries"])
    for r in records:
        table.add_row(r["name"],
                      fmt_float(r["unsupervised"]["availability"], 3),
                      fmt_float(r["supervised"]["availability"], 3),
                      fmt_float(r["uptime_gain"], 3),
                      fmt_float(r["supervised"]["mttr_s"], 3),
                      str(r["supervised"]["recovery_actions"]))
    print(table.render())

    # Wall time is printed but kept OUT of the payload so the file is
    # byte-identical for any --workers setting.
    payload = sweep_payload(records)
    write_json_atomic(args.output, payload)
    print(f"mean uptime gain: {payload['mean_uptime_gain']:+.3f}")
    print(f"wall: {wall_s:.2f} s (workers={args.workers})")
    print(f"wrote {args.output}")
    if guard.triggered:
        print(f"interrupted by signal {guard.triggered}; record "
              "published before exit")
        return guard.exit_code
    return 0


def _cmd_sweep(args):
    """Run (or resume) a crash-safe checkpointed sweep.

    Work units execute in killable child processes, spool into the
    checkpoint's column store as they finish, and the final corpus +
    ``SWEEP_<kind>.json`` payload are byte-identical no matter how
    many times the run was interrupted — SIGKILL included — and
    resumed with ``--resume``.  Exit codes: 0 done, 1 units failed,
    2 bad configuration, 128+signum when interrupted.
    """
    import time

    from .orchestrator import (
        SignalGuard,
        SweepConfigError,
        SweepError,
        SweepInterrupted,
        SweepRunner,
        UnitFailedError,
        build_sweep,
        list_kinds,
    )
    from .store import write_json_atomic

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        spec = build_sweep(args.kind, seed=args.seed, units=args.units,
                           work=args.work, sleep_s=args.sleep_s,
                           trials=args.trials, scenarios=names)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else str(exc))
        print(f"available kinds: {', '.join(list_kinds())}")
        return 2

    output = args.output if args.output else f"SWEEP_{args.kind}.json"
    t0 = time.perf_counter()
    baseline = {"done": 0}

    def progress(done, total, unit):
        elapsed = time.perf_counter() - t0
        fresh = done - baseline["done"]
        remaining = total - done
        if fresh > 0 and remaining > 0:
            eta = elapsed / fresh * remaining
            tail = f"ETA {eta:5.1f} s"
        else:
            tail = "done" if remaining == 0 else "ETA ?"
        print(f"[{done:>{len(str(total))}}/{total}] {unit.label} "
              f"({elapsed:.1f} s elapsed, {tail})")

    try:
        with SignalGuard() as guard:
            runner = SweepRunner(
                spec, args.checkpoint, workers=args.workers,
                timeout_s=args.timeout_s, retries=args.retries,
                progress=progress, stop_check=guard.check)
            status = runner.prepare(resume=args.resume)
            baseline["done"] = status.done
            print(f"sweep {spec.name!r}: {status.total} units, "
                  f"{status.done} already checkpointed, "
                  f"{status.pending} to run "
                  f"(workers={runner.workers})")
            if status.reaped_tmp:
                print(f"reaped {status.reaped_tmp} orphaned tmp "
                      "group(s) from a previous crash")
            if status.journal_dropped_bytes:
                print(f"dropped {status.journal_dropped_bytes} torn "
                      "journal byte(s); affected units re-run")
            result = runner.run()
            guard.check()
            _, payload = runner.finalize(group=args.group)
    except SweepConfigError as exc:
        print(str(exc))
        return 2
    except UnitFailedError as exc:
        print(str(exc))
        return 1
    except SweepError as exc:
        print(str(exc))
        return 1
    except SweepInterrupted as exc:
        print(f"interrupted by signal {exc.signum}; checkpoint at "
              f"{args.checkpoint} is consistent — rerun with --resume")
        return exc.exit_code

    write_json_atomic(output, payload)
    wall_s = time.perf_counter() - t0
    print(f"corpus group {args.group!r}: {payload['units']} rows, "
          f"sha256 {payload['corpus_sha256'][:16]}…")
    print(f"ran {result.ran}, skipped {result.skipped} "
          f"(infra retries {result.infra_retries}, fn retries "
          f"{result.fn_retries}, escalations {result.escalations})")
    print(f"wall: {wall_s:.2f} s")
    print(f"wrote {output}")
    return 0


def _cmd_lint(args):
    """Run the repro.devtools static-analysis engine."""
    from .devtools.cli import run_lint
    return run_lint(args)


def _cmd_analyze(args):
    """Run the repro.devtools.program whole-program analyzer."""
    from .devtools.program.cli import run_analyze
    return run_analyze(args)


def _cmd_scenarios(args):
    from .reporting import TextTable
    from .simulate import list_scenarios
    table = TextTable(["id", "paper", "description"])
    for scenario in list_scenarios():
        table.add_row(scenario.scenario_id, scenario.paper_ref,
                      scenario.description)
    print(table.render())
    return 0


def _cmd_scenario(args):
    from .simulate import get_scenario
    try:
        scenario = get_scenario(args.scenario_id)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(f"{scenario.paper_ref}: {scenario.description}")
    print(f"full regeneration: pytest {scenario.bench} "
          f"--benchmark-only -s")
    for name, value in scenario.run_quick().items():
        print(f"  {name} = {value:.4g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cyclops (SIGCOMM 2022) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1 link tolerances"
                   ).set_defaults(func=_cmd_table1)
    sub.add_parser("fig11", help="Fig. 11 beam-diameter sweep"
                   ).set_defaults(func=_cmd_fig11)

    calibrate = sub.add_parser("calibrate",
                               help="run the Section 4 pipeline")
    calibrate.add_argument("--seed", type=int, default=7)
    calibrate.add_argument("--trials", type=int, default=10)
    calibrate.set_defaults(func=_cmd_calibrate)

    traces = sub.add_parser("traces",
                            help="Section 5.4 trace availability")
    traces.add_argument("--viewers", type=int, default=10)
    traces.add_argument("--videos", type=int, default=10)
    traces.add_argument("--workers", type=int, default=1)
    traces.set_defaults(func=_cmd_traces)

    sub.add_parser("safety", help="eye-safety reports"
                   ).set_defaults(func=_cmd_safety)

    plan = sub.add_parser("plan", help="ceiling TX coverage plan")
    plan.add_argument("--width", type=float, default=3.0)
    plan.add_argument("--depth", type=float, default=3.0)
    plan.add_argument("--ceiling", type=float, default=2.6)
    plan.add_argument("--coverage", type=float, default=0.95)
    plan.set_defaults(func=_cmd_plan)

    sub.add_parser("formats", help="VR format bandwidth ladder"
                   ).set_defaults(func=_cmd_formats)

    bench = sub.add_parser(
        "bench", help="time the trace pipeline, write a JSON record")
    bench.add_argument("--viewers", type=int, default=10)
    bench.add_argument("--videos", type=int, default=10)
    bench.add_argument("--duration", type=float, default=60.0)
    bench.add_argument("--workers", type=int, default=0,
                       help="pooled-row worker count (0 = auto: "
                            "max(2, default_workers()))")
    bench.add_argument("--quick", action="store_true",
                       help="pinned CI preset: canonical 500-trace "
                            "corpus, best-of-3 rows")
    bench.add_argument("--repeats", type=int, default=2,
                       help="best-of repeats per row")
    bench.add_argument("--require-parallel-speedup", type=float,
                       default=None, metavar="X",
                       help="exit nonzero unless the pooled row's "
                            "slots/s is at least X times the "
                            "single-worker row's (skipped when "
                            "cpu_affinity < workers)")
    bench.add_argument("--output", default="BENCH_trace_pipeline.json")
    bench.set_defaults(func=_cmd_bench)

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweep, write BENCH_chaos.json")
    chaos.add_argument("--scenarios", default=None,
                       help="comma-separated scenario names (default all)")
    chaos.add_argument("--workers", type=int, default=1)
    chaos.add_argument("--output", default="BENCH_chaos.json")
    chaos.set_defaults(func=_cmd_chaos)

    sweep = sub.add_parser(
        "sweep",
        help="crash-safe checkpointed sweep (resume with --resume)")
    sweep.add_argument("--kind", default="demo",
                       help="workload: demo, calibration, or chaos")
    sweep.add_argument("--checkpoint", required=True,
                       help="checkpoint directory (manifest, journal, "
                            "spooled results)")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep; completed "
                            "units are skipped, bytes are identical")
    sweep.add_argument("--workers", type=int, default=1,
                       help="concurrent worker processes (0 = auto)")
    sweep.add_argument("--timeout-s", type=float, default=None,
                       dest="timeout_s", metavar="S",
                       help="kill a unit's worker after S seconds")
    sweep.add_argument("--retries", type=int, default=2,
                       help="retries per unit before serial escalation")
    sweep.add_argument("--units", type=int, default=8,
                       help="unit count (demo/calibration kinds)")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--work", type=int, default=4096,
                       help="per-unit draw count (demo kind)")
    sweep.add_argument("--sleep-s", type=float, default=0.0,
                       dest="sleep_s", metavar="S",
                       help="per-unit sleep (demo kind; test harness)")
    sweep.add_argument("--trials", type=int, default=10,
                       help="realignment trials (calibration kind)")
    sweep.add_argument("--scenarios", default=None,
                       help="comma-separated names (chaos kind)")
    sweep.add_argument("--group", default="corpus",
                       help="final corpus group name")
    sweep.add_argument("--output", default=None,
                       help="payload JSON path "
                            "(default SWEEP_<kind>.json)")
    sweep.set_defaults(func=_cmd_sweep)

    lint = sub.add_parser(
        "lint", help="determinism/units static analysis (repro.devtools)")
    from .devtools.cli import add_lint_arguments
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="whole-program layering/unit-flow/RNG-taint analysis")
    from .devtools.program.cli import add_analyze_arguments
    add_analyze_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    sub.add_parser("scenarios", help="list the experiment registry"
                   ).set_defaults(func=_cmd_scenarios)
    scenario = sub.add_parser("scenario",
                              help="quick-run one experiment")
    scenario.add_argument("scenario_id")
    scenario.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code.

    Every subcommand shares one exception→exit-code contract: 0 ok,
    1 failed work (units, store, coverage), 2 bad configuration or
    usage, 130/143 interrupted by SIGINT/SIGTERM (128+signum).
    Subcommands may map their own exceptions first for a more
    specific message; this ladder is the backstop that keeps an
    escaping taxonomy exception from surfacing as a traceback.
    """
    from .galvo import CoverageError
    from .orchestrator import (
        ManifestError,
        SweepConfigError,
        SweepError,
        SweepInterrupted,
        UnitFailedError,
    )
    from .store import StoreError
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepInterrupted as exc:
        print(f"interrupted by signal {exc.signum}")
        return exc.exit_code
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    except (SweepConfigError, ManifestError) as exc:
        print(str(exc))
        return 2
    except (UnitFailedError, SweepError, StoreError,
            CoverageError) as exc:
        print(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
