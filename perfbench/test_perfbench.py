"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metrics that are counts: they must repeat exactly.
COUNT_SUFFIXES = (".calls", ".iters_mean", ".evaluations", ".rows",
                  ".slots", ".traces", ".diverged", ".success_ratio")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=175, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.fixture(scope="module")
def handheld(golden):
    workload = workloads.HandheldSession(workloads.DEFAULT_SEED, golden)
    workload.setup()
    return workload


def _corrupt_once(workload, corrupt):
    """Run op 0 clean and corrupted; return the two runners' tallies."""
    clean = worker.Runner(workload)
    assert clean.op(0) is not None
    run = workload.run
    bad = worker.Runner(workload)
    workload.run = lambda op_input: corrupt(run(op_input))
    try:
        assert bad.op(0) is None
    finally:
        del workload.run
    return clean, bad


def test_flipped_slot_fails_the_handheld_op(handheld):
    def flip(result):
        link_up = result.link_up.copy()
        link_up[len(link_up) // 2] ^= True
        return dataclasses.replace(result, link_up=link_up)

    clean, bad = _corrupt_once(handheld, flip)
    assert (clean.attempted, clean.failed) == (1, 0)
    assert (bad.attempted, bad.failed) == (1, 1)


def test_handheld_power_tolerance(handheld):
    def nudge(by_db):
        def corrupt(result):
            power = result.power_dbm.copy()
            power[7] += by_db
            return dataclasses.replace(result, power_dbm=power)
        return corrupt

    runner = worker.Runner(handheld)
    run = handheld.run
    handheld.run = lambda op_input: nudge(1e-4)(run(op_input))
    try:
        assert runner.op(0) is not None       # inside the tolerance
    finally:
        del handheld.run
    _, bad = _corrupt_once(handheld, nudge(10 * workloads.POWER_TOLERANCE_DB))
    assert bad.failed == 1


def test_flipped_slot_fails_the_corpus_op(golden):
    workload = workloads.TraceCorpus(workloads.DEFAULT_SEED, golden)

    def flip(output):
        count, availability, clustering = output
        per_trace = availability.per_trace_availability.copy()
        per_trace[3] -= 1.0 / (workloads.TRACE_S * 1000)
        return count, dataclasses.replace(
            availability, per_trace_availability=per_trace), clustering

    _, bad = _corrupt_once(workload, flip)
    assert bad.failed == 1


def test_calibration_voltages_within_one_lsb(golden):
    workload = workloads.Calibration(workloads.DEFAULT_SEED, golden)
    want = golden["calibration"][0]
    got = json.loads(json.dumps(want))
    got["voltages"][2][1] += 0.5 * workloads.DAQ_LSB_V
    workload.check_reference(got, want)
    got["voltages"][2][1] += workloads.DAQ_LSB_V
    with pytest.raises(workloads.CheckFailed):
        workload.check_reference(got, want)


def test_bands_reject_a_broken_corpus(golden):
    workload = workloads.TraceCorpus(7, golden)
    assert workload.golden == []          # another seed: bands only
    output = workload.run(workload.make_input(0))
    workload.check(0, workload.make_input(0), output)
    count, availability, clustering = output
    broken = dataclasses.replace(availability, worst=0.5)
    with pytest.raises(workloads.CheckFailed):
        workload.check(0, None, (count, broken, clustering))


def test_untraced_run_prints_every_end_to_end_metric():
    result = _run("--workload", "trace_corpus", "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    spec = _spec()
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", ["handheld_session", "calibration",
                                  "trace_corpus"])
def test_traced_counts_repeat_exactly(name):
    first = _run("--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", "1")
    second = _run("--workload", name, "--seed", "5", "--seconds", "1",
                  "--trace", "1")
    spec = _spec()
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = {key for key in first["metrics"]
              if key.endswith(COUNT_SUFFIXES)}
    assert counts
    for key in sorted(counts):
        assert first["metrics"][key] == second["metrics"][key], key
    # The workload's own layers did real work.
    layer = {"handheld_session": "core.pointing.point.calls",
             "calibration": "core.alignment.search.evaluations",
             "trace_corpus": "simulate.batch.simulate_batch.slots"}[name]
    assert first["metrics"][layer]["value"] > 0


def test_traced_metrics_match_the_spec_units():
    import tracing
    spec = {m["name"]: m for m in _spec()["per_layer"]}
    assert [name for name, _, _ in tracing.metric_specs()] == list(spec)
    for name, unit, better in tracing.metric_specs():
        assert spec[name]["unit"] == unit
        assert spec[name]["better"] == better


def test_ops_do_not_depend_on_what_ran_before(handheld):
    first = handheld.run(handheld.make_input(2))
    handheld.run(handheld.make_input(0))
    again = handheld.run(handheld.make_input(2))
    assert np.array_equal(first.link_up, again.link_up)
    assert np.array_equal(first.power_dbm, again.power_dbm)
