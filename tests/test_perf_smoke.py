"""Marker-gated performance smoke tests (``-m perf`` selects them).

Small enough to ride in tier-1: they assert the slot kernel agrees
with the reference loop in ``tests/oracles.py`` on a real (tiny)
dataset and that the ``python -m repro bench`` artifact round-trips
through ``json.load``.
Absolute speed assertions live in ``python -m repro bench`` itself, not
here, so CI timing noise cannot break the suite.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.motion import generate_dataset
from repro.simulate import simulate_dataset

from tests.oracles import simulate_trace_reference

pytestmark = pytest.mark.perf


class TestVectorizedSmoke:
    def test_vectorized_equals_reference_on_dataset(self):
        traces = generate_dataset(viewers=2, videos=2, duration_s=3.0)
        vectorized = simulate_dataset(traces)
        for trace, fast in zip(traces, vectorized):
            slow = simulate_trace_reference(trace)
            np.testing.assert_array_equal(fast.connected,
                                          slow.connected)


class TestBenchArtifact:
    @pytest.fixture(scope="class")
    def bench_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / \
            "BENCH_trace_pipeline.json"
        code = main(["bench", "--viewers", "1", "--videos", "2",
                     "--duration", "2.0", "--workers", "2",
                     "--output", str(path)])
        assert code == 0
        return path

    def test_round_trips_through_json_load(self, bench_path):
        with open(bench_path) as handle:
            payload = json.load(handle)
        assert payload == json.loads(json.dumps(payload))

    def test_reports_required_fields(self, bench_path):
        with open(bench_path) as handle:
            payload = json.load(handle)
        for key in ("workers", "machine", "rows",
                    "overall_availability", "parallel_speedup",
                    "parallel_gate"):
            assert key in payload
        assert [row["workers"] for row in payload["rows"]] == [1, 2]
        for row in payload["rows"]:
            assert row["traces"] == 2
            assert row["slots"] == 2 * 200 * 10
            assert row["wall_s"] > 0
            assert row["slots_per_s"] > 0
        assert payload["parallel_speedup"] > 0
        # No --require-parallel-speedup: no gate verdict recorded.
        assert payload["parallel_gate"] is None
