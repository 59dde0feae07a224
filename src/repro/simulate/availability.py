"""Dataset-level availability analysis (Fig. 16 and the 98.6 % claim)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from ..motion import HeadTrace
from ..parallel import parallel_map
from .batch import simulate_batch, simulate_trace
from .timeslot import TimeslotParams, TimeslotResult


@dataclass(frozen=True)
class AvailabilityReport:
    """Aggregate connectivity over a trace dataset."""

    per_trace_availability: np.ndarray
    overall_availability: float
    best: float
    worst: float

    def disconnection_cdf(self) -> tuple:
        """CDF of per-trace disconnected percentage (Fig. 16's axes).

        Returns ``(disconnected_percent_sorted, cumulative_fraction)``.
        """
        disconnected = np.sort(
            (1.0 - self.per_trace_availability) * 100.0)
        fractions = np.arange(1, disconnected.size + 1) / disconnected.size
        return disconnected, fractions

    def effective_bandwidth_gbps(self, optimal_gbps: float) -> float:
        """The paper's "effective bandwidth" readout.

        A 1 ms slot carries many packets on a 25G link, so a protocol
        sees roughly availability x optimal throughput.
        """
        return self.overall_availability * optimal_gbps


def _uniform(traces: Sequence[HeadTrace]) -> bool:
    first = traces[0]
    return all(t.dt_s == first.dt_s and t.samples == first.samples
               for t in traces)


def simulate_dataset(traces: Sequence[HeadTrace],
                     params: TimeslotParams = TimeslotParams(),
                     workers: Optional[int] = 1,
                     store=None, group: str = "slots"
                     ) -> List[TimeslotResult]:
    """Replay every trace through the Section 5.4 model.

    A rectangular corpus (uniform ``dt_s`` / length — the generated
    datasets always are) runs as one :func:`simulate_batch` call and
    returns its per-trace views; a ragged one runs
    :func:`simulate_trace`, the same kernel, per trace.  Results come
    back in trace order for any ``workers`` setting (see
    ``repro.parallel``).  Passing ``store=`` persists the slot tensor
    as column group ``group`` (rectangular corpora only).
    """
    if not traces:
        raise ValueError("no traces to simulate")
    if _uniform(traces):
        return simulate_batch(traces, params=params, workers=workers,
                              store=store, group=group).results()
    if store is not None:
        raise ValueError("store= requires a rectangular corpus")
    return parallel_map(partial(simulate_trace, params=params),
                        traces, workers=workers)


def report(results: Sequence[TimeslotResult]) -> AvailabilityReport:
    """Aggregate slot connectivity into the Fig. 16 quantities."""
    if not results:
        raise ValueError("no results to aggregate")
    per_trace = np.array([r.availability for r in results])
    # Totals come straight from the connected arrays: one size read and
    # one popcount per trace, instead of rescanning via the off_slots
    # property.
    total_slots = sum(r.connected.size for r in results)
    total_on = sum(int(np.count_nonzero(r.connected)) for r in results)
    if total_slots == 0:
        raise ValueError("results contain no slots")
    return AvailabilityReport(
        per_trace_availability=per_trace,
        overall_availability=total_on / total_slots,
        best=float(per_trace.max()),
        worst=float(per_trace.min()),
    )
