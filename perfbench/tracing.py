"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions and methods listed in
:data:`LAYERS` for the duration of a traced op and restores the
originals afterwards; nothing under ``src/`` knows it is being traced.
A function imported by name into other modules (``from ..core import
point``) is replaced everywhere it is bound, so every call site is seen.

Each call becomes one span ``(name, start, end, parent, op)`` kept in
memory.  A layer's self time is its span's duration minus the time its
child spans cover.  Counters that the layer's return value or exception
carries (iterations, evaluations, rows, divergences) are summed at the
same boundary.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of the op itself: its self time is what no layer claimed.
OP = "op"

#: Exceptions that mean a ``P`` or ``G'`` solve diverged.
_DIVERGED = ("PointingDivergedError", "InverseDivergedError")

#: Units of the optional per-layer stats; the rest are counts.
_UNITS = {"p50_us": "us", "p99_us": "us", "success_ratio": "ratio"}


@dataclass(frozen=True)
class Layer:
    """One traced boundary and the stats it reports beyond calls/self_s.

    ``extra`` names stats from: ``p50_us``/``p99_us`` (call duration),
    ``iters_mean`` (mean of ``count`` over calls that returned),
    ``diverged`` and ``success_ratio`` (calls that raised a divergence),
    or any other name, which reports the sum of ``count``.
    """

    name: str                  # metric prefix: the module path minus repro.
    module: str
    attr: str                  # "func" or "Class.method"
    extra: Tuple[str, ...] = ()
    count: Optional[Callable] = None   # result -> number


LAYERS: Tuple[Layer, ...] = (
    # Scalar geometry and pointing: the session's inner loop.
    Layer("core.pointing.point", "repro.core.pointing", "point",
          ("p50_us", "p99_us", "iters_mean", "diverged", "success_ratio"),
          lambda result: result.iterations),
    Layer("core.pointing.cold_start_seed", "repro.core.pointing",
          "cold_start_seed"),
    Layer("core.inverse.solve", "repro.core.inverse", "solve",
          ("iters_mean", "diverged"), lambda result: result.iterations),
    Layer("galvo.mirror.trace", "repro.galvo.mirror", "trace"),
    Layer("link.channel.FsoChannel.evaluate", "repro.link.channel",
          "FsoChannel.evaluate", ("p50_us",)),
    # Per-slot and per-report bookkeeping of the closed loop.
    Layer("vrh.tracker.VrhTracker.report", "repro.vrh.tracker",
          "VrhTracker.report"),
    Layer("motion.arbitrary.HandheldProfile.pose_at",
          "repro.motion.arbitrary", "HandheldProfile.pose_at"),
    Layer("simulate.rig.Testbed.apply_command", "repro.simulate.rig",
          "Testbed.apply_command"),
    Layer("link.state.LinkStateMachine.observe", "repro.link.state",
          "LinkStateMachine.observe"),
    Layer("net.iperf.ThroughputMeter.record", "repro.net.iperf",
          "ThroughputMeter.record"),
    Layer("simulate.session.PrototypeSession.run", "repro.simulate.session",
          "PrototypeSession.run"),
    # Section 4.1 + 4.2 calibration.
    Layer("simulate.rig.Testbed.init", "repro.simulate.rig",
          "Testbed.__init__"),
    Layer("core.kspace.BoardRig.collect_samples", "repro.core.kspace",
          "BoardRig.collect_samples"),
    Layer("core.kspace.fit_gma", "repro.core.kspace", "fit_gma"),
    Layer("core.gma.trace_batch", "repro.core.gma", "trace_batch",
          ("rows",), lambda result: len(result[0])),
    Layer("core.alignment.search", "repro.core.alignment", "search",
          ("evaluations",), lambda result: result.evaluations),
    Layer("core.mapping.fit_mapping", "repro.core.mapping", "fit_mapping"),
    Layer("core.mapping.coincidence_residuals", "repro.core.mapping",
          "coincidence_residuals"),
    # Fig. 16 trace pipeline.
    Layer("motion.batch.generate_batch", "repro.motion.batch",
          "generate_batch", ("traces",), len),
    Layer("motion.batch.TraceBatch.traces", "repro.motion.batch",
          "TraceBatch.traces"),
    Layer("simulate.batch.simulate_batch", "repro.simulate.batch",
          "simulate_batch", ("slots",),
          lambda result: len(result) * result.slots),
    Layer("simulate.batch.BatchTimeslotResult.results",
          "repro.simulate.batch", "BatchTimeslotResult.results"),
    Layer("simulate.availability.report", "repro.simulate.availability",
          "report"),
    Layer("simulate.clustering.analyze", "repro.simulate.clustering",
          "analyze"),
    Layer("parallel.parallel_map_arrays", "repro.parallel",
          "parallel_map_arrays"),
)

#: Tracer-level metrics reported beside the layers.
TRACE_METRICS = (
    ("trace.ops", "count", "lower"),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.traced_op_s", "s", "lower"),
    ("trace.overhead_x", "ratio", "lower"),
)


def _prefixes() -> List[Tuple[str, Tuple[str, ...]]]:
    """The op span and every layer, with the extra stats each reports."""
    return [(OP, ())] + [(layer.name, layer.extra) for layer in LAYERS]


def metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in order."""
    specs = []
    for name, extra in _prefixes():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        for stat in extra:
            specs.append((f"{name}.{stat}", _UNITS.get(stat, "count"),
                          "higher" if stat == "success_ratio" else "lower"))
    specs.extend(TRACE_METRICS)
    return specs


@dataclass
class _Stats:
    calls: int = 0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    total: float = 0.0         # sum of the layer's ``count``
    counted: int = 0           # calls that returned
    diverged: int = 0

    def stat(self, name: str) -> float:
        """One ``Layer.extra`` stat; 0.0 for a layer never called."""
        if name in ("p50_us", "p99_us"):
            return _quantile(self.durations,
                             0.5 if name == "p50_us" else 0.99) * 1e6
        if name == "iters_mean":
            return self.total / self.counted if self.counted else 0.0
        if name == "diverged":
            return self.diverged
        if name == "success_ratio":
            return ((self.calls - self.diverged) / self.calls
                    if self.calls else 0.0)
        return self.total


class Tracer:
    """Installs span-recording wrappers and aggregates what they saw."""

    def __init__(self) -> None:
        # Spans as parallel lists: name, start, end, parent index, op id.
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self._stack: List[int] = []
        self._layers: Dict[str, _Stats] = {}   # counters by layer name
        self._op = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every layer's function with its recording wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(layer, original))
                continue
            original = getattr(module, layer.attr)
            wrapper = self._wrap(layer, original)
            # Rebind every name the function is imported under.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        """Restore every original function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        """Trace the layers for the duration of a ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        count = layer.count
        counters = self._layers.setdefault(name, _Stats())
        diverges = "diverged" in layer.extra
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if diverges and type(exc).__name__ in _DIVERGED:
                    counters.diverged += 1
                raise
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if count is not None:
                counters.total += count(result)
                counters.counted += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- recording ------------------------------------------------------------

    def run_op(self, op_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as one op: a root span over the layers."""
        self._op = op_id
        index = len(self.names)
        self.names.append(OP)
        self.parents.append(-1)
        self.ops.append(op_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ends[index] = time.perf_counter()
            self.starts[index] = start
            self._stack.pop()
            self._op = -1

    # -- aggregation ----------------------------------------------------------

    def stats(self) -> Dict[str, _Stats]:
        """Calls, self time, durations and counters per span name."""
        durations = [end - start for start, end
                     in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        stats = {name: _Stats(total=c.total, counted=c.counted,
                              diverged=c.diverged)
                 for name, c in self._layers.items()}
        for index, name in enumerate(self.names):
            entry = stats.setdefault(name, _Stats())
            entry.calls += 1
            entry.self_s += durations[index] - child_time[index]
            entry.durations.append(durations[index])
        return stats

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric of :func:`metric_specs` except the
        ``trace.*`` ones, which the caller measures."""
        stats = self.stats()
        metrics: Dict[str, float] = {}
        for name, extra in _prefixes():
            entry = stats.get(name, _Stats())
            metrics[f"{name}.calls"] = entry.calls
            metrics[f"{name}.self_s"] = entry.self_s
            for stat in extra:
                metrics[f"{name}.{stat}"] = entry.stat(stat)
        return metrics

    def write_spans(self, path) -> None:
        """All spans as columns: names are interned to keep it small."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": table,
                "name": [code[n] for n in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "op": self.ops,
            }, handle)


def _quantile(values: List[float], q: float) -> float:
    """Inclusive-method quantile; 0.0 for a layer that was never called."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]
