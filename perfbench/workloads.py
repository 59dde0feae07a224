"""The three benchmark workloads and their output checks.

Each workload turns ``(workload seed, op index)`` into one op's input,
runs the op through the public API only, and checks the output:

* against the reference values in ``golden.json`` when the workload
  seed is :data:`DEFAULT_SEED` and the op index is recorded there;
* otherwise against the paper-shape bands the paper benches assert.

Ops are independent of each other and of the process that runs them,
so op ``i`` of a seed produces the same output whichever worker runs it
and whatever ran before it.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import constants
import repro.core.pointing as pointing
import repro.motion as motion
import repro.simulate as simulate
from repro.geometry import euler_to_matrix
from repro.simulate.rig import HOME_POSITION
from repro.vrh import Pose

#: Workload seed whose op outputs are recorded in ``golden.json``.
DEFAULT_SEED = 1

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: One DAQ step: the tolerance on calibrated pointing voltages.
DAQ_LSB_V = 20.0 / 2 ** 16

#: ``power_dbm`` is stored rounded to this step; samples must match
#: within :data:`POWER_TOLERANCE_DB`.
POWER_QUANTUM_DB = 1e-3
POWER_TOLERANCE_DB = 2e-3


def derive_seed(*parts) -> int:
    """A 31-bit seed from a workload seed and labels (stable anywhere)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class CheckFailed(Exception):
    """An op's output does not match its reference or its bands."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Interface: ``setup`` once, then ``make_input``/``run``/``check``."""

    name = ""
    #: Simulated seconds one op covers (0: not a simulation of time).
    sim_s = 0.0
    #: Ops the traced run records spans for.
    traced_ops = 1

    def __init__(self, seed: int, golden: Optional[Dict] = None) -> None:
        self.seed = seed
        recorded = golden or {}
        self.golden: List[Dict] = (recorded.get(self.name, [])
                                   if recorded.get("seed") == seed else [])

    def setup(self) -> None:
        """Everything an op needs that is not part of the op."""

    def op_seed(self, index: int) -> int:
        """Op ``index``'s seed.  The warm-up op (index -1) is the same
        for every workload seed, so set-up does the same work."""
        return derive_seed(self.name, self.seed if index >= 0 else "warm-up",
                           index)

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, op_input):
        raise NotImplementedError

    def summary(self, op_input, output) -> Dict:
        """The recorded form of an output (what ``golden.json`` holds)."""
        raise NotImplementedError

    def check(self, index: int, op_input, output) -> None:
        """Raise :class:`CheckFailed` unless the output is correct."""
        if 0 <= index < len(self.golden):
            self.check_reference(self.summary(op_input, output),
                                 self.golden[index])
        else:
            self.check_bands(op_input, output)

    def check_reference(self, got: Dict, want: Dict) -> None:
        raise NotImplementedError

    def check_bands(self, op_input, output) -> None:
        raise NotImplementedError


# -- handheld_session ----------------------------------------------------------

#: Fig. 14's rig and motion: the calibrated 10G bench testbed and a 40 s
#: hand-held ramp to 0.45 m/s and 28 deg/s.
RIG_SEED = 3
PROFILE_S = 40.0
PEAK_LINEAR_M_S = 0.45
PEAK_ANGULAR_DEG_S = 28.0
#: Each op replays one clip of the ramp.  Op ``i`` starts in stratum
#: ``i % STRATA`` of the ramp, so every run mixes slow and
#: link-breaking clips in equal shares.
CLIP_S = 2.0
STRATA = 4
#: Fig. 14 shape 4: the first 8 s of the ramp stay fully connected.
SLOW_PART_S = 8.0
#: Fig. 14 shape 3: received power stays above the -40s dBm.
POWER_FLOOR_DBM = -42.0


@dataclass
class _Window:
    """The profile seen from ``start_s`` on: a clip of a longer run."""

    profile: motion.HandheldProfile
    start_s: float
    duration_s: float

    def pose_at(self, t_s: float) -> Pose:
        return self.profile.pose_at(self.start_s + t_s)


@dataclass
class _Clip:
    testbed: simulate.Testbed
    window: _Window


def _pack_power(power: np.ndarray) -> str:
    steps = np.round(power / POWER_QUANTUM_DB).astype(np.int64)
    deltas = np.diff(steps, prepend=0).astype(np.int32)
    return base64.b64encode(zlib.compress(deltas.tobytes(), 9)).decode()


def _unpack_power(text: str) -> np.ndarray:
    deltas = np.frombuffer(zlib.decompress(base64.b64decode(text)),
                           dtype=np.int32)
    return np.cumsum(deltas.astype(np.int64)) * POWER_QUANTUM_DB


class HandheldSession(Workload):
    name = "handheld_session"
    sim_s = CLIP_S
    traced_ops = STRATA

    def setup(self) -> None:
        testbed = simulate.Testbed(seed=RIG_SEED)
        self.system = testbed.calibrate().system
        self.pristine = testbed

    def make_input(self, index: int) -> _Clip:
        motion_seed = self.op_seed(index)
        offset = np.random.default_rng(motion_seed).uniform()
        span = (PROFILE_S - CLIP_S) / STRATA
        start_s = (index % STRATA + offset) * span
        profile = motion.HandheldProfile(
            base_pose=self.pristine.home_pose,
            peak_linear_m_s=PEAK_LINEAR_M_S,
            peak_angular_rad_s=math.radians(PEAK_ANGULAR_DEG_S),
            duration_s=PROFILE_S, seed=motion_seed)
        # A private copy, so the tracker noise and mirror state an op
        # starts from never depend on which ops ran before it.
        return _Clip(copy.deepcopy(self.pristine),
                     _Window(profile, start_s, CLIP_S))

    def run(self, op_input: _Clip):
        session = simulate.PrototypeSession(op_input.testbed, self.system)
        return session.run(op_input.window)

    def summary(self, op_input, output) -> Dict:
        return {
            "start_s": op_input.window.start_s,
            "link_up_sha256": hashlib.sha256(
                np.packbits(output.link_up).tobytes()).hexdigest(),
            "slots": int(output.link_up.size),
            "up_slots": int(np.count_nonzero(output.link_up)),
            "pointing_calls": output.pointing_calls,
            "pointing_failures": output.pointing_failures,
            "coverage_failures": output.coverage_failures,
            "power_dbm": _pack_power(output.power_dbm),
        }

    def check_reference(self, got: Dict, want: Dict) -> None:
        for key in ("start_s", "slots", "up_slots", "link_up_sha256",
                    "pointing_calls", "pointing_failures",
                    "coverage_failures"):
            _require(got[key] == want[key],
                     f"{key}: {got[key]!r} != recorded {want[key]!r}")
        power = _unpack_power(got["power_dbm"])
        recorded = _unpack_power(want["power_dbm"])
        _require(power.shape == recorded.shape, "power_dbm length differs")
        worst = float(np.max(np.abs(power - recorded)))
        _require(worst <= POWER_TOLERANCE_DB,
                 f"power_dbm off by {worst:.4g} dB > {POWER_TOLERANCE_DB}")

    def check_bands(self, op_input, output) -> None:
        slots = int(round(CLIP_S / 1e-3))
        _require(output.link_up.size == slots, "wrong slot count")
        _require(bool(np.all(np.isfinite(output.power_dbm))),
                 "non-finite power")
        _require(float(output.power_dbm.min()) >= POWER_FLOOR_DBM,
                 f"power fell to {output.power_dbm.min():.1f} dBm")
        # One report every 12-15 ms, plus the initial one.
        _require(CLIP_S / 0.015 <= output.pointing_calls <= CLIP_S / 0.012 + 2,
                 f"{output.pointing_calls} pointing calls")
        _require(output.pointing_failures + output.coverage_failures
                 <= output.pointing_calls, "more failures than calls")
        if op_input.window.start_s + CLIP_S <= SLOW_PART_S:
            _require(bool(np.all(output.link_up)),
                     "link dropped during the slow part of the ramp")


# -- calibration ---------------------------------------------------------------

#: Held-out poses per calibration, drawn like Section 5.2's trials.
HELD_OUT_POSES = 10
#: Section 4.2 samples per calibration: a third of the full 30, so a
#: run holds enough calibrations for a steady median.  Every stage
#: (both board fits, the searches, the mapping fit) still runs; the
#: full calibration is timed in ``handheld_session``'s set-up.
MAPPING_SAMPLES = 10


class Calibration(Workload):
    name = "calibration"
    traced_ops = 2

    def make_input(self, index: int) -> int:
        return self.op_seed(index)

    def run(self, testbed_seed: int):
        testbed = simulate.Testbed(seed=testbed_seed)
        return testbed, testbed.calibrate(mapping_samples=MAPPING_SAMPLES)

    def _held_out(self, testbed_seed: int, testbed) -> List[tuple]:
        """(true pose, noise-free report) pairs near home."""
        rng = np.random.default_rng(derive_seed("held-out", testbed_seed))
        pairs = []
        for _ in range(HELD_OUT_POSES):
            position = HOME_POSITION + rng.uniform(-0.15, 0.15, size=3)
            orientation = euler_to_matrix(
                *rng.uniform(-math.radians(6), math.radians(6), size=3))
            pose = Pose(position, orientation)
            report = testbed.tracker.true_report_transform(pose)
            pairs.append((pose, Pose(report.translation, report.rotation)))
        return pairs

    def _commands(self, testbed_seed: int, output) -> List[tuple]:
        testbed, outcome = output
        return [(pose, pointing.point(outcome.system, report))
                for pose, report in self._held_out(testbed_seed, testbed)]

    def summary(self, testbed_seed, output) -> Dict:
        return {
            "testbed_seed": testbed_seed,
            "voltages": [[c.v_tx1, c.v_tx2, c.v_rx1, c.v_rx2]
                         for _, c in self._commands(testbed_seed, output)],
        }

    def check_reference(self, got: Dict, want: Dict) -> None:
        _require(got["testbed_seed"] == want["testbed_seed"],
                 "testbed seed differs from the recorded one")
        worst = float(np.max(np.abs(np.array(got["voltages"])
                                    - np.array(want["voltages"]))))
        _require(worst <= DAQ_LSB_V,
                 f"held-out voltages off by {worst:.3g} V > 1 LSB")

    def check_bands(self, testbed_seed, output) -> None:
        # Section 5.2: every lock-and-realign trial reaches the link.
        testbed, _ = output
        for pose, command in self._commands(testbed_seed, output):
            _require(1 <= command.iterations
                     <= pointing.MAX_POINTING_ITERATIONS,
                     f"{command.iterations} pointing iterations")
            testbed.apply_command(command)
            _require(testbed.channel.evaluate(pose).connected,
                     "held-out pose not connected after pointing")


# -- trace_corpus --------------------------------------------------------------

VIEWERS = 50
VIDEOS = 10
TRACE_S = constants.TRACE_DURATION_S


class TraceCorpus(Workload):
    name = "trace_corpus"
    sim_s = VIEWERS * VIDEOS * TRACE_S
    traced_ops = 2

    def make_input(self, index: int) -> int:
        return self.op_seed(index)

    def run(self, dataset_seed: int):
        traces = motion.generate_dataset(viewers=VIEWERS, videos=VIDEOS,
                                         duration_s=TRACE_S,
                                         seed=dataset_seed)
        results = simulate.simulate_dataset(traces)
        return (len(results), simulate.report(results),
                simulate.analyze(results))

    def summary(self, dataset_seed, output) -> Dict:
        count, availability, _ = output
        return {
            "dataset_seed": dataset_seed,
            "traces": count,
            "overall_availability": repr(availability.overall_availability),
            "per_trace_sha256": hashlib.sha256(
                np.ascontiguousarray(availability.per_trace_availability,
                                     dtype=np.float64).tobytes()
            ).hexdigest(),
        }

    def check_reference(self, got: Dict, want: Dict) -> None:
        for key in ("dataset_seed", "traces", "overall_availability",
                    "per_trace_sha256"):
            _require(got[key] == want[key],
                     f"{key}: {got[key]!r} != recorded {want[key]!r}")

    def check_bands(self, dataset_seed, output) -> None:
        # Fig. 16's paper-shape bands.
        count, availability, clustering = output
        _require(count == VIEWERS * VIDEOS, f"{count} traces")
        overall = availability.overall_availability
        _require(0.97 <= overall <= 0.999,
                 f"overall availability {overall:.4f}")
        _require(availability.best >= 0.9995,
                 f"best trace {availability.best:.5f}")
        _require(0.90 <= availability.worst <= 0.99,
                 f"worst trace {availability.worst:.4f}")
        _require(availability.effective_bandwidth_gbps(
                     constants.SFP_25G_OPTIMAL_THROUGHPUT_GBPS) > 22.0,
                 "effective bandwidth below 22 Gbps")
        _require(clustering.fraction_in_frames_below(10) > 0.45,
                 "off-slots too clustered")


WORKLOADS = {cls.name: cls for cls in (HandheldSession, Calibration,
                                       TraceCorpus)}


def load_golden() -> Dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
