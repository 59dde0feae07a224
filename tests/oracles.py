"""Reference implementations the engines in ``src/`` are tested against.

* The Section 5.4 pipeline: ``src/repro`` has one engine per stage --
  the batched tensor engines in ``repro.motion.batch`` and
  ``repro.simulate.batch`` -- and every per-trace or dataset API is a
  view of them.  The original per-sample and per-slot loops live here
  instead, written for clarity rather than speed, and the tests assert
  the engines reproduce them bit for bit (``np.array_equal``, never
  ``allclose``).
* The Section 4.3 closed loop: ``G'`` and ``P`` on the scalar
  ``Ray``/``Plane`` trace with an ``lstsq`` 2x2 solve.  ``src/`` runs
  both on the array ``G`` kernel with a closed-form solve; the tests
  hold them to the same converge/diverge outcome and voltages within
  one DAQ step.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro import constants
from repro.core import GmaModel, LearnedSystem, PointingCommand
from repro.core.inverse import (
    DEFAULT_VOLTAGE_STEP_V,
    EPSILON_V,
    InverseDivergedError,
    InverseResult,
)
from repro.core.pointing import (
    MAX_POINTING_ITERATIONS,
    PointingDivergedError,
)
from repro.determinism import derive
from repro.geometry import NoIntersectionError, Plane
from repro.motion import VIDEO_360, HeadTrace, TraceProfile
from repro.simulate import TimeslotParams, TimeslotResult
from repro.vrh import Pose


def ou_series_reference(n: int, dt: float, tau: float, sigma: float,
                        rng: np.random.Generator) -> np.ndarray:
    """A zero-mean Ornstein-Uhlenbeck path (stationary start), per sample."""
    series = np.empty(n)
    series[0] = rng.normal(0.0, sigma)
    decay = math.exp(-dt / tau)
    innovation = sigma * math.sqrt(max(1.0 - decay * decay, 1e-12))
    for i in range(1, n):
        series[i] = decay * series[i - 1] + innovation * rng.normal()
    return series


def saccade_series(n: int, dt: float, rate_hz: float, peak: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Angular-velocity bursts: bell-shaped, Poisson arrivals.

    Burst parameters are drawn one burst at a time; the kernels are
    accumulated with one ``np.add.at`` scatter, in burst order.
    """
    series = np.zeros(n)
    if rate_hz <= 0 or peak <= 0:
        return series
    expected = rate_hz * n * dt
    bursts = []
    for _ in range(rng.poisson(expected)):
        center = rng.integers(0, n)
        duration_s = rng.uniform(0.15, 0.45)
        width = max(int(duration_s / dt), 2)
        magnitude = peak * rng.lognormal(0.0, 0.4) * rng.choice([-1.0, 1.0])
        bursts.append((int(center), width, magnitude))
    if not bursts:
        return series
    indices = np.concatenate([np.arange(max(c - w, 0), min(c + w, n))
                              for c, w, _ in bursts])
    deposits = np.concatenate([
        m * np.exp(-0.5 * ((np.arange(max(c - w, 0), min(c + w, n)) - c)
                           / (w / 2.5)) ** 2)
        for c, w, m in bursts])
    np.add.at(series, indices, deposits)
    return series


def generate_trace_reference(viewer: int, video: int,
                             profile: TraceProfile = VIDEO_360,
                             duration_s: float = constants.TRACE_DURATION_S,
                             dt_s: float = constants.TRACE_REPORT_PERIOD_S,
                             seed: int = 0) -> HeadTrace:
    """Synthesize one viewing trace, one random stream at a time.

    The stream is derived from ``(seed, viewer, video)``; draws happen
    in the order activity, yaw/pitch/roll OU paths, saccades, sway.
    """
    rng = derive(seed, viewer, video)
    n = int(round(duration_s / dt_s)) + 1
    viewer_activity = rng.lognormal(0.0, profile.activity_sigma)
    video_activity = rng.lognormal(0.0, profile.activity_sigma)
    activity = min(viewer_activity * video_activity, profile.activity_cap)

    wander = math.radians(profile.wander_speed_deg_s) * activity
    omega = np.zeros((n, 3))
    omega[:, 2] = ou_series_reference(n, dt_s, 0.8, wander, rng)  # yaw
    omega[:, 1] = ou_series_reference(n, dt_s, 0.8, wander * 0.45, rng)
    omega[:, 0] = ou_series_reference(n, dt_s, 0.8, wander * 0.2, rng)
    saccades = saccade_series(
        n, dt_s, profile.saccade_rate_hz,
        math.radians(profile.saccade_peak_deg_s) * activity, rng)
    omega[:, 2] += saccades

    velocity = np.column_stack([
        ou_series_reference(n, dt_s, 1.2,
                            profile.sway_speed_m_s * activity, rng)
        for _ in range(3)])
    velocity[:, 2] *= 0.4  # vertical sway is smaller

    eulers = np.cumsum(omega * dt_s, axis=0)
    positions = np.cumsum(velocity * dt_s, axis=0)
    positions -= positions[0]

    step_linear = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    step_angular = np.linalg.norm(omega[1:], axis=1) * dt_s
    return HeadTrace(viewer=viewer, video=video, dt_s=dt_s,
                     positions=positions, eulers=eulers,
                     step_linear_m=step_linear,
                     step_angular_rad=step_angular)


def simulate_trace_reference(trace: HeadTrace,
                             params: TimeslotParams = TimeslotParams()
                             ) -> TimeslotResult:
    """Replay one trace through the 1 ms-slot model, slot by slot."""
    slots_per_report = int(round(trace.dt_s / params.slot_s))
    if slots_per_report < 1:
        raise ValueError("slots must be finer than the report period")
    n_steps = len(trace.step_linear_m)
    connected = np.empty(n_steps * slots_per_report, dtype=bool)

    # The link begins aligned: only the TP residual is present.
    lateral_err = params.residual_lateral_m
    angular_err = params.residual_angular_rad
    slot_index = 0
    for step in range(n_steps):
        lateral_rate = trace.step_linear_m[step] / slots_per_report
        angular_rate = trace.step_angular_rad[step] / slots_per_report
        for sub in range(slots_per_report):
            # A report arrived at the start of this interval; the
            # realignment lands tp_latency_slots later, snapping the
            # error back to the TP residual.  When tp_latency_slots >=
            # slots_per_report this never fires and the link drifts
            # forever (the modelled "TP too slow" regime).
            if sub == params.tp_latency_slots and step > 0:
                lateral_err = params.residual_lateral_m
                angular_err = params.residual_angular_rad
            lateral_err += lateral_rate
            angular_err += angular_rate
            connected[slot_index] = (
                lateral_err <= params.lateral_tolerance_m
                and angular_err <= params.angular_tolerance_rad)
            slot_index += 1
    return TimeslotResult(connected=connected, viewer=trace.viewer,
                          video=trace.video)


def solve_reference(model: GmaModel, target, v1: float = 0.0,
                    v2: float = 0.0,
                    voltage_step_v: float = DEFAULT_VOLTAGE_STEP_V,
                    max_iterations: int = 25) -> InverseResult:
    """``G'`` on the scalar trace: three ``Ray`` beams, ``lstsq`` step."""
    tau = np.asarray(target, dtype=float)
    for iteration in range(1, max_iterations + 1):
        beam0 = model.beam(v1, v2)
        plane = Plane(tau, beam0.direction)
        try:
            k0 = plane.intersect_ray(beam0, forward_only=False)
            k1 = plane.intersect_ray(model.beam(v1 + EPSILON_V, v2),
                                     forward_only=False)
            k2 = plane.intersect_ray(model.beam(v1, v2 + EPSILON_V),
                                     forward_only=False)
        except NoIntersectionError as exc:
            raise InverseDivergedError(
                f"beam became parallel to the target plane: {exc}") from exc
        u1 = (k1 - k0) / EPSILON_V
        u2 = (k2 - k0) / EPSILON_V
        basis = np.column_stack([u1, u2])
        coeffs, *_ = np.linalg.lstsq(basis, tau - k0, rcond=None)
        a, b = float(coeffs[0]), float(coeffs[1])
        v1 += a
        v2 += b
        if max(abs(a), abs(b)) < voltage_step_v:
            miss = model.beam(v1, v2).distance_to_point(tau)
            return InverseResult(v1=v1, v2=v2, iterations=iteration,
                                 miss_distance_m=miss)
    raise InverseDivergedError(
        f"G' did not converge on {tau} in {max_iterations} iterations")


def point_reference(system: LearnedSystem, reported_pose: Pose,
                    initial=(0.0, 0.0, 0.0, 0.0),
                    voltage_step_v: float = DEFAULT_VOLTAGE_STEP_V,
                    max_iterations: int = MAX_POINTING_ITERATIONS
                    ) -> PointingCommand:
    """``P`` on the scalar trace, over :func:`solve_reference`."""
    v_tx1, v_tx2, v_rx1, v_rx2 = (float(v) for v in initial)
    tx = system.tx_model_vr
    rx = system.rx_model_vr(reported_pose)
    for iteration in range(1, max_iterations + 1):
        p_t = tx.beam(v_tx1, v_tx2).origin
        p_r = rx.beam(v_rx1, v_rx2).origin
        tx_solution = solve_reference(tx, p_r, v_tx1, v_tx2,
                                      voltage_step_v=voltage_step_v)
        rx_solution = solve_reference(rx, p_t, v_rx1, v_rx2,
                                      voltage_step_v=voltage_step_v)
        moved = max(abs(tx_solution.v1 - v_tx1),
                    abs(tx_solution.v2 - v_tx2),
                    abs(rx_solution.v1 - v_rx1),
                    abs(rx_solution.v2 - v_rx2))
        v_tx1, v_tx2 = tx_solution.v1, tx_solution.v2
        v_rx1, v_rx2 = rx_solution.v1, rx_solution.v2
        if moved < voltage_step_v:
            return PointingCommand(v_tx1=v_tx1, v_tx2=v_tx2,
                                   v_rx1=v_rx1, v_rx2=v_rx2,
                                   iterations=iteration)
    raise PointingDivergedError(
        f"pointing did not settle in {max_iterations} iterations")
