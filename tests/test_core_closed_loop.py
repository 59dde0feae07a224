"""``G'`` and ``P`` on the array kernel, held against the scalar oracles.

``repro.core.inverse.solve`` and ``repro.core.pointing.point`` evaluate
``G`` through :meth:`repro.core.gma.GmaModel.beams` and solve the 2x2
step in closed form.  ``tests/oracles.py`` keeps the scalar
``Ray``/``Plane`` + ``lstsq`` versions; here both run on the same
poses and must agree on the outcome (converged or diverged) and on the
voltages to within one DAQ step.
"""

import numpy as np
import pytest

from repro.core import (
    GmaModel,
    InverseDivergedError,
    PointingDivergedError,
    cold_start_seed,
    point,
    solve_inverse,
    trace_batch,
)
from repro.faults.events import EventLog
from repro.galvo import GmaParams, canonical_gma
from repro.geometry import euler_to_matrix
from repro.simulate import PrototypeSession, Supervisor
from repro.simulate import session as session_module
from repro.simulate.rig import HOME_POSITION
from repro.vrh import Pose

from tests.oracles import point_reference, solve_reference

#: One DAQ step: the agreement required between kernel and oracle.
DAQ_LSB_V = 20.0 / 2 ** 16

DIVERGED = (InverseDivergedError, PointingDivergedError)


def _poses(seed, count, position_range_m, angle_range_rad):
    """Uniform poses around home, from a private generator."""
    rng = np.random.default_rng(seed)
    return [Pose(HOME_POSITION + rng.uniform(-position_range_m,
                                             position_range_m, size=3),
                 euler_to_matrix(*rng.uniform(-angle_range_rad,
                                              angle_range_rad, size=3)))
            for _ in range(count)]


@pytest.fixture(scope="module")
def reports(testbed):
    """Noise-free reports: 100 poses in the rig's evaluation envelope
    (+/-0.15 m, +/-6 deg) and 100 edge poses (+/-0.15 m, +/-20 deg)."""
    poses = (_poses(41, 100, 0.15, np.radians(6.0))
             + _poses(42, 100, 0.15, np.radians(20.0)))
    out = []
    for pose in poses:
        transform = testbed.tracker.true_report_transform(pose)
        out.append(Pose(transform.translation, transform.rotation))
    return out


def _outcome(fn, *args, **kwargs):
    """Voltages of a solve, or the divergence type it raised."""
    try:
        result = fn(*args, **kwargs)
    except DIVERGED as exc:
        return type(exc).__name__
    if hasattr(result, "v_tx1"):
        return (result.v_tx1, result.v_tx2, result.v_rx1, result.v_rx2)
    return (result.v1, result.v2)


def _assert_agree(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert np.max(np.abs(np.subtract(got, want))) <= DAQ_LSB_V


class TestAgainstOracles:
    def test_inverse_matches_reference(self, learned_system, reports):
        tx = learned_system.tx_model_vr
        for report in reports:
            rx = learned_system.rx_model_vr(report)
            target = rx.beam(0.0, 0.0).origin
            _assert_agree(_outcome(solve_inverse, tx, target),
                          _outcome(solve_reference, tx, target))

    def test_pointing_matches_reference(self, learned_system, reports):
        outcomes = []
        for report in reports:
            got = _outcome(point, learned_system, report)
            _assert_agree(got, _outcome(point_reference, learned_system,
                                        report))
            outcomes.append(got)
        # The envelope is meaningful: most poses converge.
        assert sum(not isinstance(o, str) for o in outcomes) >= 150

    def test_warm_pointing_matches_reference(self, learned_system,
                                             reports):
        for report in reports[::4]:
            seed = cold_start_seed(learned_system, report)
            _assert_agree(
                _outcome(point, learned_system, report, initial=seed),
                _outcome(point_reference, learned_system, report,
                         initial=seed))


class TestKernel:
    def test_model_beams_equal_trace_batch(self, learned_system, rng):
        model = learned_system.tx_model_vr
        v1 = rng.uniform(-10.0, 10.0, size=50)
        v2 = rng.uniform(-10.0, 10.0, size=50)
        got = model.beams(v1, v2)
        want = trace_batch(model.params.to_vector(), v1, v2)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_empty_batch(self):
        origins, directions = trace_batch(
            canonical_gma(np.radians(1.0)).to_vector(), [], [])
        assert origins.shape == directions.shape == (0, 3)


def parallel_axes_model():
    """Both mirrors rotate about +z and the beam stays in one plane, so
    the two finite-difference displacements are parallel."""
    return GmaModel(GmaParams(
        p0=[-0.03, 0.0, 0.01], x0=[1.0, 0.0, 0.0],
        n1=[-1.0, 1.0, 0.0], q1=[0.0, 0.0, 0.01], r1=[0.0, 0.0, 1.0],
        n2=[1.0, -1.0, 0.0], q2=[0.0, 0.015, 0.01], r2=[0.0, 0.0, 1.0],
        theta1=np.radians(1.0)))


class TestDegenerateBasis:
    @pytest.mark.parametrize("target", [[1.5, 0.05, 0.01],
                                        [1.5, 0.05, 0.2]])
    def test_parallel_axes_raise_typed_error(self, target):
        # The lstsq step took a min-norm step here and reported
        # convergence, 0.19 m off target for the off-plane point.
        with pytest.raises(InverseDivergedError, match="degenerate"):
            solve_inverse(parallel_axes_model(), target)


class TestColdStartSeedOnce:
    def test_failed_cold_report_seeds_once(self, testbed, monkeypatch):
        calls = []

        def counting_seed(system, report):
            calls.append(report)
            return (0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(session_module, "cold_start_seed",
                            counting_seed)
        monkeypatch.setattr(PrototypeSession, "_point",
                            staticmethod(lambda system, report, seed: None))
        supervisor = Supervisor()
        supervisor.reset(EventLog())
        session = PrototypeSession(testbed, testbed.oracle_system())
        command = session._point_with_retries(
            0.1, session.system, testbed.home_pose, None, supervisor)
        assert command is None
        assert len(calls) == 1
