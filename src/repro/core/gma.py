"""The learnable GMA model ``G`` (Section 4.1-A).

``G(v1, v2) -> (p, x)`` maps the two galvo voltages to the output
beam's originating point and direction.  The parameterized expression
itself lives in :func:`repro.galvo.mirror.trace`; this module adds:

* :class:`GmaModel` -- a thin, frame-aware wrapper the pointing
  algorithms use; :meth:`GmaModel.beams` runs the array kernel below
  on constants cached per model;
* :func:`trace_batch` -- a fully vectorized evaluation of ``G`` over
  many voltage pairs at once, which the least-squares fits call inside
  their residual functions (the scalar path would be ~100x slower).
  It is :func:`_layout` (the per-parameter-set constants) plus
  :func:`_trace_rows` (cos/sin and two reflect passes);
* :func:`board_hits` -- the ``f(G(v1, v2))`` composition of Section
  4.1-B: where the beams land on the calibration board.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Tuple

import numpy as np
import numpy.typing as npt

from ..galvo import GmaParams, mirror_planes, trace
from ..geometry import Plane, Ray, RigidTransform


class _Layout(NamedTuple):
    """Per-parameter-set constants of the array ``G`` kernel.

    Everything :func:`_trace_rows` needs that does not depend on the
    voltages: unit input direction, unit normals and axes, and each
    mirror's Rodrigues terms ``r_i x n_i`` and ``r_i . n_i``.
    """

    p0: np.ndarray
    x0: np.ndarray
    q1: np.ndarray
    r1: np.ndarray
    n1: np.ndarray
    r1_cross_n1: np.ndarray
    r1_dot_n1: float
    q2: np.ndarray
    r2: np.ndarray
    n2: np.ndarray
    r2_cross_n2: np.ndarray
    r2_dot_n2: float
    theta1: float


def _layout(vector: npt.ArrayLike) -> _Layout:
    """The kernel constants of a 25-parameter encoding."""
    vec = np.asarray(vector, dtype=float)

    def unit(v: np.ndarray) -> np.ndarray:
        return v / np.linalg.norm(v)

    r1, n1 = unit(vec[12:15]), unit(vec[6:9])
    r2, n2 = unit(vec[21:24]), unit(vec[15:18])
    return _Layout(
        p0=vec[0:3], x0=unit(vec[3:6]),
        q1=vec[9:12], r1=r1, n1=n1, r1_cross_n1=np.cross(r1, n1),
        r1_dot_n1=float(np.dot(r1, n1)),
        q2=vec[18:21], r2=r2, n2=n2, r2_cross_n2=np.cross(r2, n2),
        r2_dot_n2=float(np.dot(r2, n2)),
        theta1=vec[24])


@dataclass(frozen=True)
class GmaModel:
    """A learned (or hypothesized) GMA model in a particular frame."""

    params: GmaParams

    @cached_property
    def _constants(self) -> _Layout:
        return _layout(self.params.to_vector())

    def beam(self, v1: float, v2: float) -> Ray:
        """Evaluate ``G(v1, v2)``: the predicted output beam."""
        return trace(self.params, v1, v2)

    def beams(self, v1: np.ndarray, v2: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``G`` over (n,) voltage arrays on the array kernel.

        Returns ``(origins, directions)``, each (n, 3), equal to
        :func:`trace_batch` on ``params.to_vector()``.  The kernel
        constants are computed once per model.  ``G'`` and ``P`` run
        here; :meth:`beam` (the scalar trace) agrees to ULP level.
        """
        return _trace_rows(self._constants, v1, v2)

    def second_mirror_plane(self, v1: float, v2: float) -> Plane:
        """The predicted second-mirror plane at these voltages."""
        return mirror_planes(self.params, self.params.theta1 * v1,
                             self.params.theta1 * v2)[1]

    def transformed(self, transform: RigidTransform) -> "GmaModel":
        """The same model expressed in another coordinate frame."""
        return GmaModel(self.params.transformed(transform))


def _rotate_about(axis: np.ndarray, axis_cross: np.ndarray,
                  axis_dot: float, vector: np.ndarray,
                  angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of one vector by many angles (vectorized).

    ``axis`` and ``vector`` are (3,), ``axis_cross``/``axis_dot`` their
    cross and dot product; ``angles`` is (n,).  Returns (n, 3):
    ``vector`` rotated by each angle about ``axis``.
    """
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    return (cos * vector + sin * axis_cross
            + (1.0 - cos) * axis_dot * axis)


def _reflect_batch(origins: np.ndarray, directions: np.ndarray,
                   normals: np.ndarray, pivot: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Reflect n beams off n mirror planes sharing one pivot point.

    Returns ``(strike_points, reflected_directions)``, each (n, 3).
    Rays parallel to their mirror produce non-finite strike points,
    which the fit's residuals turn into large errors (as they should).
    """
    denom = np.einsum("ij,ij->i", directions, normals)
    # Avoid a divide-by-zero warning; the result is inf/nan anyway and
    # the caller treats non-finite hits as unusable.
    safe = np.where(np.abs(denom) < 1e-300, np.nan, denom)
    offsets = pivot[None, :] - origins
    t = np.einsum("ij,ij->i", offsets, normals) / safe
    strikes = origins + t[:, None] * directions
    reflected = directions - 2.0 * denom[:, None] * normals
    return strikes, reflected


def _trace_rows(layout: _Layout, v1: np.ndarray, v2: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """The array ``G`` kernel: rotate both normals, reflect twice."""
    normals1 = _rotate_about(layout.r1, layout.r1_cross_n1,
                             layout.r1_dot_n1, layout.n1, layout.theta1 * v1)
    normals2 = _rotate_about(layout.r2, layout.r2_cross_n2,
                             layout.r2_dot_n2, layout.n2, layout.theta1 * v2)
    # One input beam for every row: (1, 3) rows broadcast against the
    # (n, 3) normals.
    mid_points, mid_dirs = _reflect_batch(layout.p0[None, :],
                                          layout.x0[None, :], normals1,
                                          layout.q1)
    return _reflect_batch(mid_points, mid_dirs, normals2, layout.q2)


def trace_batch(vector: npt.ArrayLike, v1: npt.ArrayLike,
                v2: npt.ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``G`` over many voltage pairs.

    ``vector`` is the 25-parameter encoding of
    :meth:`repro.galvo.GmaParams.to_vector`; ``v1``/``v2`` are (n,)
    voltage arrays.  Returns ``(origins, directions)``, each (n, 3).
    Unlike the scalar path, no normalization or validation is applied:
    the optimizer is free to wander through slightly non-unit normals,
    and the residuals stay smooth.
    """
    return _trace_rows(_layout(vector), np.asarray(v1, dtype=float),
                       np.asarray(v2, dtype=float))


def board_hits(vector: npt.ArrayLike, v1: npt.ArrayLike,
               v2: npt.ArrayLike, board: Plane) -> np.ndarray:
    """Where the modelled beams land on the calibration board.

    Returns (n, 3) world points; beams that never reach the board
    yield non-finite coordinates.
    """
    origins, directions = trace_batch(vector, v1, v2)
    denom = directions @ board.normal
    safe = np.where(np.abs(denom) < 1e-300, np.nan, denom)
    offsets = board.point[None, :] - origins
    t = (offsets @ board.normal) / safe
    return origins + t[:, None] * directions
