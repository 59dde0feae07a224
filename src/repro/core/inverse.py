"""The reverse GMA function ``G'`` (Section 4.3).

``G'`` maps a target point ``tau`` to the voltage pair whose beam
passes through ``tau``.  No extra training is needed: the paper's
purely computational iteration linearizes ``G`` around the current
voltages via two finite differences, projects everything onto the plane
``P`` through ``tau`` perpendicular to the current beam, and solves a
2x2 system for the voltage update.  It converges in 2-4 iterations.

The iteration runs on the array kernel of :mod:`repro.core.gma`: the
three finite-difference beams are one kernel call, and the 2x2 solve
is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import numpy.typing as npt

from .gma import GmaModel

#: Finite-difference voltage step for the local linearization.
EPSILON_V = 0.01

#: Default convergence threshold: the DAQ's 16-bit voltage step.
DEFAULT_VOLTAGE_STEP_V = 20.0 / 2 ** 16

#: ``det / (|u1|^2 |u2|^2)`` (the squared sine of the angle between
#: ``u1`` and ``u2``) at or below which the 2x2 basis is degenerate.
DEGENERATE_BASIS = 1e-12


class InverseDivergedError(RuntimeError):
    """Raised when the G' iteration fails to converge on a target."""


@dataclass(frozen=True)
class InverseResult:
    """Solution of ``G'(tau)``: voltages plus convergence diagnostics."""

    v1: float
    v2: float
    iterations: int
    miss_distance_m: float


def _step(basis: np.ndarray, residual: np.ndarray) -> Tuple[float, float]:
    """Least-squares ``(a, b)`` with ``a u1 + b u2 ~= residual``.

    ``basis`` holds ``u1`` and ``u2`` as rows.  The 2x2 normal
    equations are solved in closed form.  A singular normal matrix
    (``u1`` parallel to ``u2``: both mirrors steer the beam along one
    line) has no unique step and raises.
    """
    (g11, g12), (_, g22) = (basis @ basis.T).tolist()
    c1, c2 = (basis @ residual).tolist()
    det = g11 * g22 - g12 * g12
    if not det > DEGENERATE_BASIS * g11 * g22:
        raise InverseDivergedError(
            f"degenerate G' basis: u1 and u2 are parallel (normal matrix "
            f"det {det:.3g}, diagonal {g11:.3g}, {g22:.3g})")
    return (g22 * c1 - g12 * c2) / det, (g11 * c2 - g12 * c1) / det


def solve(model: GmaModel, target: npt.ArrayLike,
          v1: float = 0.0, v2: float = 0.0,
          voltage_step_v: float = DEFAULT_VOLTAGE_STEP_V,
          max_iterations: int = 25) -> InverseResult:
    """Find voltages whose modelled beam passes through ``target``.

    Follows Section 4.3's four steps per iteration:

    1. evaluate ``G`` at ``(v1, v2)``, ``(v1 + eps, v2)`` and
       ``(v1, v2 + eps)`` -- one call of the array kernel
       (:meth:`GmaModel.beams`);
    2. build the plane ``P`` through ``tau`` perpendicular to the
       current beam, and intersect all three beams with it (``k0``,
       ``k1``, ``k2``);
    3. express the required in-plane displacement ``tau - k0`` in the
       basis of the per-epsilon displacements ``u1 = k1 - k0`` and
       ``u2 = k2 - k0`` by a least-squares 2x2 solve for ``(a, b)``;
    4. update ``v1 += a * eps``, ``v2 += b * eps``; stop once the
       update falls below the GM's minimum voltage step.

    Raises :class:`InverseDivergedError` when a beam runs parallel to
    ``P``, when ``u1`` and ``u2`` are parallel (no unique update), or
    after ``max_iterations``.
    """
    tau = np.asarray(target, dtype=float)
    for iteration in range(1, max_iterations + 1):
        origins, directions = model.beams(
            np.array([v1, v1 + EPSILON_V, v1]),
            np.array([v2, v2, v2 + EPSILON_V]))
        # P through tau with normal directions[0]: k = o + t d.
        denom = directions @ directions[0]
        if np.any(np.abs(denom) < 1e-12):
            raise InverseDivergedError(
                "beam became parallel to the target plane")
        t = ((tau - origins) @ directions[0]) / denom
        hits = origins + t[:, None] * directions
        # Rows u1 = (k1 - k0) / eps and u2 = (k2 - k0) / eps.
        a, b = _step((hits[1:] - hits[0]) / EPSILON_V, tau - hits[0])
        v1 += a
        v2 += b
        if max(abs(a), abs(b)) < voltage_step_v:
            origin, direction = model.beams(np.array([v1]), np.array([v2]))
            offset = tau - origin[0]
            miss = float(np.linalg.norm(
                offset - (offset @ direction[0]) * direction[0]))
            return InverseResult(v1=v1, v2=v2, iterations=iteration,
                                 miss_distance_m=miss)
    raise InverseDivergedError(
        f"G' did not converge on {tau} in {max_iterations} iterations")
