"""Rigid transforms (SE(3)) with a 6-parameter encoding.

Section 4.2 learns the K-space -> VR-space mapping for each GMA as six
parameters (a rigid transform per Corke's robotics text).  We encode a
transform as ``(tx, ty, tz, roll, pitch, yaw)`` so the 12 mapping
parameters of the joint fit are simply the concatenation of two of these
vectors, directly optimizable by ``scipy.optimize.least_squares``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ray import Ray
from .rotation import euler_to_matrix, is_rotation_matrix, matrix_to_euler
from .vec import as_vec3


@dataclass(frozen=True)
class RigidTransform:
    """A rotation followed by a translation: ``x -> R x + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if not is_rotation_matrix(r, tol=1e-6):
            raise ValueError("rotation must be a proper rotation matrix")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", as_vec3(self.translation))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, rotation: np.ndarray,
                 translation: np.ndarray) -> "RigidTransform":
        """Build without validation from parts already known good.

        For float64 ``(3, 3)`` / ``(3,)`` arrays derived from validated
        transforms or poses (a product or transpose of rotations that
        passed :meth:`__post_init__`): re-checking them would only
        repeat the check their inputs already passed.
        """
        transform = object.__new__(cls)
        object.__setattr__(transform, "rotation", rotation)
        object.__setattr__(transform, "translation", translation)
        return transform

    @classmethod
    def identity(cls) -> "RigidTransform":
        """The do-nothing transform."""
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_params(cls, params) -> "RigidTransform":
        """Build from the 6-vector ``(tx, ty, tz, roll, pitch, yaw)``."""
        arr = np.asarray(params, dtype=float)
        if arr.shape != (6,):
            raise ValueError(f"expected 6 parameters, got shape {arr.shape}")
        rotation = euler_to_matrix(arr[3], arr[4], arr[5])
        return cls(rotation, arr[:3])

    def to_params(self) -> np.ndarray:
        """Inverse of :meth:`from_params`."""
        roll, pitch, yaw = matrix_to_euler(self.rotation)
        return np.concatenate([self.translation, [roll, pitch, yaw]])

    # -- application -------------------------------------------------------

    def apply_point(self, point) -> np.ndarray:
        """Transform a point (rotation and translation)."""
        return self.rotation @ as_vec3(point) + self.translation

    def apply_direction(self, direction) -> np.ndarray:
        """Transform a direction (rotation only)."""
        return self.rotation @ as_vec3(direction)

    def apply_ray(self, ray: Ray) -> Ray:
        """Transform a ray: move its origin, rotate its direction."""
        return Ray(self.apply_point(ray.origin),
                   self.apply_direction(ray.direction))

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """``self after other``: apply ``other`` first, then ``self``."""
        return RigidTransform._trusted(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        """The transform undoing this one."""
        r_inv = self.rotation.T
        return RigidTransform._trusted(r_inv, -(r_inv @ self.translation))

    def almost_equal(self, other: "RigidTransform",
                     tol: float = 1e-9) -> bool:
        """True when both transforms agree within ``tol``."""
        return (np.allclose(self.rotation, other.rotation, atol=tol)
                and np.allclose(self.translation, other.translation,
                                atol=tol))
