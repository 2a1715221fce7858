"""Configuration containers for solved circle patterns, and the pattern
type that binds a configuration to its combinatorics and angles."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .errors import MalformedPattern

if TYPE_CHECKING:
    from .conditions import AngleAssignment
    from .triangulation import Triangulation

# the geometry modes; ``triples`` spells the same two names
EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
DISJOINT_EPS = 1e-9      # inversive slack distinguishing overlap from contact


@dataclass
class CurvatureReport:
    """Per-vertex cone angles / apex curvatures and the iteration trace."""

    sigma: Dict[int, float]
    curvature: Dict[int, float]
    max_abs_K: float
    iterations: int
    residual_trace: List[float] = field(default_factory=list)
    angle_residual: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "sigma": {str(k): v for k, v in self.sigma.items()},
            "curvature": {str(k): v for k, v in self.curvature.items()},
            "max_abs_K": self.max_abs_K,
            "iterations": self.iterations,
            "residual_trace": list(self.residual_trace),
            "angle_residual": self.angle_residual,
            "notes": list(self.notes),
        }


@dataclass
class EuclideanConfiguration:
    """Planar centers and radii, one disk per vertex, with the face hosting
    infinity removed from the layout."""

    centers: np.ndarray            # complex, shape (n,)
    radii: np.ndarray              # float, shape (n,)
    marked_face: Optional[Tuple[int, int, int]]
    normalized: Dict[str, bool] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.radii)


@dataclass
class SphericalConfiguration:
    """Unit-sphere cap centers (unit 3-vectors) and arc radii in (0, pi)."""

    centers: np.ndarray            # float, shape (n, 3)
    radii: np.ndarray              # float, shape (n,)
    marked_face: Optional[Tuple[int, int, int]]
    normalized: Dict[str, bool] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.radii)


@dataclass
class CirclePattern:
    """A configuration bound to its combinatorics and target angles."""

    triangulation: Triangulation
    theta: AngleAssignment
    mode: str
    centers: np.ndarray
    radii: np.ndarray
    marked_face: Optional[Tuple[int, int, int]] = None

    def __post_init__(self):
        self.centers = np.asarray(self.centers)
        self.radii = np.asarray(self.radii, dtype=float)
        n = self.triangulation.vertex_count
        if len(self.radii) != n or len(self.centers) != n:
            raise MalformedPattern("circle count does not match vertex count")
        if np.any(~np.isfinite(self.radii)) or np.any(self.radii <= 0):
            raise MalformedPattern("radii must be positive and finite")
        if self.marked_face is not None and not self.triangulation.is_face(self.marked_face):
            raise MalformedPattern(f"marked face {list(self.marked_face)} is not a face")
        if self.mode == SPHERICAL:
            if self.centers.shape != (n, 3):
                raise MalformedPattern("spherical centers must be unit 3-vectors")
            if np.any(self.radii >= math.pi):
                raise MalformedPattern("spherical radii must lie in (0, pi)")
            norms = np.linalg.norm(self.centers, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-8):
                raise MalformedPattern("spherical centers must be unit vectors")
        elif self.mode == EUCLIDEAN:
            self.centers = self.centers.astype(complex)
            if self.centers.shape != (n,):
                raise MalformedPattern("planar centers must be complex scalars")
        else:
            raise MalformedPattern(f"unknown mode {self.mode!r}")

    @classmethod
    def from_euclidean(cls, t: Triangulation, theta: AngleAssignment,
                       cfg: EuclideanConfiguration) -> "CirclePattern":
        return cls(t, theta, EUCLIDEAN, cfg.centers, cfg.radii, cfg.marked_face)

    @classmethod
    def from_spherical(cls, t: Triangulation, theta: AngleAssignment,
                       cfg: SphericalConfiguration) -> "CirclePattern":
        return cls(t, theta, SPHERICAL, cfg.centers, cfg.radii, cfg.marked_face)

    # -- pairwise quantities -------------------------------------------

    def inversive_matrix(self) -> np.ndarray:
        if self.mode == EUCLIDEAN:
            d2 = np.abs(self.centers[:, None] - self.centers[None, :]) ** 2
            r2 = self.radii * self.radii
            out = (d2 - r2[:, None] - r2[None, :]) / (2.0 * np.outer(self.radii, self.radii))
        else:
            dots = self.centers @ self.centers.T
            cr, sr = np.cos(self.radii), np.sin(self.radii)
            out = (np.outer(cr, cr) - dots) / np.outer(sr, sr)
        np.fill_diagonal(out, -1.0)
        return out

    def realized_cos(self) -> np.ndarray:
        return self.inversive_matrix()[tuple(self.triangulation.edge_array.T)]

    def classify_pair(self, inv: float) -> str:
        if inv > 1.0 + DISJOINT_EPS:
            return "disjoint"
        if inv >= 1.0 - DISJOINT_EPS:
            return "tangent"
        if inv > -1.0 + DISJOINT_EPS:
            return "overlapping"
        return "nested"

    def point_in_disks(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Boolean (num points, num disks) closed-disk membership matrix."""
        return _in_disks(self, points, np.arange(len(self.radii)), slack)


def _in_disks(p: CirclePattern, points: np.ndarray, disks, slack: float) -> np.ndarray:
    """Columns ``disks`` of ``p.point_in_disks(points, slack)``, for those disks only."""
    if p.mode == EUCLIDEAN:
        d = np.abs(points[:, None] - p.centers[None, disks])
        return d <= p.radii[None, disks] - slack
    # BLAS rounds a one-column product unlike a column of a wider one: pad to two
    cols = np.resize(disks, max(len(disks), 2)) if len(disks) else disks
    dots = (points @ p.centers[cols].T)[:, :len(disks)]
    return dots >= np.cos(p.radii[disks])[None, :] + slack
