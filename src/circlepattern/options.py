"""Solver option block shared by the Euclidean and spherical solvers."""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

from .triples import ANGLE_TOL

SUSPECT_SIZE = 6  # largest suspect subset, of diagnose and of a failing solve


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances, iteration limits and flags of a solve, checked on construction."""

    tol_K: float = 1e-10          # planar only: max apex-curvature residual at convergence
    tol_angle: float = ANGLE_TOL  # both: per-edge realized-angle tolerance, as in verify
    tol_layout: float = 1e-8      # planar only: relative developing-map disagreement
    max_iters: int = 200          # planar only: curvature Newton step limit
    diag_max: int = SUSPECT_SIZE  # both: largest collapse-suspect subset reported
    min_step: float = 1e-5        # spherical only: homotopy step floor
    auto_mark: bool = False       # planar only: pick a marked face automatically (CLI)

    def __post_init__(self):
        for name, ok in (("tol_K", 0.0 <= self.tol_K < float("inf")),
                         ("tol_angle", 0.0 <= self.tol_angle < float("inf")),
                         ("tol_layout", 0.0 <= self.tol_layout < float("inf")),
                         ("max_iters", _count(self.max_iters) and self.max_iters >= 0),
                         ("diag_max", _count(self.diag_max) and self.diag_max >= 1),
                         ("min_step", 0.0 < self.min_step < float("inf"))):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)} is out of range")

    def with_(self, **kw) -> "SolveOptions":
        return replace(self, **kw)


def _count(x) -> bool:  # an integer, numpy's included, that is not a bool
    return isinstance(x, Integral) and not isinstance(x, bool)
