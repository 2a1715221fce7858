"""Solver option block shared by the Euclidean and spherical solvers."""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances, iteration limits and flags of a solve, checked on construction."""

    tol_K: float = 1e-10          # max apex-curvature residual at convergence
    tol_angle: float = 1e-8       # per-edge realized-angle tolerance
    tol_layout: float = 1e-8      # relative developing-map disagreement
    max_iters: int = 200
    diag_max: int = 6             # largest collapse-suspect subset reported
    min_step: float = 1e-5        # homotopy step floor
    auto_mark: bool = False       # pick a marked face automatically (CLI)

    def __post_init__(self):
        for name, ok in (("tol_K", 0.0 <= self.tol_K < float("inf")),
                         ("tol_angle", 0.0 <= self.tol_angle < float("inf")),
                         ("tol_layout", 0.0 <= self.tol_layout < float("inf")),
                         ("max_iters", _count(self.max_iters) and self.max_iters >= 0),
                         ("diag_max", _count(self.diag_max) and self.diag_max >= 1),
                         ("min_step", self.min_step > 0.0)):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)} is out of range")

    def with_(self, **kw) -> "SolveOptions":
        return replace(self, **kw)


def _count(x) -> bool:  # an integer, numpy's included, that is not a bool
    return isinstance(x, Integral) and not isinstance(x, bool)
