"""Admissibility conditions on exterior-angle assignments.

Decides membership of a triangulation plus angle function in the solvable
classes (the base class, the no-interstice class, the interstice class)
and of a trivalent polyhedron plus dihedral angles in the compact
hyperbolic class, emitting violation certificates with numeric slack.

Comparison semantics: quantities within ``COND_EPS`` of a bound count as
equal, so equality-admitting clauses are not flipped by float drift while
strict clauses reject borderline values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConditionsViolated, TooFewFaces
from .triangulation import (
    Circuit,
    Triangulation,
    _circuits,
    canonical_edge,
    cycle_arrays,
    dual_of_trivalent,
    two_arc_arrays,
)

COND_EPS = 1e-12

PI = math.pi


def compare(lhs: float, bound: float, eps: float = COND_EPS) -> int:
    """-1, 0, +1 for below / equal (within eps) / above."""
    if abs(lhs - bound) <= eps:
        return 0
    return -1 if lhs < bound else 1


@dataclass(frozen=True)
class AngleAssignment:
    """Exterior intersection angles on the edges of a triangulation."""

    triangulation: Triangulation
    values: Tuple[float, ...]

    def __post_init__(self):
        t = self.triangulation
        if len(self.values) != t.edge_count:
            raise ValueError(
                f"{len(self.values)} angles for {t.edge_count} edges"
            )
        for v in self.values:
            if not (math.isfinite(v) and 0.0 <= v < PI):
                raise ValueError(f"angle {v} outside [0, pi)")

    @classmethod
    def from_dict(cls, t: Triangulation, theta: Dict[Tuple[int, int], float]) -> "AngleAssignment":
        canon = {canonical_edge(*e): float(v) for e, v in theta.items()}
        missing = [e for e in t.edges if e not in canon]
        extra = [e for e in canon if e not in t.edge_index]
        if missing or extra:
            raise ValueError(f"missing edges {missing}, unknown edges {extra}")
        return cls(t, tuple(canon[e] for e in t.edges))

    @classmethod
    def constant(cls, t: Triangulation, value: float) -> "AngleAssignment":
        return cls(t, (float(value),) * t.edge_count)

    def __getitem__(self, eid: int) -> float:
        return self.values[eid]

    def edge_value(self, u: int, v: int) -> float:
        return self.values[self.triangulation.edge_id(u, v)]

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def replaced(self, updates: Dict[int, float]) -> "AngleAssignment":
        vals = list(self.values)
        for eid, v in updates.items():
            vals[eid] = float(v)
        return AngleAssignment(self.triangulation, tuple(vals))


@dataclass(frozen=True)
class Violation:
    """One failed inequality, with the witness and its numeric slack."""

    condition: str
    witness: Tuple[int, ...]          # vertices of the face / cycle / arc
    edges: Tuple[Tuple[int, int], ...]
    lhs: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.lhs

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "witness": list(self.witness),
            "edges": [list(e) for e in self.edges],
            "lhs": self.lhs,
            "bound": self.bound,
            "slack": self.slack,
        }


@dataclass
class ConditionReport:
    """Outcome of a class-membership check."""

    requested: str
    passed: bool
    class_flags: Dict[str, bool]
    violations: List[Violation] = field(default_factory=list)
    circuit_sum_audit: Optional[List[dict]] = None

    def to_dict(self) -> dict:
        out = {
            "requested": self.requested,
            "passed": self.passed,
            "class_flags": dict(self.class_flags),
            "violations": [v.to_dict() for v in self.violations],
        }
        if self.circuit_sum_audit is not None:
            out["audit"] = self.circuit_sum_audit
        return out


# ---------------------------------------------------------------------------
# inequality engine, shared by the triangulation and polyhedron classes
#
# Each routine takes edge values indexed by edge id, ``label`` mapping an
# edge id to the edge name its certificates carry, and the condition tag.
# ---------------------------------------------------------------------------

MARDEN_TAGS = ("c1", "c2", "c3", "c4")
ANDREEV_TAGS = ("s1", "s2", "s3", "s4")

EdgeLabel = Callable[[int], Tuple[int, int]]


def _compare(lhs: np.ndarray, bound) -> np.ndarray:
    """``compare`` over arrays."""
    return np.where(np.abs(lhs - bound) <= COND_EPS, 0, np.where(lhs < bound, -1, 1))


def face_sums(t: Triangulation, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each face's angle sum, added from 0 in edge order, and its ``compare`` with pi."""
    sums = sum(vals[t.face_edges].T)
    return sums, _compare(sums, PI)


def _certificates(tag: str, witnesses: np.ndarray, eids: np.ndarray, lhs: np.ndarray,
                  bound, label: EdgeLabel) -> List[Violation]:
    """One violation per row: the rows of the failing witnesses, their edge
    ids, sums and bounds."""
    bound = np.broadcast_to(bound, lhs.shape)
    return [Violation(tag, tuple(w), tuple(map(label, e)), x, b) for w, e, x, b
            in zip(witnesses.tolist(), eids.tolist(), lhs.tolist(), bound.tolist())]


def _face_violations(t: Triangulation, vals: np.ndarray, label: EdgeLabel,
                     tag: str, min_sum: Optional[float] = None) -> List[Violation]:
    """Per face, each angle pair must stay below the third angle plus pi;
    with ``min_sum``, the face's angle sum must also exceed it."""
    th = vals[t.face_edges]
    # per face: the angle sum, then per edge k the other two angles' sum
    lhs = np.column_stack((sum(th.T), th[:, 1] + th[:, 2], th[:, 2] + th[:, 0],
                           th[:, 0] + th[:, 1]))
    bound = np.column_stack((np.full(len(th), PI if min_sum is None else min_sum), th + PI))
    fail = _compare(lhs, bound) >= 0
    fail[:, 0] = min_sum is not None and _compare(lhs[:, 0], min_sum) <= 0
    fid, col = np.nonzero(fail)
    return _certificates(tag, t.face_array[fid], t.face_edges[fid], lhs[fid, col],
                         bound[fid, col], label)


def is_triangular_bipyramid(t: Triangulation) -> bool:
    """Structural test: 5 vertices, degree sequence (3,3,4,4,4), and the
    two degree-3 vertices non-adjacent."""
    if t.vertex_count != 5 or t.degree_sequence() != (3, 3, 4, 4, 4):
        return False
    apexes = [v for v in range(5) if t.degree(v) == 3]
    return not t.has_edge(apexes[0], apexes[1])


def _arc_violations(t: Triangulation, vals: np.ndarray, label: EdgeLabel,
                    tag: str) -> List[Violation]:
    """Homologically non-adjacent arc sums stay at or below pi; on the
    triangular bipyramid at least one of them must be strict."""
    arcs = two_arc_arrays(t)
    keep = arcs["is_homologically_non_adjacent"]
    verts, eids = arcs["vertices"][keep], arcs["edges"][keep]
    lhs = vals[eids[:, 0]] + vals[eids[:, 1]]
    cmp = _compare(lhs, PI)
    out = _certificates(tag, verts[cmp > 0], eids[cmp > 0], lhs[cmp > 0], PI, label)
    if len(lhs) and is_triangular_bipyramid(t) and not (cmp < 0).any() and not out:
        out = _certificates(f"{tag}-strict", verts[:1], eids[:1], lhs[:1], PI, label)
    return out


def _cycle_violations(t: Triangulation, vals: np.ndarray, label: EdgeLabel,
                      tags: Tuple[str, str], keep: str) -> List[Violation]:
    """3-cycles sum below pi and 4-cycles below 2*pi, where the flag named
    ``keep`` is set; ``tags`` names the two conditions."""
    out = []
    for cycles, tag, bound in zip(cycle_arrays(t, 4), tags, (PI, 2.0 * PI)):
        verts, eids = cycles["vertices"][cycles[keep]], cycles["edges"][cycles[keep]]
        lhs = sum(vals[eids].T)  # summed in edge order, from 0, as a scalar sum would be
        fail = _compare(lhs, bound) >= 0
        out += _certificates(tag, verts[fail], eids[fail], lhs[fail], bound, label)
    return out


def _violations(t: Triangulation, vals: np.ndarray, label: EdgeLabel,
                tags: Tuple[str, str, str, str], keep: str,
                min_face_sum: Optional[float] = None) -> List[Violation]:
    """The four conditions in order: face, arc, 3- and 4-cycle."""
    return (
        _face_violations(t, vals, label, tags[0], min_face_sum)
        + _arc_violations(t, vals, label, tags[1])
        + _cycle_violations(t, vals, label, tags[2:], keep)
    )


def _flags(violations: Sequence[Violation], tags: Sequence[str]) -> Dict[str, bool]:
    """Per tag, whether no violation carries it (``c2-strict`` counts as c2)."""
    failed = {v.condition.split("-")[0] for v in violations}
    return {tag: tag not in failed for tag in tags}


def _report(requested: str, violations: List[Violation],
            tags: Sequence[str]) -> ConditionReport:
    return ConditionReport(requested, not violations, _flags(violations, tags), violations)


def check_c1(t: Triangulation, theta: AngleAssignment) -> ConditionReport:
    v = _face_violations(t, theta.array(), t.edges.__getitem__, "c1")
    return _report("c1", v, ("c1",))


def check_c2(t: Triangulation, theta: AngleAssignment) -> ConditionReport:
    v = _arc_violations(t, theta.array(), t.edges.__getitem__, "c2")
    return _report("c2", v, ("c2",))


def check_c3_c4(t: Triangulation, theta: AngleAssignment) -> ConditionReport:
    v = _cycle_violations(t, theta.array(), t.edges.__getitem__, ("c3", "c4"),
                          "separates_vertices")
    return _report("c3c4", v, ("c3", "c4"))


def classify(t: Triangulation, theta: AngleAssignment,
             requested: str = "marden") -> ConditionReport:
    """Aggregate class membership.

    Classes: ``marden`` (base conditions only), ``m5`` (no-interstice
    regime: every face sum at or above pi, strictly positive angles, more
    than four vertices) and ``g5`` (interstice regime: some face sum
    below pi).
    """
    vals = theta.array()
    violations = _violations(t, vals, t.edges.__getitem__, MARDEN_TAGS, "separates_vertices")
    _, face_cmp = face_sums(t, vals)
    flags = _flags(violations, MARDEN_TAGS)
    flags["m5"] = bool((face_cmp >= 0).all() and (_compare(vals, 0.0) > 0).all()
                       and t.vertex_count > 4)
    flags["g5"] = bool((face_cmp < 0).any())
    base = all(flags[tag] for tag in MARDEN_TAGS)
    flags["marden"] = base
    flags["w_m"] = base and flags["m5"]
    flags["w_g"] = base and flags["g5"]
    if requested == "marden":
        passed = base
    elif requested == "m5":
        passed = flags["w_m"]
    elif requested == "g5":
        passed = flags["w_g"]
    else:
        raise ValueError(f"unknown class {requested!r}")
    return ConditionReport(requested, passed, flags, violations)


def require(t: Triangulation, theta: AngleAssignment, requested: str) -> ConditionReport:
    report = classify(t, theta, requested)
    if not report.passed:
        raise ConditionsViolated(
            f"angle data is not in class {requested!r}", report=report
        )
    return report


# ---------------------------------------------------------------------------
# circuit-sum audit
# ---------------------------------------------------------------------------

def audit_circuit_sums(t: Triangulation, theta: AngleAssignment, max_len: int,
                       cap: int = 10 ** 6) -> ConditionReport:
    """Internal-consistency audit: every simple cycle of length k that is
    not a face boundary must satisfy sum(theta) <= (k-2)*pi, strictly
    unless the cycle bounds two adjacent triangles.

    This inequality is guaranteed for data passing the base conditions on
    triangulations with more than four vertices, so any alarm indicates an
    enumeration bug, not bad input.  (On the tetrahedron the guarantee
    genuinely fails: equal angles near pi pass the base conditions while
    every 4-cycle sum exceeds 2*pi.)  The cycles are the index arrays of
    ``cycle_arrays``, checked by the same engine as the conditions.
    """
    if t.vertex_count <= 4:
        raise ValueError("the circuit-sum bound needs more than four vertices")
    require(t, theta, "marden")
    vals = theta.array()
    audit: List[dict] = []
    alarms: List[Violation] = []
    for cycles in cycle_arrays(t, max_len, cap):
        unset = np.zeros(len(cycles["vertices"]), dtype=bool)
        keep = ~cycles.get("is_face_boundary", unset)
        verts, eids = cycles["vertices"][keep], cycles["edges"][keep]
        strict = ~cycles.get("is_two_triangle_boundary", unset)[keep]
        lhs = sum(vals[eids].T)  # summed in edge order, from 0, as a scalar sum would be
        bound = (verts.shape[1] - 2) * PI
        cmp = _compare(lhs, bound)
        ok = np.where(strict, cmp < 0, cmp <= 0)
        audit += [{"cycle": c, "sum": x, "bound": bound, "strict": s, "ok": o} for c, x, s, o
                  in zip(verts.tolist(), lhs.tolist(), strict.tolist(), ok.tolist())]
        alarms += _certificates("audit", verts[~ok], eids[~ok], lhs[~ok], bound,
                                t.edges.__getitem__)
    return ConditionReport("audit", not alarms, {"audit": not alarms}, alarms, audit)


# ---------------------------------------------------------------------------
# trivalent polyhedron conditions
# ---------------------------------------------------------------------------

def check_andreev(poly_faces: Sequence[Sequence[int]],
                  theta: Dict[Tuple[int, int], float]) -> ConditionReport:
    """Membership test for the compact hyperbolic polyhedron class of a
    trivalent polyhedron with prescribed dihedral angles in (0, pi).

    Conditions, reported in the polyhedron's own edge labels:
      s1  at every vertex the three edge angles sum above pi and satisfy
          the pairwise bounds theta_i + theta_j < theta_k + pi;
      s2  homologically non-adjacent arc sums stay at or below pi (one
          strict when the polyhedron is the triangular prism);
      s3  prismatic 3-circuit sums below pi;
      s4  prismatic 4-circuit sums below 2*pi.
    """
    if len(poly_faces) <= 4:
        raise TooFewFaces("need more than four faces")
    t, to_dual, to_primal = dual_of_trivalent(poly_faces)
    canon = {canonical_edge(*e): float(v) for e, v in theta.items()}
    if set(canon) != set(to_dual):
        missing = sorted(set(to_dual) - set(canon))
        extra = sorted(set(canon) - set(to_dual))
        raise ValueError(f"missing edges {missing}, unknown edges {extra}")
    domain = [Violation("domain", pe, (pe,), v, PI)
              for pe, v in canon.items() if not (0.0 < v < PI)]
    if domain:
        return ConditionReport("andreev", False, {"domain": False}, domain)
    vals = np.zeros(t.edge_count)
    for pe, eid in to_dual.items():
        vals[eid] = canon[pe]
    # polyhedron vertices are dual faces: s1 adds the strict vertex-sum bound
    violations = _violations(t, vals, to_primal.__getitem__, ANDREEV_TAGS, "is_prismatic",
                             min_face_sum=PI)
    flags = _flags(violations, ANDREEV_TAGS)
    return ConditionReport("andreev", all(flags.values()), flags, violations)


def detect_whitehead(t: Triangulation) -> List[Circuit]:
    """All 4-cycles bounding two adjacent triangles, flagged essential when
    they split into two homologically non-adjacent arcs."""
    fours = cycle_arrays(t, 4)[1]
    return _circuits("closed", {name: col[fours["is_whitehead"]] for name, col in fours.items()})
