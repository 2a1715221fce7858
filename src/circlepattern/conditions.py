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
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConditionsViolated, TooFewFaces
from .triangulation import (
    Circuit,
    Triangulation,
    canonical_edge,
    dual_of_trivalent,
    enumerate_simple_cycles,
    enumerate_two_arcs,
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


def _edge_tuple(t: Triangulation, eids: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    return tuple(t.edges[e] for e in eids)


# ---------------------------------------------------------------------------
# inequality engine, shared by the triangulation and polyhedron classes
#
# Each routine takes edge values indexed by edge id, ``label`` mapping an
# edge id to the edge name its certificates carry, and the condition tag.
# ---------------------------------------------------------------------------

MARDEN_TAGS = ("c1", "c2", "c3", "c4")
ANDREEV_TAGS = ("s1", "s2", "s3", "s4")

EdgeLabel = Callable[[int], Tuple[int, int]]


def _face_violations(t: Triangulation, vals: Sequence[float], label: EdgeLabel,
                     tag: str, min_sum: Optional[float] = None) -> List[Violation]:
    """Per face, each angle pair must stay below the third angle plus pi;
    with ``min_sum``, the face's angle sum must also exceed it."""
    out = []
    for fid in range(t.face_count):
        eids = t.face_edge_ids(fid)
        edges = tuple(map(label, eids))
        th = [vals[e] for e in eids]
        if min_sum is not None and compare(sum(th), min_sum) <= 0:
            out.append(Violation(tag, t.faces[fid], edges, sum(th), min_sum))
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            lhs = th[i] + th[j]
            bound = th[k] + PI
            if compare(lhs, bound) >= 0:
                out.append(Violation(tag, t.faces[fid], edges, lhs, bound))
    return out


def is_triangular_bipyramid(t: Triangulation) -> bool:
    """Structural test: 5 vertices, degree sequence (3,3,4,4,4), and the
    two degree-3 vertices non-adjacent."""
    if t.vertex_count != 5 or t.degree_sequence() != (3, 3, 4, 4, 4):
        return False
    apexes = [v for v in range(5) if t.degree(v) == 3]
    return not t.has_edge(apexes[0], apexes[1])


def _arc_violations(t: Triangulation, vals: Sequence[float], label: EdgeLabel,
                    tag: str) -> List[Violation]:
    """Homologically non-adjacent arc sums stay at or below pi; on the
    triangular bipyramid at least one of them must be strict."""
    out = []
    non_adjacent = [a for a in enumerate_two_arcs(t) if a.is_homologically_non_adjacent]
    any_strict = False
    for arc in non_adjacent:
        lhs = vals[arc.edges[0]] + vals[arc.edges[1]]
        cmp = compare(lhs, PI)
        if cmp > 0:
            out.append(Violation(tag, arc.vertices, tuple(map(label, arc.edges)), lhs, PI))
        elif cmp < 0:
            any_strict = True
    if non_adjacent and is_triangular_bipyramid(t) and not any_strict and not out:
        arc = non_adjacent[0]
        lhs = vals[arc.edges[0]] + vals[arc.edges[1]]
        out.append(Violation(f"{tag}-strict", arc.vertices, tuple(map(label, arc.edges)),
                             lhs, PI))
    return out


def _cycle_violations(t: Triangulation, vals: Sequence[float], label: EdgeLabel,
                      tags: Tuple[str, str],
                      keep: Callable[[Circuit], bool]) -> List[Violation]:
    """Kept 3-cycles sum below pi and kept 4-cycles below 2*pi; ``tags``
    names the two conditions."""
    out = []
    for cyc in enumerate_simple_cycles(t, 4):
        if not keep(cyc):
            continue
        k = len(cyc)
        lhs = sum(vals[e] for e in cyc.edges)
        bound = PI if k == 3 else 2.0 * PI
        if compare(lhs, bound) >= 0:
            out.append(Violation(tags[k - 3], cyc.vertices, tuple(map(label, cyc.edges)),
                                 lhs, bound))
    return out


def _violations(t: Triangulation, vals: Sequence[float], label: EdgeLabel,
                tags: Tuple[str, str, str, str], keep: Callable[[Circuit], bool],
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


def _face_sum_flags(t: Triangulation, theta: AngleAssignment):
    sums = [
        sum(theta[e] for e in t.face_edge_ids(fid)) for fid in range(t.face_count)
    ]
    m5_all = all(compare(s, PI) >= 0 for s in sums)
    g5_some = any(compare(s, PI) < 0 for s in sums)
    return sums, m5_all, g5_some


def _report(requested: str, violations: List[Violation],
            tags: Sequence[str]) -> ConditionReport:
    return ConditionReport(requested, not violations, _flags(violations, tags), violations)


def check_c1(t: Triangulation, theta: AngleAssignment) -> ConditionReport:
    v = _face_violations(t, theta.values, t.edges.__getitem__, "c1")
    return _report("c1", v, ("c1",))


def check_c2(t: Triangulation, theta: AngleAssignment) -> ConditionReport:
    v = _arc_violations(t, theta.values, t.edges.__getitem__, "c2")
    return _report("c2", v, ("c2",))


def check_c3_c4(t: Triangulation, theta: AngleAssignment) -> ConditionReport:
    v = _cycle_violations(t, theta.values, t.edges.__getitem__, ("c3", "c4"),
                          attrgetter("separates_vertices"))
    return _report("c3c4", v, ("c3", "c4"))


def classify(t: Triangulation, theta: AngleAssignment,
             requested: str = "marden") -> ConditionReport:
    """Aggregate class membership.

    Classes: ``marden`` (base conditions only), ``m5`` (no-interstice
    regime: every face sum at or above pi, strictly positive angles, more
    than four vertices) and ``g5`` (interstice regime: some face sum
    below pi).
    """
    violations = _violations(t, theta.values, t.edges.__getitem__, MARDEN_TAGS,
                             attrgetter("separates_vertices"))
    _, m5_all, g5_some = _face_sum_flags(t, theta)
    positive = all(compare(v, 0.0) > 0 for v in theta.values)
    flags = _flags(violations, MARDEN_TAGS)
    flags["m5"] = m5_all and positive and t.vertex_count > 4
    flags["g5"] = g5_some
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
    every 4-cycle sum exceeds 2*pi.)
    """
    if t.vertex_count <= 4:
        raise ValueError("the circuit-sum bound needs more than four vertices")
    require(t, theta, "marden")
    audit = []
    alarms: List[Violation] = []
    for cyc in enumerate_simple_cycles(t, max_len, cap=cap):
        if cyc.is_face_boundary:
            continue
        k = len(cyc)
        lhs = sum(theta[e] for e in cyc.edges)
        bound = (k - 2) * PI
        strict = not cyc.is_two_triangle_boundary
        cmp = compare(lhs, bound)
        ok = cmp < 0 if strict else cmp <= 0
        audit.append(
            {
                "cycle": list(cyc.vertices),
                "sum": lhs,
                "bound": bound,
                "strict": strict,
                "ok": ok,
            }
        )
        if not ok:
            alarms.append(Violation("audit", cyc.vertices, _edge_tuple(t, cyc.edges), lhs, bound))
    report = ConditionReport(
        "audit", not alarms, {"audit": not alarms}, alarms
    )
    report.circuit_sum_audit = audit
    return report


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
    vals = [0.0] * t.edge_count
    for pe, eid in to_dual.items():
        vals[eid] = canon[pe]
    # polyhedron vertices are dual faces: s1 adds the strict vertex-sum bound
    violations = _violations(t, vals, to_primal.__getitem__, ANDREEV_TAGS,
                             attrgetter("is_prismatic"), min_face_sum=PI)
    flags = _flags(violations, ANDREEV_TAGS)
    return ConditionReport("andreev", all(flags.values()), flags, violations)


def detect_whitehead(t: Triangulation) -> List[Circuit]:
    """All 4-cycles bounding two adjacent triangles, flagged essential when
    they split into two homologically non-adjacent arcs."""
    return [c for c in enumerate_simple_cycles(t, 4) if c.is_whitehead]
