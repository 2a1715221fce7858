import json
import math

import numpy as np
import pytest

from circlepattern import (
    AngleAssignment,
    audit_circuit_sums,
    build_triangulation,
    check_andreev,
    check_c1,
    check_c2,
    check_c3_c4,
    classify,
    detect_whitehead,
    dual_of_trivalent,
    enumerate_two_arcs,
)
from circlepattern import shapes
from circlepattern.conditions import compare, is_triangular_bipyramid
from circlepattern.errors import ConditionsViolated, TooFewFaces
from circlepattern.triangulation import COND_EPS, _compare, face_sums

import oracles
from random_triangulations import loop_subdivide, stacked_faces

PI = math.pi


def poly_edges(faces):
    es = set()
    for cyc in faces:
        k = len(cyc)
        for i in range(k):
            u, v = cyc[i], cyc[(i + 1) % k]
            es.add((min(u, v), max(u, v)))
    return sorted(es)


def theta_map(t, theta):
    return {e: theta[i] for i, e in enumerate(t.edges)}


class TestC1:
    def test_zero_passes(self, octa):
        assert check_c1(octa, AngleAssignment.constant(octa, 0.0)).passed

    def test_spread_face_fails(self, tetra):
        vals = {e: 0.1 for e in tetra.edges}
        a, b, c = tetra.faces[0]
        vals[tetra.edges[tetra.edge_id(a, b)]] = 3.0
        vals[tetra.edges[tetra.edge_id(b, c)]] = 3.0
        vals[tetra.edges[tetra.edge_id(c, a)]] = 0.1
        th = AngleAssignment.from_dict(tetra, vals)
        rep = check_c1(tetra, th)
        assert not rep.passed
        v = rep.violations[0]
        assert v.lhs >= v.bound

    @pytest.mark.parametrize("value", [0.0, 0.7, PI / 2, 2.5, 3.1])
    def test_constant_always_passes(self, octa, value):
        assert check_c1(octa, AngleAssignment.constant(octa, value)).passed


class TestC2:
    def test_octahedron_third_pi(self, octa):
        assert check_c2(octa, AngleAssignment.constant(octa, PI / 3)).passed

    def test_octahedron_violation(self, octa):
        arc = [a for a in enumerate_two_arcs(octa) if a.is_homologically_non_adjacent][0]
        th = AngleAssignment.constant(octa, PI / 3).replaced(
            {arc.edges[0]: 2 * PI / 3, arc.edges[1]: 2 * PI / 3}
        )
        rep = check_c2(octa, th)
        assert not rep.passed
        assert rep.violations[0].condition == "c2"

    def test_bipyramid_strictness_clause(self, bipyr):
        assert is_triangular_bipyramid(bipyr)
        vals = {}
        for (u, v) in bipyr.edges:
            vals[(u, v)] = PI / 2 if (0 in (u, v) or 1 in (u, v)) else PI / 4
        th = AngleAssignment.from_dict(bipyr, vals)
        rep = check_c2(bipyr, th)
        assert not rep.passed
        assert rep.violations[0].condition == "c2-strict"
        # one strict arc rescues the clause
        arc = [a for a in enumerate_two_arcs(bipyr) if a.is_homologically_non_adjacent][0]
        th2 = th.replaced({arc.edges[0]: PI / 2 - 0.1})
        assert check_c2(bipyr, th2).passed

    def test_bipyramid_detection_is_structural(self, octa, tetra):
        assert not is_triangular_bipyramid(octa)
        assert not is_triangular_bipyramid(tetra)


class TestC3C4:
    def test_octahedron_half_pi_equatorial_violation(self, octa):
        rep = check_c3_c4(octa, AngleAssignment.constant(octa, PI / 2))
        assert not rep.passed
        fours = [v for v in rep.violations if v.condition == "c4"]
        assert len(fours) == 3  # the three separating 4-cycles, sum exactly 2*pi

    def test_octahedron_third_pi_passes(self, octa):
        assert check_c3_c4(octa, AngleAssignment.constant(octa, PI / 3)).passed

    def test_tetrahedron_vacuous(self, tetra):
        assert check_c3_c4(tetra, AngleAssignment.constant(tetra, 3.1)).passed


class TestCompareBoundary:
    def test_difference_of_exactly_cond_eps_is_equal(self):
        """A difference of exactly COND_EPS counts as equal, one of twice it
        does not: this pins ``<=`` (not ``<``) in both comparisons."""
        assert COND_EPS == 1e-12
        assert _compare(np.array([1e-12, -1e-12, 2e-12]), 0.0).tolist() == [0, 0, 1]
        assert compare(1e-12, 0.0) == 0
        assert compare(-1e-12, 0.0) == 0
        assert compare(2e-12, 0.0) == 1

    def test_face_sums_as_the_per_face_loop(self):
        """Sums added from 0 in edge order are the loop's floats, bit for
        bit, and each is compared with pi as ``compare`` does."""
        rng = np.random.default_rng(5)
        for t in shapes.shipped_triangulations().values():
            theta = AngleAssignment(t, tuple(rng.uniform(0.0, 3.0, t.edge_count)))
            sums, cmp = face_sums(t, theta.array())
            loop = [sum(theta[e] for e in t.face_edge_ids(f)) for f in range(t.face_count)]
            assert sums.tolist() == loop
            assert cmp.tolist() == [compare(s, math.pi) for s in loop]


class TestClassify:
    def test_tetra_zero_is_interstice_class(self, tetra):
        rep = classify(tetra, AngleAssignment.constant(tetra, 0.0))
        assert rep.class_flags["w_g"] and not rep.class_flags["m5"]

    def test_octa_third_pi_is_m5_not_g5(self, octa):
        rep = classify(octa, AngleAssignment.constant(octa, PI / 3))
        assert rep.class_flags["m5"] and not rep.class_flags["g5"]
        assert rep.class_flags["w_m"]

    def test_octa_quarter_pi_is_g5(self, octa):
        rep = classify(octa, AngleAssignment.constant(octa, PI / 4))
        assert rep.class_flags["g5"] and rep.class_flags["marden"]

    def test_monotone_upper_bound_conditions(self, shipped_small):
        """Pointwise smaller angles keep the upper-bound conditions."""
        rng = np.random.default_rng(7)
        for t in shipped_small.values():
            for _ in range(20):
                hi = rng.uniform(0.0, PI, t.edge_count)
                flags_hi = classify(t, AngleAssignment(t, tuple(np.nextafter(hi, 0))))
                if not (
                    flags_hi.class_flags["c2"]
                    and flags_hi.class_flags["c3"]
                    and flags_hi.class_flags["c4"]
                ):
                    continue
                lo = hi * rng.uniform(0.0, 1.0, t.edge_count)
                flags_lo = classify(t, AngleAssignment(t, tuple(lo)))
                assert flags_lo.class_flags["c2"]
                assert flags_lo.class_flags["c3"]
                assert flags_lo.class_flags["c4"]

    def test_convexity_of_admissible_class(self, octa, icosa):
        """Convex mixes of admissible data stay admissible."""
        rng = np.random.default_rng(11)
        for t in (octa, icosa):
            found = 0
            while found < 2:
                base = rng.uniform(PI / 3, PI / 2.2, t.edge_count)
                th0 = AngleAssignment(t, tuple(base))
                th1 = AngleAssignment(
                    t, tuple(np.clip(base + rng.uniform(-0.05, 0.08, t.edge_count), 0.1, 3.0))
                )
                r0 = classify(t, th0, "m5")
                r1 = classify(t, th1, "m5")
                if not (r0.passed and r1.passed):
                    continue
                found += 1
                for lam in (0.25, 0.5, 0.9):
                    mix = (1 - lam) * np.asarray(th0.values) + lam * np.asarray(th1.values)
                    assert classify(t, AngleAssignment(t, tuple(mix)), "m5").passed


class TestAudit:
    def test_octahedron_quarter_pi(self, octa):
        rep = audit_circuit_sums(octa, AngleAssignment.constant(octa, PI / 4), 6)
        assert rep.passed
        assert len(rep.circuit_sum_audit) > 0

    def test_icosahedron_zero(self, icosa):
        rep = audit_circuit_sums(icosa, AngleAssignment.constant(icosa, 0.0), 5)
        assert rep.passed

    def test_requires_admissible_input(self, octa):
        with pytest.raises(ConditionsViolated):
            audit_circuit_sums(octa, AngleAssignment.constant(octa, PI / 2), 4)

    @pytest.mark.parametrize("faces, theta", [
        (loop_subdivide(shapes.icosahedron().faces, 3), 0.0),
        (stacked_faces(np.random.default_rng(2024), 300), 0.3),
        (loop_subdivide(shapes.icosahedron().faces, 2), (0.0, PI / 2)),
    ], ids=["ico642-t0", "stack300-t0.3", "ico162-random"])
    def test_matches_per_circuit_reference(self, faces, theta):
        """The index-array audit serializes exactly like the per-``Circuit``
        loop, record by record; a pair is a band for seeded random angles."""
        t = build_triangulation(faces)
        vals = (np.random.default_rng(14).uniform(*theta, t.edge_count)
                if isinstance(theta, tuple) else np.full(t.edge_count, theta))
        th = AngleAssignment(t, tuple(vals.tolist()))
        got, want = audit_circuit_sums(t, th, 6), oracles.reference_audit(t, th, 6)
        assert got.circuit_sum_audit == want.circuit_sum_audit
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    def test_no_alarms_on_random_admissible(self, shipped_small):
        rng = np.random.default_rng(3)
        checked = 0
        for t in shipped_small.values():
            if t.vertex_count <= 4:
                continue  # bound not guaranteed on the tetrahedron
            for _ in range(40):
                theta = rng.uniform(0.0, PI / 2, t.edge_count)
                rep = classify(t, AngleAssignment(t, tuple(theta)))
                if rep.class_flags["marden"]:
                    audit = audit_circuit_sums(t, AngleAssignment(t, tuple(theta)), 6)
                    assert audit.passed
                    checked += 1
        assert checked > 20


class TestAndreev:
    def test_cube_obtuse_fails_prismatic_four(self):
        cube = shapes.cube_faces()
        rep = check_andreev(cube, {e: 2 * PI / 3 for e in poly_edges(cube)})
        assert not rep.passed
        assert rep.class_flags["s1"]
        s4 = [v for v in rep.violations if v.condition == "s4"]
        assert s4 and all(abs(v.lhs - 8 * PI / 3) < 1e-12 for v in s4)

    def test_cube_slightly_over_right_angle(self):
        cube = shapes.cube_faces()
        rep = check_andreev(cube, {e: PI / 2 + 0.05 for e in poly_edges(cube)})
        assert not rep.passed
        s4 = [v for v in rep.violations if v.condition == "s4"]
        assert s4 and all(abs(v.lhs - (2 * PI + 0.2)) < 1e-12 for v in s4)

    def test_dodecahedron_has_no_prismatic_circuits(self):
        dod = shapes.dodecahedron_faces()
        rep = check_andreev(dod, {e: 2 * PI / 3 for e in poly_edges(dod)})
        # no prismatic 3- or 4-circuits on the icosahedral dual
        assert rep.class_flags["s3"] and rep.class_flags["s4"]
        assert rep.class_flags["s1"]
        # obtuse constant data still fails: non-adjacent arc sums exceed pi
        assert not rep.passed
        assert {v.condition for v in rep.violations} == {"s2"}

    def test_dodecahedron_classical_angles_pass(self):
        dod = shapes.dodecahedron_faces()
        rep = check_andreev(dod, {e: 2 * PI / 5 for e in poly_edges(dod)})
        assert rep.passed

    def test_too_few_faces(self):
        with pytest.raises(TooFewFaces):
            check_andreev(shapes.tetrahedron_faces(), {})

    def test_matches_dual_classification(self, shipped_small):
        """Per-condition agreement with classify on the dual triangulation,
        flag by flag and certificate by certificate."""
        rng = np.random.default_rng(23)
        for t in shipped_small.values():
            if t.vertex_count <= 4:
                continue
            poly = shapes.polyhedron_from_triangulation(t)
            dual, to_dual, _ = dual_of_trivalent(poly)
            for _ in range(25):
                vals = rng.uniform(0.05, PI - 0.05, t.edge_count)
                th = AngleAssignment(t, tuple(vals))
                marden = classify(t, th)
                flags = marden.class_flags
                rep = check_andreev(poly, _transfer(poly, t, vals))
                # dual vertex i is polyhedron face i, which is vertex i of t
                rename = lambda pe: dual.edges[to_dual[pe]]
                # the face-sum certificates of s1 are the ones bounded by pi
                s1_pairwise = [v for v in rep.violations if v.bound > PI]
                for got, want in (
                    (_certificates(s1_pairwise, "s1", rename),
                     _certificates(marden.violations, "c1")),
                    (_certificates(rep.violations, "s2", rename),
                     _certificates(marden.violations, "c2")),
                    (_certificates(rep.violations, "s3", rename),
                     _certificates(marden.violations, "c3")),
                ):
                    assert [c[:2] for c in got] == [c[:2] for c in want], t.faces
                    assert np.allclose([c[2:] for c in got], [c[2:] for c in want],
                                       rtol=0.0, atol=1e-12)
                # s2 is literally c2; prismatic 3-circuits are the separating
                # 3-cycles, so s3 is literally c3
                assert rep.class_flags["s2"] == flags["c2"], t.faces
                assert rep.class_flags["s3"] == flags["c3"]
                # prismatic 4-circuits are a subset of separating 4-cycles
                if flags["c4"]:
                    assert rep.class_flags["s4"]
                # the pairwise part of s1 is c1; the sum part is the strict
                # face-sum condition, implied by m5 with strict sums
                if not flags["c1"]:
                    assert not rep.class_flags["s1"]


def _certificates(violations, tag, rename=lambda e: e):
    """Violations of one condition, its ``-strict`` form included, as a
    sorted multiset of (witness vertex set, edge set, lhs, bound)."""
    return sorted(
        (tuple(sorted(v.witness)), tuple(sorted(map(rename, v.edges))), v.lhs, v.bound)
        for v in violations if v.condition.split("-")[0] == tag
    )


def _transfer(poly, t, vals):
    """Angles keyed by polyhedron edges, matching the dual edge bijection."""
    _, to_dual, _ = dual_of_trivalent(poly)
    out = {}
    for pe, eid in to_dual.items():
        out[pe] = float(vals[eid])
    return out


class TestWhitehead:
    def test_tetrahedron_none_essential(self, tetra):
        circuits = detect_whitehead(tetra)
        assert len(circuits) == 3
        assert not any(c.is_essential_whitehead for c in circuits)

    def test_bipyramid_apex_circuits_essential(self, bipyr):
        circuits = detect_whitehead(bipyr)
        essential = [c for c in circuits if c.is_essential_whitehead]
        assert len(circuits) == 9
        assert len(essential) == 3
        for c in essential:
            assert {0, 1} <= set(c.vertices)  # both apexes on the circuit

    def test_octahedron_essential_iff_antipodal_split(self, octa):
        for c in detect_whitehead(octa):
            v = c.vertices
            d1 = not octa.has_edge(v[0], v[2])
            d2 = not octa.has_edge(v[1], v[3])
            assert c.is_essential_whitehead == (d1 or d2)


class TestBruteForceAgreement:
    def test_classify_matches_oracle(self, shipped_small):
        rng = np.random.default_rng(99)
        for name, t in shipped_small.items():
            faces = [tuple(f) for f in t.faces]
            for k in range(30):
                if k % 3 == 0:
                    vals = rng.uniform(0.0, PI, t.edge_count)
                elif k % 3 == 1:
                    vals = rng.uniform(0.0, PI / 2, t.edge_count)
                else:
                    vals = rng.uniform(PI / 4, PI / 2.5, t.edge_count)
                vals = np.nextafter(vals, 0)
                th = AngleAssignment(t, tuple(vals))
                got = classify(t, th).class_flags
                want = oracles.brute_condition_flags(
                    faces, t.vertex_count, theta_map(t, vals)
                )
                for key in want:
                    assert got[key] == want[key], (name, key, vals)
