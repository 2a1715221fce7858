import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circlepattern import (
    AngleAssignment,
    build_polyhedron,
    check_polyhedron,
    export_obj,
    solve_spherical,
    verify_pattern,
)
from circlepattern import shapes, spherical, triple_records, triples
from circlepattern.conditions import compare
from circlepattern.errors import MalformedPattern, SingularTriple, VertexOutsideBall
from circlepattern.polyhedron import HyperbolicPolyhedron, polyhedron_to_dict
from circlepattern.verify import CirclePattern

import oracles

PI = math.pi

# derandomized, without an example database, so every run checks the same
# triples
PROPERTY = settings(max_examples=300)


@pytest.fixture(scope="module")
def octa_pattern():
    t = shapes.octahedron()
    th = AngleAssignment.constant(t, PI / 3)
    cfg, _ = solve_spherical(t, th)
    return CirclePattern.from_spherical(t, th, cfg)


@pytest.fixture(scope="module")
def icosa_pattern():
    t = shapes.icosahedron()
    th = AngleAssignment.constant(t, 2 * PI / 5)
    cfg, _ = solve_spherical(t, th)
    return CirclePattern.from_spherical(t, th, cfg)


class TestIdealBoundaryCase:
    """Octahedron at uniform pi/3 sits exactly on the no-interstice class
    boundary: every face's circles meet in one point, so all dual vertices
    are ideal and the strict builder must refuse."""

    def test_strict_build_rejects(self, octa_pattern):
        with pytest.raises(VertexOutsideBall):
            build_polyhedron(octa_pattern)

    def test_allow_ideal_yields_cube(self, octa_pattern):
        q = build_polyhedron(octa_pattern, allow_ideal=True)
        assert q.vertex_count == 8
        assert q.face_count == 6
        assert sorted(len(f) for f in q.faces) == [4] * 6
        assert len(q.ideal_vertices) == 8
        assert abs(q.max_vertex_norm - 1.0) < 1e-9

    def test_dihedral_angles(self, octa_pattern):
        q = build_polyhedron(octa_pattern, allow_ideal=True)
        assert np.max(np.abs(q.dihedral - PI / 3)) < 1e-9

    def test_check_report(self, octa_pattern):
        q = build_polyhedron(octa_pattern, allow_ideal=True)
        rep = check_polyhedron(q, octa_pattern)
        assert rep.passed
        assert rep.dihedral_inversive_gap < 1e-10
        assert rep.trivalent_ok and rep.euler_ok

    def test_sum_within_cond_eps_of_pi_is_ideal(self, octa_pattern):
        """A face sum within COND_EPS of pi counts as pi, as in classify."""
        p = octa_pattern
        th = AngleAssignment(p.triangulation, (PI / 3 + 5e-13,) + p.theta.values[1:])
        q = build_polyhedron(CirclePattern(p.triangulation, th, p.mode, p.centers, p.radii),
                             allow_ideal=True)
        assert len(q.ideal_vertices) == 8


class TestCompactCase:
    def test_strict_build_succeeds(self, icosa_pattern):
        q = build_polyhedron(icosa_pattern)
        assert q.vertex_count == 20
        assert q.face_count == 12
        assert sorted(len(f) for f in q.faces) == [5] * 12
        assert q.max_vertex_norm < 1.0
        assert q.compactness_margin() > 0.01

    def test_dihedral_angles(self, icosa_pattern):
        q = build_polyhedron(icosa_pattern)
        assert np.max(np.abs(q.dihedral - 2 * PI / 5)) < 1e-9

    def test_dihedral_inversive_identity(self, icosa_pattern):
        q = build_polyhedron(icosa_pattern)
        rep = check_polyhedron(q, icosa_pattern)
        assert rep.passed
        assert rep.dihedral_inversive_gap < 1e-10

    def test_euler_duality_counts(self, icosa_pattern):
        t = icosa_pattern.triangulation
        q = build_polyhedron(icosa_pattern)
        assert q.vertex_count == t.face_count
        assert len(q.faces) == t.vertex_count
        assert len(q.edges) == t.edge_count
        assert q.vertex_count - len(q.edges) + len(q.faces) == 2

    def test_convexity_violation_detected(self, icosa_pattern):
        q = build_polyhedron(icosa_pattern)
        hacked = HyperbolicPolyhedron(
            half_spaces=[
                type(h)(h.normal, h.offset - (0.2 if i == 0 else 0.0))
                for i, h in enumerate(q.half_spaces)
            ],
            vertices=q.vertices,
            faces=q.faces,
            edges=q.edges,
            edge_vertices=q.edge_vertices,
            dihedral=q.dihedral,
            max_vertex_norm=q.max_vertex_norm,
        )
        rep = check_polyhedron(hacked, icosa_pattern)
        assert not rep.convexity_ok
        assert rep.convexity_worst < -1e-3


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), one=st.booleans())
def test_convexity_slack_without_the_dense_array(icosa_pattern, seed, one):
    """Random planes c . x = o, with o over [-1, 1] or the offsets of caps
    from 1e-6 to 3 rad, and random vertices: at the origin, inside, on and
    just outside the sphere, half of them (all, with ``one`` plane) within
    1e-9 of a plane.  The point query finds the least slack of the dense
    array."""
    rng = np.random.default_rng(seed)
    q = build_polyhedron(icosa_pattern)
    n, f = 1 if one else len(q.half_spaces), len(q.vertices)
    c = rng.normal(size=(n, 3))
    c /= np.linalg.norm(c, axis=1)[:, None]
    o = rng.uniform(-1.0, 1.0, n) if seed % 2 else np.cos(np.exp(rng.uniform(-13.8, 1.1, n)))
    x = rng.normal(size=(f, 3))
    x *= (rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0, 1.0 + 1e-12, rng.uniform(1.0, 3.0)], f)
          / np.linalg.norm(x, axis=1))[:, None]
    j, on = rng.integers(0, n, f), one | (rng.random(f) < 0.5)
    e = rng.normal(size=(f, 3))
    e -= np.einsum("ij,ij->i", e, c[j])[:, None] * c[j]
    e /= np.linalg.norm(e, axis=1)[:, None]
    d = o[j] + rng.uniform(-1e-9, 1e-9, f)
    side = np.sqrt(np.maximum(rng.uniform(np.abs(o[j]), 1.2) ** 2 - d ** 2, 0.0))
    x[on] = (d[:, None] * c[j] + side[:, None] * e)[on]
    planes = [type(q.half_spaces[0])(tuple(ci), float(oi)) for ci, oi in zip(c, o)]
    hacked = dataclasses.replace(q, half_spaces=planes, vertices=x)
    want = oracles.convexity_worst(hacked)
    assume(want <= 0.0)  # the query holds every pair on or beyond a plane, not every pair
    # one ulp of a product, as another BLAS may round it, is all that may differ
    assert abs(check_polyhedron(hacked, icosa_pattern).convexity_worst - want) <= 1e-14


@pytest.fixture(scope="module")
def hex_prism_pattern():
    """A verified no-interstice hexagonal-bipyramid pattern, dual to a
    compact hyperbolic hexagonal prism."""
    from circlepattern import classify, verify_pattern

    t = shapes.bipyramid(6)
    rng = np.random.default_rng(12)
    while True:
        vals = np.clip(PI / 3 + rng.uniform(0.02, 0.4, t.edge_count),
                       0.05, PI - 0.05)
        th = AngleAssignment(t, tuple(vals))
        if classify(t, th, "m5").passed:
            break
    cfg, _ = solve_spherical(t, th)
    p = CirclePattern.from_spherical(t, th, cfg)
    assert verify_pattern(p).passed
    return p


@pytest.fixture(scope="module")
def obtuse_prism():
    """A verified pattern dual to a triangular prism with one top edge at
    1.9 radians, and that edge's id."""
    from circlepattern import check_andreev, dual_of_trivalent, verify_pattern

    prism = shapes.triangular_prism_faces()
    edges = sorted(
        {
            tuple(sorted((c[i], c[(i + 1) % len(c)])))
            for c in prism
            for i in range(len(c))
        }
    )
    tri = [f for f in prism if len(f) == 3]

    def cyc_edges(c):
        return [tuple(sorted((c[i], c[(i + 1) % len(c)]))) for i in range(len(c))]

    top_e, bot_e = cyc_edges(tri[0]), cyc_edges(tri[1])
    theta = {}
    for e in edges:
        if e in top_e:
            theta[e] = 1.2
        elif e in bot_e:
            theta[e] = 1.1
        else:
            theta[e] = 1.0
    theta[top_e[0]] = 1.9  # obtuse
    assert check_andreev(prism, theta).passed

    t, to_dual, _ = dual_of_trivalent(prism)
    vals = [0.0] * t.edge_count
    for pe, eid in to_dual.items():
        vals[eid] = theta[pe]
    th = AngleAssignment(t, tuple(vals))
    cfg, _ = solve_spherical(t, th)
    p = CirclePattern.from_spherical(t, th, cfg)
    assert verify_pattern(p).passed
    return p, to_dual[top_e[0]]


@pytest.fixture(scope="module")
def obtuse_prism_pattern(obtuse_prism):
    return obtuse_prism[0]


class TestFurtherCombinatorics:
    def test_hexagonal_prism_from_bipyramid(self, hex_prism_pattern):
        """A no-interstice bipyramid instance dualizes to a compact
        hyperbolic hexagonal prism."""
        p = hex_prism_pattern
        q = build_polyhedron(p)
        assert sorted(len(f) for f in q.faces) == [4] * 6 + [6, 6]
        assert q.max_vertex_norm < 1.0
        assert check_polyhedron(q, p).passed

    def test_compact_prism_with_obtuse_dihedral(self, obtuse_prism):
        """The new regime: a compact convex polyhedron carrying an
        obtuse dihedral angle, here a triangular prism with one top edge at
        1.9 radians."""
        p, obtuse_eid = obtuse_prism
        q = build_polyhedron(p)
        assert sorted(len(f) for f in q.faces) == [3, 3, 4, 4, 4]
        assert q.max_vertex_norm < 1.0
        assert abs(q.dihedral[obtuse_eid] - 1.9) < 1e-9
        assert check_polyhedron(q, p).passed


class TestDihedral:
    def test_independent_of_the_inversive_distance(self, icosa_pattern, monkeypatch):
        """The dihedral is the angle the two circles make where they meet,
        not a copy of ``triples.inversive``, so ``dihedral_inversive_gap``
        compares two paths: garbage inversive distances leave the dihedrals
        as they are and show up in the gap."""
        want = build_polyhedron(icosa_pattern).dihedral
        monkeypatch.setattr(triples, "inversive", lambda mode, c, r, edges: np.full(len(edges), 3.0))
        q = build_polyhedron(icosa_pattern)
        assert np.array_equal(q.dihedral, want)
        rep = check_polyhedron(q, icosa_pattern)
        assert rep.max_dihedral_err <= 1e-12 and rep.dihedral_inversive_gap > 1.0


class TestVertexKernel:
    @pytest.mark.parametrize("name", ["icosa_pattern", "hex_prism_pattern",
                                      "obtuse_prism_pattern"])
    def test_vertices_match_per_face_solve(self, name, request):
        p = request.getfixturevalue(name)
        q = build_polyhedron(p)
        for fid, face in enumerate(p.triangulation.faces):
            want = np.linalg.solve(p.centers[list(face)], np.cos(p.radii[list(face)]))
            np.testing.assert_allclose(q.vertices[fid], want, rtol=0, atol=1e-12)

    def test_boosted_dodecahedron_near_the_sphere_is_compact(self, icosa_pattern):
        """Every face sum of the icosahedral 2pi/5 pattern is above pi, so its
        dual stays compact however close a Lorentz boost moves a vertex to
        the sphere; here to 1 - |q| of about 1e-8, where the dihedrals, from
        caps down to 4e-4 rad, still pass the check."""
        p = _boosted(icosa_pattern, 1e-8)
        q = build_polyhedron(p)
        assert q.ideal_vertices == []
        assert q.max_vertex_norm < 1.0
        assert 0.5e-8 < 1.0 - q.max_vertex_norm < 2e-8
        assert check_polyhedron(q, p).passed

    def test_boosted_dodecahedron_builds_at_1e_10(self, icosa_pattern):
        """At 1 - |q| = 1e-10 the caps are down to 4e-5 rad, and planes
        c . x = cos r solved in cosine units put a vertex outside the ball;
        from the smallest cap, in chords, it lands where the boost put it."""
        q = build_polyhedron(_boosted(icosa_pattern, 1e-10))
        assert q.ideal_vertices == []
        assert abs(1.0 - q.max_vertex_norm - 1e-10) <= 1e-12

    @pytest.mark.parametrize("gap", [1e-9, 1e-10, 1e-11, 1e-12])
    def test_boosted_dodecahedron_verifies_and_checks(self, icosa_pattern, gap):
        """Boosted to 1 - |q| = 1e-12 the caps span 4e-6 rad to within
        1.8e-4 of pi.  Each circle is read from its smaller cap, so the
        pattern verifies and its polyhedron passes its check.  Read from the
        caps near pi, whose chords are near 2, the check failed from 1e-9 on
        and ``verify`` below 1e-10."""
        p = _boosted(icosa_pattern, gap)
        assert verify_pattern(p).passed
        q = build_polyhedron(p)
        assert q.ideal_vertices == []
        assert check_polyhedron(q, p).passed


def _boosted(p, gap):
    """``p`` moved by a Lorentz boost until its dual's outermost vertex
    is at 1 - |q| = ``gap``."""
    q0 = build_polyhedron(p)
    far = int(np.argmax(np.linalg.norm(q0.vertices, axis=1)))
    rho = float(np.linalg.norm(q0.vertices[far]))
    s = math.tanh(math.atanh(1.0 - gap) - math.atanh(rho))
    dS = spherical._de_sitter(p.centers, p.radii)
    centers, radii = spherical._from_de_sitter(spherical._boost(dS, -s * q0.vertices[far] / rho))
    return CirclePattern(p.triangulation, p.theta, p.mode, centers, radii)


@PROPERTY
@given(radii=st.tuples(*[st.floats(0.01, 3.0)] * 3),
       angles=st.tuples(*[st.floats(0.01, 3.1)] * 3))
def test_triple_vertex_inside_ball_iff_angle_sum_above_pi(radii, angles):
    """On a feasible spherical triple whose angles meet the face condition
    (each pair below the third plus pi), the kernel's vertex lies inside the
    ball exactly when the angle sum is above pi, and exactly when the Gram
    determinant of the three de Sitter vectors is positive."""
    spec = triple_records.TripleSpec(triples.SPHERICAL, radii, angles)
    assume(sum(angles) - 2.0 * min(angles) < PI and abs(sum(angles) - PI) >= 1e-6)
    assume(triple_records.feasibility(spec)[0])
    x, det = triples.cap_plane_points(np.array([triple_records.place_triple(spec)]), np.array([radii]))
    inside = bool(np.linalg.norm(x[0] / det[0]) < 1.0)
    cos = np.cos(angles)
    gram = 1.0 - np.sum(cos ** 2) - 2.0 * np.prod(cos)
    assert inside == (compare(sum(angles), PI) > 0) == (gram > 0.0)


class TestExport:
    def test_cube_mesh(self, octa_pattern):
        q = build_polyhedron(octa_pattern, allow_ideal=True)
        data = export_obj(q)
        lines = data.decode().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 8
        quads = [l for l in lines if l.startswith("f ")]
        assert len(quads) == 6
        assert all(len(l.split()) == 5 for l in quads)

    def test_dodecahedron_mesh(self, icosa_pattern):
        q = build_polyhedron(icosa_pattern)
        lines = export_obj(q).decode().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 20
        pents = [l for l in lines if l.startswith("f ")]
        assert len(pents) == 12
        assert all(len(l.split()) == 6 for l in pents)

    def test_deterministic_bytes(self, icosa_pattern):
        q1 = build_polyhedron(icosa_pattern)
        q2 = build_polyhedron(icosa_pattern)
        assert export_obj(q1) == export_obj(q2)

    def test_vertex_lines_are_plain_floats(self, icosa_pattern):
        """Each ``v`` line holds three coordinates that ``float`` parses, the
        vertices of the JSON dump, whatever the numpy version."""
        q = build_polyhedron(icosa_pattern)
        rows = [l.split()[1:] for l in export_obj(q).decode().splitlines()
                if l.startswith("v ")]
        assert all(len(r) == 3 for r in rows)
        assert [[float(x) for x in r] for r in rows] == polyhedron_to_dict(q)["vertices"]

    def test_dict_dump(self, icosa_pattern):
        q = build_polyhedron(icosa_pattern)
        d = polyhedron_to_dict(q)
        assert len(d["half_spaces"]) == 12
        assert len(d["vertices"]) == 20


class TestErrors:
    def test_face_sum_below_pi_is_outside(self, octa):
        """A lifted planar pattern has faces with angle sum below pi, whose
        vertices lie outside the ball, ideal or not."""
        from circlepattern import lift_to_sphere, solve_euclidean

        th = AngleAssignment.constant(octa, PI / 4)
        cfg, _ = solve_euclidean(octa, th, 0)
        p = CirclePattern.from_spherical(octa, th, lift_to_sphere(cfg))
        with pytest.raises(VertexOutsideBall, match="angle sum"):
            build_polyhedron(p, allow_ideal=True)

    def test_singular_triple(self, octa_pattern):
        p = octa_pattern
        centers = p.centers.copy()
        # three nearly parallel planes around one face
        a, b, c = p.triangulation.faces[0]
        centers[b] = centers[a] + 1e-14 * np.array([1.0, 0, 0])
        centers[c] = centers[a] + 1e-14 * np.array([0, 1.0, 0])
        centers[b] /= np.linalg.norm(centers[b])
        centers[c] /= np.linalg.norm(centers[c])
        bad = CirclePattern(p.triangulation, p.theta, p.mode, centers, p.radii)
        with pytest.raises(SingularTriple):
            build_polyhedron(bad, allow_ideal=True)

    def test_euclidean_pattern_rejected(self, tetra):
        th = AngleAssignment.constant(tetra, 0.0)
        from circlepattern import solve_euclidean

        cfg, _ = solve_euclidean(tetra, th, 0)
        p = CirclePattern.from_euclidean(tetra, th, cfg)
        with pytest.raises(MalformedPattern):
            build_polyhedron(p)

    def test_tangency_angles_rejected(self, octa_pattern):
        p = octa_pattern
        th = AngleAssignment(
            p.triangulation, (0.0,) + tuple(p.theta.values[1:])
        )
        bad = CirclePattern(p.triangulation, th, p.mode, p.centers, p.radii)
        with pytest.raises(MalformedPattern):
            build_polyhedron(bad)
