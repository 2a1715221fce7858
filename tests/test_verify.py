import math

import numpy as np
import pytest

from circlepattern import (
    AngleAssignment,
    build_triangulation,
    contact_graph,
    flower_check,
    lift_to_sphere,
    solve_euclidean,
    solve_spherical,
    verify_pattern,
)
from circlepattern import formats, shapes
from circlepattern.cli import main
from circlepattern import verify as verifier
from circlepattern.errors import MalformedPattern
from circlepattern.euclidean import pick_marked_face
from circlepattern.verify import CirclePattern, count_interstices

import oracles
from random_triangulations import loop_subdivide, stack120_faces

PI = math.pi


@pytest.fixture(scope="module")
def descartes(tetra_mod=None):
    t = shapes.tetrahedron()
    th = AngleAssignment.constant(t, 0.0)
    cfg, _ = solve_euclidean(t, th, 0)
    return CirclePattern.from_euclidean(t, th, cfg)


@pytest.fixture(scope="module")
def octa_third_pi():
    t = shapes.octahedron()
    th = AngleAssignment.constant(t, PI / 3)
    cfg, _ = solve_spherical(t, th)
    return CirclePattern.from_spherical(t, th, cfg)


class TestVerifyPattern:
    def test_descartes_instance(self, descartes):
        rep = verify_pattern(descartes)
        assert rep.passed
        assert rep.contact_graph_ok
        assert rep.interstice_count == 4  # three curvilinear gaps + outer
        assert rep.irreducible_ok
        assert rep.empty_triple_ok

    def test_octahedron_no_interstices(self, octa_third_pi):
        rep = verify_pattern(octa_third_pi)
        assert rep.passed
        assert rep.interstice_count == 0
        assert rep.non_adjacent_disjoint_ok
        assert rep.irreducible_ok

    def test_inflated_disk_fails_disjointness(self, octa_third_pi):
        # inflate one disk until it genuinely overlaps its antipode (this
        # pattern has a comfortable disjointness margin, I = 2)
        p = octa_third_pi
        bad = CirclePattern(
            p.triangulation, p.theta, p.mode, p.centers.copy(),
            p.radii * np.where(np.arange(6) == 0, 2.5, 1.0), p.marked_face
        )
        rep = verify_pattern(bad)
        assert not rep.passed
        assert not rep.non_adjacent_disjoint_ok
        antipode = next(
            v for v in range(6) if not p.triangulation.has_edge(0, v) and v != 0
        )
        assert (0, antipode) in rep.offending_pairs

    def test_resolution_doubling_stable(self, descartes):
        lo = verify_pattern(descartes, boundary_samples=2048, interior_grid=128)
        hi = verify_pattern(descartes, boundary_samples=4096, interior_grid=256)
        for field in ("passed", "contact_graph_ok", "non_adjacent_disjoint_ok",
                      "irreducible_ok", "flower_ok", "lens_relation_ok",
                      "empty_triple_ok"):
            assert getattr(lo, field) == getattr(hi, field)

    def test_malformed_rejected(self, descartes):
        with pytest.raises(MalformedPattern):
            CirclePattern(
                descartes.triangulation, descartes.theta, "euclidean",
                descartes.centers, -descartes.radii
            )


class TestFlower:
    def test_solved_octahedron_all_vertices(self, octa_third_pi):
        for v in range(6):
            ok, witness = flower_check(octa_third_pi, v)
            assert ok, (v, witness)

    def test_displaced_disk_fails_with_witness(self):
        # the flower cover is robust to shrinking here (the tiny disks sit
        # inside their own stars), so force the failure by pushing a disk
        # out of its star region entirely
        t = shapes.octahedron()
        th = AngleAssignment.constant(t, PI / 4)
        cfg, _ = solve_euclidean(t, th, 0)
        p = CirclePattern.from_euclidean(t, th, cfg)
        v = next(u for u in range(6) if u not in p.marked_face)
        centers = p.centers.copy()
        centers[v] += 1.0
        bad = CirclePattern(t, th, "euclidean", centers, p.radii, p.marked_face)
        ok, witness = flower_check(bad, v)
        assert not ok
        assert witness is not None

    def test_euclidean_boundary_vertices(self, descartes):
        # marked-face vertices use the unbounded outer region as their star
        for v in descartes.marked_face:
            ok, witness = flower_check(descartes, v)
            assert ok, (v, witness)


class TestContactGraph:
    def test_solved_instance_isomorphic(self, descartes):
        _, ok, missing, extra, nested = contact_graph(descartes)
        assert ok and not missing and not extra and not nested

    def test_separated_circles_lose_edge(self, descartes):
        p = descartes
        centers = p.centers.copy()
        far = next(v for v in range(4) if v not in p.marked_face)
        centers[far] += 50.0
        bad = CirclePattern(p.triangulation, p.theta, p.mode, centers, p.radii,
                            p.marked_face)
        _, ok, missing, extra, _ = contact_graph(bad)
        assert not ok
        assert any(far in e for e in missing)

    def test_concentric_equal_circles_are_nested_not_edges(self, descartes):
        p = descartes
        t = p.triangulation
        centers = np.zeros(4, dtype=complex)
        radii = np.ones(4)
        bad = CirclePattern(t, p.theta, "euclidean", centers, radii)
        edges, ok, missing, extra, nested = contact_graph(bad)
        assert not ok
        # concentric equal pairs have inversive distance -1: nested class
        assert len(nested) == 6 and len(edges) == 0


class TestInterstices:
    def test_grid_stability_on_descartes(self, descartes):
        for grid in (256, 512, 1024):
            n, _ = count_interstices(descartes, grid=grid)
            assert n == 4

    def test_sphere_samples_stability(self, octa_third_pi):
        for samples in (10000, 20000, 40000):
            n, _ = count_interstices(octa_third_pi, sphere_samples=samples)
            assert n == 0

    def test_shrunken_pattern_shows_interstices(self, octa_third_pi):
        p = octa_third_pi
        bad = CirclePattern(
            p.triangulation, p.theta, p.mode, p.centers.copy(), p.radii * 0.8,
            p.marked_face
        )
        n, samples = count_interstices(bad)
        assert n > 0
        assert samples

    def test_every_face_of_ico162_tangency_packing(self):
        p = _planar(build_triangulation(loop_subdivide(shapes.icosahedron().faces, 2)))
        rep = verify_pattern(p)
        assert rep.interstice_count == 320 and rep.passed
        assert len(rep.interstice_samples) == 16

    def test_lifted_tetrahedron(self):
        t = shapes.tetrahedron()
        th = AngleAssignment.constant(t, 0.0)
        cfg, _ = solve_euclidean(t, th, 0)
        p = CirclePattern.from_spherical(t, th, lift_to_sphere(cfg))
        n, witnesses = count_interstices(p)
        assert n == 4
        # each witness is uncovered, also the one of the lifted outer face
        assert not p.point_in_disks(np.array(witnesses)).any()

    def test_stack120(self):
        # some witnesses clear their nearest disk by less than 1e-9 of the
        # largest radius
        assert count_interstices(_planar(_stack120()))[0] == 236

    def test_stack120_witnesses_thinner_than_cover_slack(self):
        """At theta = 0.45 the witness of face (85, 0, 87) clears disk 0 by
        about 1.5e-13, less than COVER_SLACK: covering is decided to
        rounding, so every face is witnessed and the pattern verifies."""
        p = _planar(_stack120(), 0.45)
        rep = verify_pattern(p)
        assert rep.interstice_count == 236 == p.triangulation.face_count
        assert rep.passed

    def test_stack120_witnesses_are_radical_centres_to_rounding(self):
        # faces of one big and two tiny circles: solved from the big
        # centre, the point is off by about 3e-12, more than its clearance
        p = _planar(_stack120(), 0.45)
        faces, fid = p.triangulation.faces, p.triangulation.face_id_of(p.marked_face)
        scale = np.max(np.abs(p.centers) + p.radii)
        for f, w in enumerate(verifier._face_witnesses(p)):
            if f != fid:
                exact = oracles.radical_centre(p.centers[list(faces[f])], p.radii[list(faces[f])])
                assert abs(w - exact) <= 1e-14 * scale

    @pytest.mark.parametrize("chunk", [1, 13, 1 << 16])
    def test_faces_tested_in_chunks(self, octa_third_pi, chunk, monkeypatch):
        # every face sums to pi, so every radical centre is on the disks:
        # each chunk of one, two or all faces must be tested
        monkeypatch.setattr(verifier, "FACE_TEST_CHUNK", chunk)
        assert count_interstices(octa_third_pi)[0] == 0

    def test_witness_count_must_match_theory(self, descartes, monkeypatch):
        assert verify_pattern(descartes).passed
        real = verifier._face_witnesses
        monkeypatch.setattr(verifier, "_face_witnesses", lambda p: real(p)[:-1] + [None])
        rep = verify_pattern(descartes)
        assert rep.interstice_count == 3 and not rep.passed

    def test_faces_summing_to_pi_are_exempt(self, octa_third_pi, monkeypatch):
        # three circles through one point: rounding may leave the point
        # just outside them, and theory does not decide such a face
        monkeypatch.setattr(verifier, "_face_witnesses", lambda p: [np.zeros(3)] * 8)
        rep = verify_pattern(octa_third_pi)
        assert rep.interstice_count == 8 and rep.passed


class TestDegenerateFaces:
    """A hand-written pattern whose face has no radical centre gives that
    face no witness, and verify reports a failure instead of raising."""

    @staticmethod
    def _verify_file(tmp_path, p, face):
        path = tmp_path / "pattern.json"
        path.write_text(formats.dumps(formats.pattern_to_dict(p, {})))
        q = formats.load_pattern(path)
        assert verifier._face_witnesses(q)[q.triangulation.face_id_of(face)] is None
        assert main(["verify", "--pattern", str(path)]) == 4

    def test_collinear_planar_centres(self, tmp_path):
        t = shapes.tetrahedron()
        p = CirclePattern(t, AngleAssignment.constant(t, 0.0), "euclidean",
                          np.array([0.0, 1.0, 2.0, 1.0 + 1.0j]), np.full(4, 0.6),
                          next(f for f in t.faces if 3 in f))
        self._verify_file(tmp_path, p, (0, 1, 2))

    def test_spherical_centres_coplanar_with_origin(self, tmp_path):
        t = shapes.octahedron()
        face = t.faces[0]
        centers = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, 0.8], [-0.6, 0.0, 0.8],
                            [0.0, -0.6, 0.8], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        centers[list(face)] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
        p = CirclePattern(t, AngleAssignment.constant(t, 1.2), "spherical",
                          centers, np.full(6, 0.5))
        self._verify_file(tmp_path, p, face)


class TestThreeCircleRelations:
    def test_lens_relation_sampled(self):
        """Random mutually intersecting triples with a detected containment
        always satisfy the angle relation."""
        from circlepattern.triples import containment_angle_check

        rng = np.random.default_rng(41)
        detected = 0
        tried = 0
        while detected < 100 and tried < 20000:
            tried += 1
            d = rng.uniform(0.2, 1.8)
            centers = [0j, d + 0j]
            radii = [1.0, 1.0]
            corners_y = math.sqrt(max(1.0 - (d / 2) ** 2, 0.0))
            c3 = complex(d / 2 + rng.normal(0, 0.2), rng.normal(0, 0.2))
            r3 = corners_y + rng.uniform(0.05, 0.8)
            centers.append(c3)
            radii.append(r3)
            try:
                recs = containment_angle_check("euclidean", centers, radii)
            except Exception:
                continue
            for rec in recs:
                if rec.contained and not rec.single_point:
                    detected += 1
                    assert rec.lhs - rec.rhs >= -1e-9
        assert detected == 100

    def test_empty_triple_sampled(self):
        """Admissible triples with angle sum below pi never share a point."""
        from circlepattern.triples import (
            TripleSpec,
            place_triple,
            triple_intersection_empty,
        )

        rng = np.random.default_rng(43)
        done = 0
        while done < 100:
            th = rng.uniform(0.0, PI, 3)
            if th.sum() >= PI - 1e-9:
                continue
            radii = tuple(rng.uniform(0.1, 2.0, 3))
            spec = TripleSpec("euclidean", radii, tuple(th))
            centers = list(place_triple(spec))
            assert triple_intersection_empty("euclidean", centers, list(radii))
            done += 1


def _planar(t, value=0.0):
    th = AngleAssignment.constant(t, value)
    cfg, _ = solve_euclidean(t, th, pick_marked_face(t, th))
    return CirclePattern.from_euclidean(t, th, cfg)


def _spherical(t, value):
    th = AngleAssignment.constant(t, value)
    cfg, _ = solve_spherical(t, th)
    return CirclePattern.from_spherical(t, th, cfg)


def _stack120():
    return build_triangulation(stack120_faces())


SPHERICAL_SHAPES = ("octahedron", "pentagonal_bipyramid", "hexagonal_bipyramid",
                    "icosahedron")
REFERENCE_CASES = (
    [(f"{name}-t0", lambda name=name: _planar(shapes.shipped_triangulations()[name]))
     for name in shapes.shipped_triangulations()]
    + [(f"{name}-t1.2",
        lambda name=name: _spherical(shapes.shipped_triangulations()[name], 1.2))
       for name in SPHERICAL_SHAPES]
    + [("ico162-t0", lambda: _planar(build_triangulation(
        loop_subdivide(shapes.icosahedron().faces, 2)))),
       ("stack120-t0", lambda: _planar(_stack120()))]
)


class TestLocalSamplingMatchesReference:
    """The local verifier against the all-disk references in ``oracles``:
    every sample tested against every disk, and every face tested one at a
    time."""

    @pytest.mark.parametrize("make", [m for _, m in REFERENCE_CASES],
                             ids=[name for name, _ in REFERENCE_CASES])
    def test_same_report(self, make, monkeypatch):
        p = make()
        local = verify_pattern(p).to_dict()
        monkeypatch.setattr(verifier, "_irreducibility_witnesses",
                            oracles.irreducibility_witnesses)
        monkeypatch.setattr(verifier, "flower_check", oracles.flower_check)
        monkeypatch.setattr(verifier, "_in_any_face", oracles.in_any_face)
        assert local == verify_pattern(p).to_dict()

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_same_face_membership(self, chunk, monkeypatch):
        """All faces at once, in chunks of any size, against one face at a
        time; samples on the edges and corners of the faces included."""
        p = _planar(build_triangulation(loop_subdivide(shapes.icosahedron().faces, 1)))
        corners = p.centers[np.array(p.triangulation.faces)]
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(3), size=(len(corners), 4))
        pts = np.concatenate([
            np.einsum("fk,fsk->fs", corners, w).ravel(),       # inside
            (0.5 * (corners + np.roll(corners, 1, axis=1))).ravel(),  # on edges
            corners.ravel(),
            rng.normal(size=2000) * 2.0 + 2.0j * rng.normal(size=2000),
        ])
        monkeypatch.setattr(verifier, "FACE_TEST_CHUNK", chunk)
        got = verifier._in_any_face(p, pts, 1e-9)
        assert np.array_equal(got, oracles.in_any_face(p, pts, 1e-9))
        assert 0 < got.sum() < len(pts)

    def test_unit_disk_grid_hoisting_is_exact(self, octa_third_pi, descartes):
        for p in (octa_third_pi, descartes):
            for v in range(len(p.radii)):
                assert np.array_equal(verifier._interior_points(p, v, 64),
                                      oracles.interior_points(p, v, 64))


class TestSingleDiskMembership:
    def test_one_disk_column_matches_full_matrix(self, octa_third_pi):
        """Membership in one disk is decided on the same dot products as
        the full matrix, also for a sample exactly on the threshold where
        a one-column product would round differently."""
        p = octa_third_pi
        pts = oracles.fibonacci_sphere(2000)
        full = pts @ p.centers.T
        lower = [(d, k) for d in range(len(p.radii))
                 for k in np.flatnonzero((pts @ p.centers[[d]].T)[:, 0] < full[:, d])]
        if not lower:
            pytest.skip("this BLAS rounds both products alike")
        d, k = lower[0]
        radii = p.radii.copy()
        radii[d] = math.acos(full[k, d])
        q = CirclePattern(p.triangulation, p.theta, p.mode, p.centers, radii)
        slack = full[k, d] - math.cos(radii[d])  # exact: the two are this close
        got = verifier._in_disks(q, pts, np.array([d]), slack)
        assert got[k, 0]
        assert np.array_equal(got[:, 0], q.point_in_disks(pts, slack)[:, d])


class TestNearDisks:
    """A disk not adjacent to v, closer to D_v than the 1e-12 sample slack,
    still covers the samples in that gap."""

    def test_planar_gap_below_slack(self):
        t = shapes.octahedron()
        u = next(w for w in range(1, 6) if not t.has_edge(0, w))
        centers = np.array([100j * k for k in range(6)])
        centers[0], centers[u] = 0.0, 2.0 + 5e-13
        p = CirclePattern(t, AngleAssignment.constant(t, 0.0), "euclidean",
                          centers, np.ones(6))
        self._check(p, u)

    def test_spherical_gap_below_slack(self):
        # for a cap of radius 1e-6 the cosine slack is an angle of 7e-7, so
        # an angular gap of 5e-7 is inside it
        t = shapes.octahedron()
        u = next(w for w in range(1, 6) if not t.has_edge(0, w))
        far = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, -1.0, 0.0)]
        centers = np.zeros((6, 3))
        radii = np.full(6, 0.1)
        centers[[w for w in range(1, 6) if w != u]] = far
        centers[0], radii[0] = (0.0, 0.0, 1.0), 0.5
        phi = 0.5 + 1e-6 + 5e-7  # boundary sample 0 of D_0 points along +y
        centers[u], radii[u] = (0.0, math.sin(phi), math.cos(phi)), 1e-6
        p = CirclePattern(t, AngleAssignment.constant(t, 1.2), "spherical", centers, radii)
        self._check(p, u)

    @staticmethod
    def _check(p, u):
        assert u in verifier._near_disks(p, 0, -verifier.COVER_SLACK)
        _, got = verifier._irreducibility_witnesses(p, 64, 16)
        _, want = oracles.irreducibility_witnesses(p, 64, 16)
        first = verifier._boundary_points(p, 0, 64)[0]
        assert np.array_equal(got[0], want[0])
        assert not np.array_equal(got[0], first)
