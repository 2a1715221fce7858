import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from circlepattern import formats, shapes, triples
from circlepattern.cli import main
from circlepattern import verify as verifier
from circlepattern.errors import MalformedPattern
from circlepattern.euclidean import pick_marked_face
from circlepattern.triples import tangent_frames
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

    @pytest.mark.parametrize("mode, seed",
                             [("euclidean", 0), ("euclidean", 1), ("spherical", None)])
    def test_angle_error_is_the_solvers(self, mode, seed):
        """``solve`` and ``verify`` read the one inversive formula of
        ``triples``, so verify's angle error is the solver's angle
        residual, bit for bit.  (With a second planar formula, |d|^2 for
        d.real^2 + d.imag^2, the draw at seed 1 reads 2.09721e-13 in the
        solver against 2.09277e-13 in verify.)"""
        ico = shapes.icosahedron().faces
        if mode == "euclidean":
            t = build_triangulation(loop_subdivide(ico, 2))
            draw = np.random.default_rng(seed).uniform(0.0, 1.2, t.edge_count)
            theta = AngleAssignment(t, tuple(draw.tolist()))
            cfg, rep = solve_euclidean(t, theta, pick_marked_face(t, theta))
            p = CirclePattern.from_euclidean(t, theta, cfg)
        else:
            t = build_triangulation(loop_subdivide(ico, 1))
            theta = AngleAssignment.constant(t, 1.2)
            cfg, rep = solve_spherical(t, theta)
            p = CirclePattern.from_spherical(t, theta, cfg)
        assert rep.angle_residual == verify_pattern(p).angle_max_err

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

    def test_octahedron_sliver(self):
        """Growing one marked disk of the tangency octahedron by 10% leaves
        a sliver of D_1 outside its star, about 2e-5 wide: the exact test
        finds it, the samples at the old default resolution miss it."""
        p = _sliver_octahedron()
        rep = verify_pattern(p)
        assert not rep.flower_ok and list(rep.flower_failures) == [1]
        w = rep.flower_failures[1]
        assert oracles.flower_uncovered(p, 1, w)
        assert not oracles.in_open_star(p, 1, np.array([w]), 1e-9)[0]
        clearance = min(abs(w - p.centers[u]) - p.radii[u] for u in p.triangulation.neighbors(1))
        assert 1e-5 < clearance < 1e-4
        assert oracles.flower_check(p, 1, 1024, 32)[0]

    def test_one_vertex_as_in_the_whole_report(self, octa_third_pi):
        p = _sliver_octahedron()
        for q in (p, octa_third_pi):
            failures = verify_pattern(q).flower_failures
            for v in range(len(q.radii)):
                ok, w = flower_check(q, v)
                assert ok == (v not in failures)
                assert ok or np.array_equal(w, failures[v])


@functools.lru_cache(maxsize=None)
def _flower_base(k):
    shipped = shapes.shipped_triangulations()
    if k < 3:
        return _planar(shipped[("octahedron", "pentagonal_bipyramid", "icosahedron")[k]])
    return _spherical(shipped[("octahedron", "icosahedron")[k - 3]], 1.2)


def _sliver_octahedron():
    p = _planar(shapes.octahedron())
    radii = p.radii.copy()
    radii[1] *= 1.1
    return CirclePattern(p.triangulation, p.theta, p.mode, p.centers, radii, p.marked_face)


class TestExactFlower:
    """The exact flower test against the sampled reference in ``oracles``,
    on solved patterns with one disk scaled and maybe moved."""

    @settings(max_examples=200)
    @given(base=st.integers(0, 4), vertex=st.integers(0, 11), move=st.booleans(),
           size=st.floats(0.0, 3.0), scale=st.floats(0.5, 1.6), turn=st.floats(0.0, 2 * PI))
    def test_perturbed_patterns(self, base, vertex, move, size, scale, turn):
        _same_flower_failures(_perturbed(_flower_base(base), vertex, move, size, scale, turn))

    @settings(max_examples=60)
    @given(base=st.sampled_from(["octahedron", "icosahedron"]), vertex=st.integers(0, 11),
           move=st.booleans(), size=st.floats(0.0, 3.0), scale=st.floats(0.5, 1.6),
           turn=st.floats(0.0, 2 * PI))
    def test_perturbed_lifted_patterns(self, base, vertex, move, size, scale, turn):
        """Lifted, the marked face is wider than a hemisphere and its centre
        triangle turns against every other face's: the points of no other
        face are in the stars of its vertices, by the same rule in the code
        and in the reference, also when the move breaks the rule."""
        _same_flower_failures(_perturbed(_lifted(base), vertex, move, size, scale, turn))


def _perturbed(p, vertex, move, size, scale, turn):
    """``p`` with disk ``vertex`` scaled by ``scale`` and, if ``move``, its
    centre moved by ``size`` radii in the direction ``turn``."""
    v = vertex % len(p.radii)
    centers, radii = p.centers.copy(), p.radii.copy()
    radii[v] *= scale
    if move and p.mode == "euclidean":
        centers[v] += size * radii[v] * np.exp(1j * turn)
    elif move:  # along the great circle through the centre in direction turn
        (e1,), (e2,) = tangent_frames(centers[v])
        step = size * radii[v]
        centers[v] = (math.cos(step) * centers[v]
                      + math.sin(step) * (math.cos(turn) * e1 + math.sin(turn) * e2))
    return CirclePattern(p.triangulation, p.theta, p.mode, centers, radii, p.marked_face)


def _same_flower_failures(q):
    failures = verify_pattern(q).flower_failures
    for u in range(len(q.radii)):
        if not oracles.flower_check(q, u, 1024, 32)[0]:
            assert u in failures, u
    for u, w in failures.items():
        assert oracles.flower_uncovered(q, u, w), u
        assert not oracles.in_open_star(q, u, np.array([w]), 1e-9)[0], u


class TestLiftedPatterns:
    """A planar pattern lifted to the sphere is the same pattern: its marked
    face, which held the point at infinity, becomes the region the other
    faces leave, and the lift verifies as the planar pattern does (the lift
    of stack120, with caps down to 1.6e-6 rad, because its relations work
    in chords)."""

    @pytest.mark.parametrize("value", [0.0, 0.5])
    @pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "icosahedron",
                                      "stacked_tetrahedra", "ico162", "stack120"])
    def test_lift_verifies(self, name, value):
        want = verify_pattern(_planar(_named(name), value))
        rep = verify_pattern(_lifted(name, value))
        assert want.passed and rep.flower_ok and not rep.flower_failures and rep.passed
        assert rep.interstice_count == want.interstice_count

    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 5])
    def test_lifted_ico642_draws_verify(self, seed):
        """Level-3 icosahedral subdivisions at angles uniform in (0, 1.2),
        lifted: lens corners of caps of 2e-4 rad lie a few 1e-6 from the
        third cap, so the empty-triple test needs them to rounding."""
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 3))
        draw = np.random.default_rng(seed).uniform(0.0, 1.2, t.edge_count)
        th = AngleAssignment(t, tuple(draw.tolist()))
        cfg, _ = solve_euclidean(t, th, pick_marked_face(t, th))
        assert verify_pattern(CirclePattern.from_spherical(t, th, lift_to_sphere(cfg))).passed


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
    def test_faces_tested_in_chunks(self, octa_third_pi, chunk):
        # every face sums to pi, so every radical centre is on the disks:
        # the near pairs of the points must reach the circles through them,
        # whether the points are asked for one, some or all at a time
        assert count_interstices(octa_third_pi)[0] == 0
        p, faces = octa_third_pi, octa_third_pi.triangulation.face_array
        x, det = triples.cap_plane_points(p.centers[faces], p.radii[faces])
        points = x / det[:, None]
        pairs = set()
        for s in range(0, len(points), chunk):
            held, disk = verifier._holding_pairs(p, points[s:s + chunk], -verifier.COVER_SLACK)
            pairs |= set(zip((held + s).tolist(), disk.tolist()))
        assert pairs >= {(f, v) for f, face in enumerate(faces.tolist()) for v in face}

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
        from circlepattern.triple_records import containment_angle_check

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
        from circlepattern.triple_records import (
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


class TestThreeCircleRelationsOnPatterns:
    """Checks (f) and (g) of ``verify_pattern``, all 3-cliques and faces at
    once, against the per-triple reference loops in ``oracles``, on solved
    patterns (planar, and lifted to the sphere) whose disks are grown until
    lenses lie in third disks and face triples share points."""

    @pytest.mark.parametrize("mode", ["euclidean", "spherical"])
    @pytest.mark.parametrize("name", ["octahedron", "icosahedron"])
    def test_same_records_as_reference(self, name, mode):
        t = getattr(shapes, name)()
        th = AngleAssignment.constant(t, 0.0)
        cfg, _ = solve_euclidean(t, th, pick_marked_face(t, th))
        p = (CirclePattern.from_euclidean(t, th, cfg) if mode == "euclidean"
             else CirclePattern.from_spherical(t, th, lift_to_sphere(cfg)))
        lens = triple = 0
        for v, grow, big in ((0, 1.3, 2.0), (0, 1.2, 1.6), (3, 1.3, 2.5), (5, 1.1, 1.5)):
            radii = np.minimum(p.radii * grow, 3.0)
            radii[v] = min(radii[v] * big, 3.0)
            q = CirclePattern(t, th, p.mode, p.centers, radii, p.marked_face)
            rep, want = verify_pattern(q), oracles.reference_lens_records(q)
            floats = ("lhs", "rhs")
            assert ([{k: x for k, x in rec.items() if k not in floats} for rec in rep.lens_records]
                    == [{k: x for k, x in rec.items() if k not in floats} for rec in want])
            assert all(abs(a[k] - b[k]) <= 1e-11
                       for a, b in zip(rep.lens_records, want) for k in floats)
            assert rep.triple_failures == oracles.reference_triple_failures(q)
            assert rep.lens_relation_ok and not rep.empty_triple_ok and not rep.passed
            lens += len(rep.lens_records)
            triple += len(rep.triple_failures)
        assert lens and triple


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


def _named(name):
    if name == "ico162":
        return build_triangulation(loop_subdivide(shapes.icosahedron().faces, 2))
    if name == "stack120":
        return _stack120()
    return getattr(shapes, name)()


@functools.lru_cache(maxsize=None)
def _lifted(name, value=0.0):
    """The planar pattern of the shape ``name`` at theta = ``value``,
    lifted to the sphere with its marked face."""
    t = _named(name)
    th = AngleAssignment.constant(t, value)
    cfg, _ = solve_euclidean(t, th, pick_marked_face(t, th))
    return CirclePattern.from_spherical(t, th, lift_to_sphere(cfg))


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


def _sampled_flower_failures(p, vs, eps):
    """The flower failures by the sampled reference, at the samples that
    ``verify_pattern`` once used by default."""
    found = {v: oracles.flower_check(p, v, 1024, 32, eps) for v in vs.tolist()}
    return {v: w for v, (ok, w) in found.items() if not ok}


class TestLocalSamplingMatchesReference:
    """The verifier against the sampled and all-disk references in
    ``oracles``: every sample tested against every disk, and every face
    tested one at a time."""

    @pytest.mark.parametrize("make", [m for _, m in REFERENCE_CASES],
                             ids=[name for name, _ in REFERENCE_CASES])
    def test_same_report(self, make, monkeypatch):
        """The same report, except that irreducibility witnesses are exact
        points: each is free by the all-disk test, and a vertex has one
        exactly where the sampled reference finds a free sample."""
        p = make()
        local = verify_pattern(p)
        monkeypatch.setattr(verifier, "_flower_failures", _sampled_flower_failures)
        want = verify_pattern(p).to_dict()
        got = local.to_dict()
        del got["irreducibility_witnesses"], want["irreducibility_witnesses"]
        assert got == want
        # the resolutions the sampled check used in the plane and on the sphere
        res = (512, 64) if p.mode == "euclidean" else (4096, 256)
        _, sampled = oracles.irreducibility_witnesses(p, *res)
        exact = local.irreducibility_witnesses
        assert [w is None for w in exact.values()] == [w is None for w in sampled.values()]
        assert all(oracles.free_in_own_disk(p, v, w) for v, w in exact.items() if w is not None)

    def test_same_face_membership(self):
        """All faces at once against one face at a time; points on the
        edges and corners of the faces included."""
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
        got = verifier._in_any_face(p, pts, 1e-9)
        assert np.array_equal(got, oracles.in_any_face(p, pts, 1e-9))
        assert 0 < got.sum() < len(pts)


class TestNearDisks:
    """A disk not adjacent to v, closer to D_v than the 1e-12 sample slack,
    is among the circles tested, and the witness clears it: without it,
    dD_0 would be one arc, whose midpoint lies in that gap."""

    def test_planar_gap_below_slack(self):
        t = shapes.octahedron()
        u = next(w for w in range(1, 6) if not t.has_edge(0, w))
        centers = np.array([100j * k for k in range(6)])
        centers[0], centers[u] = 0.0, 2.0 + 5e-13
        p = CirclePattern(t, AngleAssignment.constant(t, 0.0), "euclidean",
                          centers, np.ones(6))
        self._check(p, u)

    def test_spherical_gap_below_slack(self):
        # the caps' chord gap is 5e-13, inside the slack: a length on the
        # sphere as in the plane, so a cap of radius 1e-6 gets no more of it
        touch = 2.0 * math.sin(0.5 * (0.5 + 1e-6))
        p, u = self._tiny_cap(2.0 * math.asin(0.5 * (touch + 5e-13)))
        self._check(p, u)
        # an angular gap of 5e-7, half the cap's radius, is far outside it
        p, u = self._tiny_cap(0.5 + 1e-6 + 5e-7)
        assert u not in verifier._near_disks(p, -verifier.COVER_SLACK)[0]
        _, got = verifier._irreducibility_witnesses(p)
        assert oracles.free_in_own_disk(p, 0, got[0])

    @staticmethod
    def _tiny_cap(phi):
        """D_0 of radius 0.5 at the north pole, and a cap of radius 1e-6 at
        angle ``phi`` from it along +y, where boundary sample 0 of D_0 points."""
        t = shapes.octahedron()
        u = next(w for w in range(1, 6) if not t.has_edge(0, w))
        far = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, -1.0, 0.0)]
        centers = np.zeros((6, 3))
        radii = np.full(6, 0.1)
        centers[[w for w in range(1, 6) if w != u]] = far
        centers[0], radii[0] = (0.0, 0.0, 1.0), 0.5
        centers[u], radii[u] = (0.0, math.sin(phi), math.cos(phi)), 1e-6
        return CirclePattern(t, AngleAssignment.constant(t, 1.2), "spherical", centers, radii), u

    def test_witness_passes_the_all_disk_test(self, monkeypatch):
        """With D_3 left out of the near disks of D_0, dD_0 is one arc whose
        midpoint lies in D_3: the all-disk test must reject that witness."""
        t = shapes.octahedron()
        centers = np.array([0.0, 10.0, 20.0, 1.0, 30.0, 40.0]) + 0j
        radii = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        p = CirclePattern(t, AngleAssignment.constant(t, 0.0), "euclidean", centers, radii)
        _, got = verifier._irreducibility_witnesses(p)
        assert oracles.free_in_own_disk(p, 0, got[0])
        real = verifier._near_disks

        def near_but_3(p, slack):
            near = real(p, slack)
            near[0] = near[0][near[0] != 3]
            return near

        monkeypatch.setattr(verifier, "_near_disks", near_but_3)
        _, got = verifier._irreducibility_witnesses(p)
        assert got[0] is None

    @staticmethod
    def _check(p, u):
        assert u in verifier._near_disks(p, -verifier.COVER_SLACK)[0]
        _, got = verifier._irreducibility_witnesses(p)
        assert oracles.free_in_own_disk(p, 0, got[0])


class TestThresholds:
    """Witnesses within an ulp of the kernels' thresholds: the near list
    keeps the disk at the threshold, and the witnesses are those computed
    with every disk tested (the per-vertex scan of ``oracles``)."""

    @staticmethod
    def _octahedron(mode, centers, radii, theta=0.0):
        return CirclePattern(shapes.octahedron(), AngleAssignment.constant(
            shapes.octahedron(), theta), mode, centers, radii)

    def test_planar_disk_one_ulp_past_cover_slack(self, monkeypatch):
        # dD_0 has no cuts, so its one midpoint, 1, is the point nearest D_u
        t = shapes.octahedron()
        u = next(w for w in range(1, 6) if not t.has_edge(0, w))
        centers = np.array([100j * k for k in range(6)])
        centers[0] = 0.0
        centers[u] = np.nextafter(1.5 + verifier.COVER_SLACK, 2.0)
        radii = np.where(np.arange(6) == 0, 1.0, 0.5)
        self._check(self._octahedron("euclidean", centers, radii), u, 1.0, monkeypatch)

    def test_spherical_cap_one_ulp_past_cover_slack(self, monkeypatch):
        t = shapes.octahedron()
        u = next(w for w in range(1, 6) if not t.has_edge(0, w))
        north = np.array([0.0, 0.0, 1.0])
        (e1,), _ = tangent_frames(north)
        gap = math.acos(np.nextafter(math.cos(0.1) - verifier.COVER_SLACK, 0.0))
        centers = np.zeros((6, 3))
        centers[[w for w in range(1, 6) if w != u]] = [
            (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
        centers[0] = north
        centers[u] = math.cos(0.5 + gap) * north + math.sin(0.5 + gap) * e1
        radii = np.where(np.arange(6) == 0, 0.5, 0.1)
        p = self._octahedron("spherical", centers, radii, 1.2)
        self._check(p, u, math.cos(0.5) * north + math.sin(0.5) * e1, monkeypatch)

    @staticmethod
    def _check(p, u, nearest, monkeypatch):
        assert u in verifier._near_disks(p, -verifier.COVER_SLACK)[0]
        _, got = verifier._irreducibility_witnesses(p)
        assert oracles.free_in_own_disk(p, 0, got[0])
        assert np.allclose(got[0], nearest, rtol=0.0, atol=1e-15)
        n = len(p.radii)
        for near in ([oracles.near_disks(p, v, -verifier.COVER_SLACK) for v in range(n)],
                     [np.delete(np.arange(n), v) for v in range(n)]):
            monkeypatch.setattr(verifier, "_near_disks", lambda p, slack: near)
            _, want = verifier._irreducibility_witnesses(p)
            assert all(np.array_equal(got[v], want[v]) for v in range(n))

    @pytest.mark.parametrize("mode", ["euclidean", "spherical"])
    @pytest.mark.parametrize("past", [-1, 1])
    def test_flower_neighbour_one_ulp_from_eps(self, mode, past):
        """D_0 holds the caps of the three link sides of a tetrahedron's
        vertex 0; neighbours 1 and 3, shrunk by eps, meet dD_0 at the side
        c1 c3's midpoint direction m, where they cover m by one ulp
        (past = -1) or miss it by one (past = 1): then the witness is m."""
        t, eps = shapes.tetrahedron(), 1e-9
        az = np.radians([0.0, 90.0, 210.0, 330.0])
        if mode == "euclidean":
            centers = 1.5 * np.exp(1j * az)
            centers[0] = 0.0
            m = np.exp(1j * math.radians(30.0))
            reach = abs(m - centers[1]) + eps
            radii = np.r_[1.0, np.full(3, np.nextafter(reach, reach - past))]
        else:
            north = np.array([0.0, 0.0, 1.0])
            ring = np.column_stack([np.cos(az), np.sin(az), np.zeros(4)])
            centers = math.cos(0.75) * north + math.sin(0.75) * ring
            centers[0] = north
            m = math.cos(0.5) * north + math.sin(0.5) * np.array(
                [math.cos(math.radians(30.0)), math.sin(math.radians(30.0)), 0.0])
            # step r by ulps until its chord crosses |m - c1| + eps
            reach = float(np.linalg.norm(m - centers[1])) + eps
            r = 2.0 * math.asin(0.5 * reach)
            while not (2.0 * math.sin(0.5 * r) - reach) * past < 0.0:
                r = np.nextafter(r, r - past)
            radii = np.r_[0.5, np.full(3, r)]
        p = CirclePattern(t, AngleAssignment.constant(t, 0.0), mode, centers, radii)
        assert 1 in verifier._near_disks(p, -verifier.COVER_SLACK)[0]
        got = verifier._flower_failures(p, np.array([0]), eps)
        if past < 0:
            assert got == {}
        else:
            assert np.allclose(got[0], m, rtol=0.0, atol=1e-8)
            assert oracles.flower_uncovered(p, 0, got[0], eps)


def _disk_family(mode, seed, n, tangent, big):
    """n random disks (plane) or caps (sphere), dense enough that some are
    covered by the rest, and with ``big`` often all of them; disk k is
    tangent to disk k - 1 for k <= tangent, externally for odd k and
    internally for even k."""
    rng = np.random.default_rng(seed)
    t = shapes.bipyramid(n - 2)
    if mode == "euclidean":
        c = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
        r = rng.uniform(0.3, 3.0 if big else 1.2, n)
        for k in range(1, tangent + 1):
            u = (c[k] - c[k - 1]) / abs(c[k] - c[k - 1])
            c[k] = c[k - 1] + u * (r[k - 1] + r[k] if k % 2 else abs(r[k - 1] - r[k]))
    else:
        c = rng.normal(size=(n, 3))
        c /= np.linalg.norm(c, axis=1)[:, None]
        r = rng.uniform(0.2, 2.9 if big else 1.0, n)
        for k in range(1, tangent + 1):
            a, b = c[k - 1], c[k] - (c[k] @ c[k - 1]) * c[k - 1]
            phi = r[k - 1] + r[k] if k % 2 else abs(r[k - 1] - r[k])
            c[k] = math.cos(phi) * a + math.sin(phi) * b / np.linalg.norm(b)
    return CirclePattern(t, AngleAssignment.constant(t, 0.0), mode, c, r)


class TestExactIrreducibility:
    """The arc-coverage kernel against the sampled all-disk reference."""

    @settings(max_examples=150)
    @given(mode=st.sampled_from(["euclidean", "spherical"]), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(6, 10), tangent=st.integers(0, 3), big=st.booleans())
    def test_random_families(self, mode, seed, n, tangent, big):
        p = _disk_family(mode, seed, n, tangent, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ok, exact = verifier._irreducibility_witnesses(p)
        _, sampled = oracles.irreducibility_witnesses(p, 512, 96)
        for v in range(n):
            if exact[v] is not None:
                assert oracles.free_in_own_disk(p, v, exact[v]), v
            elif sampled[v] is not None:
                pytest.fail(f"sampling found a free point of disk {v}, the exact test none")
        assert ok == all(w is not None for w in exact.values())

    def test_hole_of_a_big_cap(self):
        """D_0 holds the small hole that the big cap D_1 leaves and covers
        everything else of D_0: the witness is moved into the hole by less
        than the hole's radius, not past the antipode of D_1's centre."""
        t = shapes.octahedron()
        centers = np.array([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                            (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)])
        radii = np.array([1.0, PI - 0.02, 0.1, 0.1, 0.1, 0.1])
        p = CirclePattern(t, AngleAssignment.constant(t, 1.2), "spherical", centers, radii)
        _, got = verifier._irreducibility_witnesses(p)
        assert oracles.free_in_own_disk(p, 0, got[0])
        assert got[0] @ centers[0] > math.cos(0.02)

    def test_swallowed_disk(self):
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 1))
        p = _spherical(t, 1.2)
        assert verify_pattern(p).irreducible_ok
        u = t.neighbors(0)[0]
        radii = p.radii.copy()
        radii[u] = math.acos(p.centers[0] @ p.centers[u]) + p.radii[0] + 0.01
        bad = CirclePattern(t, p.theta, p.mode, p.centers, radii)
        rep = verify_pattern(bad)
        assert not rep.irreducible_ok
        assert rep.irreducibility_witnesses[0] is None
        assert rep.irreducibility_witnesses[u] is not None
