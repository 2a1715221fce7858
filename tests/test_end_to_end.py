"""Cross-module contracts: solver outputs always verify, normalization is a
similarity, formats round-trip, unorientable input is refused."""
import math

import numpy as np
import pytest

from circlepattern import (
    AngleAssignment,
    build_triangulation,
    pick_marked_face,
    solve_euclidean,
    solve_spherical,
    verify_pattern,
)
from circlepattern import formats, shapes
from circlepattern.errors import InconsistentOrientation
from circlepattern.verify import CirclePattern

from random_triangulations import stacked_faces

PI = math.pi

# minimal projective-plane triangulation: every edge in two faces but no
# consistent global orientation exists
PROJECTIVE_PLANE = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]


def euclidean_instances():
    t = shapes.tetrahedron()
    yield t, AngleAssignment.constant(t, 0.0)
    yield t, AngleAssignment.constant(t, PI / 4)
    o = shapes.octahedron()
    yield o, AngleAssignment.constant(o, PI / 4)
    bp = shapes.triangular_bipyramid()
    vals = {}
    for (u, v) in bp.edges:
        vals[(u, v)] = 0.2 if (0 in (u, v) or 1 in (u, v)) else 0.3
    eq = [e for e in bp.edges if 0 not in e and 1 not in e]
    vals[eq[0]] = 1.8
    yield bp, AngleAssignment.from_dict(bp, vals)
    hexb = shapes.bipyramid(6)
    yield hexb, AngleAssignment.constant(hexb, 0.35)


def spherical_instances():
    o = shapes.octahedron()
    yield o, AngleAssignment.constant(o, PI / 3)
    vals = np.full(o.edge_count, PI / 3)
    vals[0] += 0.05
    yield o, AngleAssignment(o, tuple(vals))
    ico = shapes.icosahedron()
    yield ico, AngleAssignment.constant(ico, 2 * PI / 5)


class TestSolverOutputsVerify:
    def test_every_euclidean_instance(self):
        for t, th in euclidean_instances():
            cfg, rep = solve_euclidean(t, th, pick_marked_face(t, th))
            pattern = CirclePattern.from_euclidean(t, th, cfg)
            vrep = verify_pattern(pattern)
            assert vrep.passed, (t.vertex_count, vrep.to_dict())

    def test_every_spherical_instance(self):
        for t, th in spherical_instances():
            cfg, rep = solve_spherical(t, th)
            pattern = CirclePattern.from_spherical(t, th, cfg)
            vrep = verify_pattern(pattern)
            assert vrep.passed, (t.vertex_count, vrep.to_dict())


class TestDeepStacking:
    def test_extreme_radius_ratios_still_verify(self):
        """Repeated stellation produces circles four orders of magnitude
        apart; the post-layout polish must keep per-edge errors at the
        dimensionless tolerance anyway."""
        t = build_triangulation(stacked_faces(np.random.default_rng(7777), 25))
        th = AngleAssignment.constant(t, 0.0)
        cfg, rep = solve_euclidean(t, th, pick_marked_face(t, th))
        pattern = CirclePattern.from_euclidean(t, th, cfg)
        vrep = verify_pattern(pattern)
        assert vrep.passed
        assert vrep.angle_max_err < 1e-10
        assert float(cfg.radii.min() / cfg.radii.max()) < 1e-3

    def test_stacked_120_verifies(self):
        """A 120-vertex stacking with radius ratios near 1e-5: the polish must
        bring every angle error under the verifier's tolerance."""
        rng = np.random.default_rng(11)
        rng.uniform(0.0, 1.2, 480)  # as in the planar-g5 benchmark's stack120 draw
        t = build_triangulation(stacked_faces(rng, 120))
        th = AngleAssignment.constant(t, 0.0)
        cfg, rep = solve_euclidean(t, th, pick_marked_face(t, th))
        assert verify_pattern(CirclePattern.from_euclidean(t, th, cfg)).passed


class TestSimilarityInvariance:
    def test_normalization_preserves_inversive_distances(self, octa):
        """Any similarity (translate, rotate, scale, reflect) of a planar
        pattern leaves all inversive distances unchanged."""
        th = AngleAssignment.constant(octa, PI / 4)
        cfg, _ = solve_euclidean(octa, th, 0)
        base = CirclePattern.from_euclidean(octa, th, cfg)
        inv0 = base.inversive_matrix()
        rot = np.exp(1j * 0.73)
        moved = CirclePattern(
            octa, th, "euclidean",
            np.conj(cfg.centers * rot * 3.7 + (2.0 - 1.0j)),
            cfg.radii * 3.7, cfg.marked_face,
        )
        inv1 = moved.inversive_matrix()
        assert np.max(np.abs(inv0 - inv1)) < 1e-12


class TestUnorientable:
    def test_projective_plane_rejected(self):
        with pytest.raises(InconsistentOrientation):
            build_triangulation(PROJECTIVE_PLANE)


class TestFormats:
    def test_triangulation_round_trip(self, octa, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(formats.dumps(formats.triangulation_to_dict(octa)))
        t2 = formats.load_triangulation(path)
        assert t2.faces == octa.faces
        assert t2.edges == octa.edges

    def test_canonical_output_reemits_repaired_orientation(self, tmp_path):
        faces = [[0, 2, 1], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
        t = build_triangulation(faces)
        assert t.orientation_flipped
        data = formats.triangulation_to_dict(t)
        t2 = build_triangulation(data["faces"])
        assert not t2.orientation_flipped

    def test_theta_round_trip(self, octa, tmp_path):
        th = AngleAssignment.constant(octa, 0.4)
        path = tmp_path / "th.json"
        path.write_text(formats.dumps(formats.theta_to_dict(th)))
        th2 = formats.load_theta(octa, path)
        assert th2.values == th.values

    def test_theta_arbitrary_edge_order_canonicalized(self, tetra):
        items = [{"edge": [v, u], "value": 0.3} for (u, v) in tetra.edges]
        th = formats.load_theta(tetra, {"theta": items})
        assert all(v == 0.3 for v in th.values)

    def test_theta_missing_edge_rejected(self, tetra):
        from circlepattern.errors import UsageError

        items = [{"edge": list(e), "value": 0.3} for e in tetra.edges[:-1]]
        with pytest.raises(UsageError):
            formats.load_theta(tetra, {"theta": items})

    def test_pattern_round_trip(self, tetra, tmp_path):
        th = AngleAssignment.constant(tetra, 0.0)
        cfg, _ = solve_euclidean(tetra, th, 0)
        p = CirclePattern.from_euclidean(tetra, th, cfg)
        path = tmp_path / "p.json"
        path.write_text(formats.dumps(formats.pattern_to_dict(p)))
        p2 = formats.load_pattern(path)
        assert p2.mode == "euclidean"
        assert np.allclose(p2.radii, p.radii)
        assert np.allclose(p2.centers, p.centers)
        assert p2.marked_face == p.marked_face
        assert verify_pattern(p2).passed
