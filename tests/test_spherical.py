import math

import numpy as np
import pytest

from circlepattern import (
    AngleAssignment,
    inversive_distance,
    lift_to_sphere,
    solve_euclidean,
    solve_spherical,
)
from circlepattern import shapes
from circlepattern.errors import ConditionsViolated
from circlepattern.spherical import lift_circle
from circlepattern.verify import CirclePattern

PI = math.pi


def symmetric_radius(adjacent_dot: float, theta: float) -> float:
    """Bisection oracle for the common cap radius of a vertex-transitive
    pattern with centers at unit directions whose adjacent dot product is
    ``adjacent_dot``."""

    def realized(rho):
        return (math.cos(rho) ** 2 - adjacent_dot) / math.sin(rho) ** 2

    lo, hi = 1e-6, PI / 2 - 1e-9
    want = math.cos(theta)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if realized(mid) > want:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLift:
    def test_unit_circle_maps_to_south_hemisphere(self):
        n, r = lift_circle(0j, 1.0)
        assert np.allclose(n, [0, 0, -1], atol=1e-15)
        assert r == pytest.approx(PI / 2, abs=1e-15)

    def test_far_circle_maps_near_north_pole(self):
        n, r = lift_circle(100 + 0j, 1.0)
        assert n[2] > 0.999
        assert r < 1e-3

    def test_lift_preserves_inversive_distance(self, octa):
        th = AngleAssignment.constant(octa, PI / 4)
        cfg, _ = solve_euclidean(octa, th, 0)
        sph = lift_to_sphere(cfg)
        worst = 0.0
        for (u, v) in octa.edges:
            Ie = inversive_distance(
                "euclidean", cfg.centers[u], cfg.radii[u], cfg.centers[v], cfg.radii[v]
            )
            Is = inversive_distance(
                "spherical", sph.centers[u], sph.radii[u], sph.centers[v], sph.radii[v]
            )
            worst = max(worst, abs(Ie - Is))
        assert worst < 1e-10


class TestOctahedronSymmetric:
    def test_matches_symmetry_reduced_oracle(self, octa):
        th = AngleAssignment.constant(octa, PI / 3)
        cfg, rep = solve_spherical(octa, th)
        assert rep.angle_residual < 1e-12

        rho = symmetric_radius(0.0, PI / 3)
        assert abs(rho - math.atan(math.sqrt(2))) < 1e-10
        # Moebius-invariant comparison: all pairwise inversive distances of
        # the solved pattern match the symmetric configuration's
        p = CirclePattern.from_spherical(octa, th, cfg)
        inv = p.inversive_matrix()
        cr2, sr2 = math.cos(rho) ** 2, math.sin(rho) ** 2
        for u in range(6):
            for v in range(u + 1, 6):
                dot = 0.0 if octa.has_edge(u, v) else -1.0
                want = (cr2 - dot) / sr2
                assert abs(inv[u, v] - want) < 1e-8

    def test_normalization_gauge(self, octa):
        th = AngleAssignment.constant(octa, PI / 3)
        cfg, _ = solve_spherical(octa, th)
        a, b, c = cfg.marked_face
        assert np.allclose(cfg.centers[a], [0, 0, -1], atol=1e-15)
        assert abs(cfg.centers[b][1]) < 1e-15 and cfg.centers[b][0] > 0
        assert cfg.centers[c][1] > 0
        assert np.allclose(cfg.radii[[a, b, c]], PI / 4, atol=1e-15)
        assert np.allclose(np.linalg.norm(cfg.centers, axis=1), 1.0, atol=1e-12)


class TestIcosahedronSymmetric:
    def test_matches_symmetry_reduced_oracle(self, icosa):
        th = AngleAssignment.constant(icosa, 2 * PI / 5)
        cfg, rep = solve_spherical(icosa, th)
        assert rep.angle_residual < 1e-12
        rho = symmetric_radius(1.0 / math.sqrt(5.0), 2 * PI / 5)
        pts = shapes._icosahedron_coordinates()
        p = CirclePattern.from_spherical(icosa, th, cfg)
        inv = p.inversive_matrix()
        cr2, sr2 = math.cos(rho) ** 2, math.sin(rho) ** 2
        for u in range(12):
            for v in range(u + 1, 12):
                want = (cr2 - float(pts[u] @ pts[v])) / sr2
                assert abs(inv[u, v] - want) < 1e-8


class TestPerturbed:
    def test_octahedron_single_edge_bump(self, octa):
        vals = np.full(octa.edge_count, PI / 3)
        vals[0] += 0.05
        th = AngleAssignment(octa, tuple(vals))
        from circlepattern import classify

        assert classify(octa, th, "m5").passed
        cfg, rep = solve_spherical(octa, th)
        assert rep.angle_residual < 1e-8
        p = CirclePattern.from_spherical(octa, th, cfg)
        inv = p.inversive_matrix()
        for eid, (u, v) in enumerate(octa.edges):
            assert abs(inv[u, v] - math.cos(vals[eid])) < 1e-10

    def test_two_disjoint_bumps(self, octa):
        vals = np.full(octa.edge_count, PI / 3)
        vals[0] += 0.05
        vals[-1] += 0.04
        th = AngleAssignment(octa, tuple(vals))
        cfg, rep = solve_spherical(octa, th)
        assert rep.angle_residual < 1e-8


class TestBipyramidFamily:
    def test_hexagonal_bipyramid_random_admissible(self):
        """Bipyramid instances once attracted Newton to spurious branches
        (angles matched but non-adjacent disks overlapped); the genuineness
        guard must keep the solver on the embedded branch."""
        from circlepattern import classify, verify_pattern

        t = shapes.bipyramid(6)
        rng = np.random.default_rng(4096)
        done = 0
        while done < 3:
            vals = np.clip(PI / 3 + rng.uniform(0.0, 0.45, t.edge_count),
                           0.05, PI - 0.05)
            th = AngleAssignment(t, tuple(vals))
            if not classify(t, th, "m5").passed:
                continue
            cfg, rep = solve_spherical(t, th)
            p = CirclePattern.from_spherical(t, th, cfg)
            assert verify_pattern(p).passed
            done += 1

    def test_octagonal_bipyramid_admissible_draw(self):
        """An admissible octagonal-bipyramid draw, uniform in
        [pi/3, pi/3 + 0.45) per edge, far from the tangency packing the
        homotopy starts at."""
        from circlepattern import classify, verify_pattern

        t = shapes.bipyramid(8)
        th = AngleAssignment(t, tuple(OCTAGONAL_BIPYRAMID_THETA[e] for e in t.edges))
        assert classify(t, th, "m5").passed
        cfg, rep = solve_spherical(t, th)
        assert rep.angle_residual < 1e-12
        assert verify_pattern(CirclePattern.from_spherical(t, th, cfg)).passed


OCTAGONAL_BIPYRAMID_THETA = {
    (0, 2): 1.2267082096255804, (0, 3): 1.0547775179108356, (0, 4): 1.1703962248996602,
    (0, 5): 1.3437760878924339, (0, 6): 1.3944718415012238, (0, 7): 1.3580665148440871,
    (0, 8): 1.2728661381581445, (0, 9): 1.2815384820508997, (1, 2): 1.113137561860812,
    (1, 3): 1.3844459150821649, (1, 4): 1.1626740035758145, (1, 5): 1.2884306531385872,
    (1, 6): 1.1816315384583647, (1, 7): 1.3597943522212306, (1, 8): 1.0920391710493758,
    (1, 9): 1.218531708345456, (2, 3): 1.0749339501266029, (2, 9): 1.1445325312464656,
    (3, 4): 1.1809170577451926, (4, 5): 1.3331189656226645, (5, 6): 1.1017757924907765,
    (6, 7): 1.4560571409881553, (7, 8): 1.259369156704474, (8, 9): 1.4257287558117238,
}


def loop_subdivide(faces, levels):
    """Split every triangle into four at its edge midpoints, keeping the
    winding: the icosahedron becomes n = 42, 162, 642."""
    for _ in range(levels):
        n = 1 + max(max(f) for f in faces)
        mid = {}

        def m(u, v):
            return mid.setdefault((min(u, v), max(u, v)), n + len(mid))

        faces = [g for a, b, c in faces
                 for g in ((a, m(a, b), m(c, a)), (b, m(b, c), m(a, b)),
                           (c, m(c, a), m(b, c)), (m(a, b), m(b, c), m(c, a)))]
    return faces


class TestSubdividedIcosahedron:
    def test_n162_no_interstice(self):
        """The n=162 subdivided icosahedron.  The interior grid is coarsened
        because the irreducibility sampling dominates the verifier's cost at
        this size."""
        from circlepattern import build_triangulation, verify_pattern

        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 2))
        assert t.vertex_count == 162
        th = AngleAssignment.constant(t, 1.2)
        cfg, rep = solve_spherical(t, th)
        assert rep.angle_residual < 1e-10
        p = CirclePattern.from_spherical(t, th, cfg)
        assert verify_pattern(p, interior_grid=64).passed


class TestErrors:
    def test_conditions_enforced(self, octa):
        with pytest.raises(ConditionsViolated):
            solve_spherical(octa, AngleAssignment.constant(octa, PI / 4))

    def test_base_solve_failure_reported(self, octa):
        """With no iterations the tangency packing that starts the homotopy
        cannot converge; the failure is reported with its cause."""
        from circlepattern.errors import BaseSolveFailed, Stalled
        from circlepattern.options import SolveOptions

        th = AngleAssignment.constant(octa, PI / 3)
        with pytest.raises(BaseSolveFailed) as info:
            solve_spherical(octa, th, SolveOptions(max_iters=0))
        assert isinstance(info.value.__cause__, Stalled)

    def test_small_triangulation_rejected(self, tetra):
        # the no-interstice class needs more than four vertices
        with pytest.raises(ConditionsViolated):
            solve_spherical(tetra, AngleAssignment.constant(tetra, 2.0))
