import math

import numpy as np
import pytest

from circlepattern.errors import (
    CoversSphere,
    DomainError,
    Infeasible,
    NotMutuallyIntersecting,
)
from circlepattern.triples import (
    EUCLIDEAN,
    OPPOSITE,
    SPHERICAL,
    TripleSpec,
    angle_from_inversive,
    containment_angle_check,
    edge_length,
    edge_lengths,
    feasibility,
    feasibility_margin,
    inner_angles,
    inversive_distance,
    lens_relations,
    limit_profile,
    place_triple,
    triple_geometry,
    triple_intersection_empty,
    triple_intersections_empty,
)

import oracles

PI = math.pi


class TestEdgeLength:
    def test_orthogonal_unit_circles(self):
        spec = TripleSpec(EUCLIDEAN, (1, 1, 1), (PI / 2, PI / 2, PI / 2))
        assert edge_length(spec, 0) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_external_tangency(self):
        spec = TripleSpec(EUCLIDEAN, (1, 1, 1), (0, 0, 0))
        assert edge_length(spec, 0) == pytest.approx(2.0, abs=1e-15)

    def test_spherical_plugin(self):
        spec = TripleSpec(SPHERICAL, (PI / 4, PI / 4, PI / 4), (PI / 2, PI / 2, PI / 2))
        assert edge_length(spec, 0) == pytest.approx(PI / 3, abs=1e-15)

    def test_spherical_argument_always_in_domain(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(1e-3, PI - 1e-3, (2000, 3))
        th = rng.uniform(1e-3, PI - 1e-3, (2000, 3))
        l = edge_lengths(SPHERICAL, r, th)
        assert np.all(np.isfinite(l))


class TestFeasibility:
    def test_right_angles_margin_formula(self):
        for radii in ((1, 1, 1), (0.3, 2.0, 5.0)):
            spec = TripleSpec(EUCLIDEAN, radii, (PI / 2, PI / 2, PI / 2))
            ok, margin = feasibility(spec)
            ri, rj, rk = radii
            want = (rj * rk) ** 2 + (rk * ri) ** 2 + (ri * rj) ** 2
            assert ok and margin == pytest.approx(want, rel=1e-14)

    def test_spherical_symmetric_value(self):
        # independent termwise evaluation of the expanded form gives 1/2
        spec = TripleSpec(SPHERICAL, (PI / 4,) * 3, (PI / 2,) * 3)
        ok, margin = feasibility(spec)
        assert ok and margin == pytest.approx(0.5, abs=1e-14)

    def test_pair_bound_violation_infeasible(self):
        # theta_i + theta_j far above theta_k + pi: circles cannot close up
        spec = TripleSpec(EUCLIDEAN, (1, 1, 1), (3.0, 3.0, 0.1))
        ok, margin = feasibility(spec)
        assert not ok and margin < 0
        # law-of-cosines oracle: the three center distances fail the
        # triangle inequality outright
        l = edge_lengths(EUCLIDEAN, (1, 1, 1), (3.0, 3.0, 0.1))
        assert l[0] + l[1] < l[2]

    def test_equal_obtuse_angles_are_feasible(self):
        # equal angles always satisfy the pairwise bounds, so the triple
        # closes up for any radii
        spec = TripleSpec(EUCLIDEAN, (1, 1, 1), (3.0, 3.0, 3.0))
        ok, _ = feasibility(spec)
        assert ok

    @pytest.mark.parametrize("mode", [EUCLIDEAN, SPHERICAL])
    def test_margin_sign_matches_triangle_inequalities(self, mode):
        rng = np.random.default_rng(5)
        agree = 0
        for _ in range(4000):
            if mode == EUCLIDEAN:
                radii = tuple(rng.uniform(0.05, 3.0, 3))
            else:
                radii = tuple(rng.uniform(0.05, PI - 0.05, 3))
            th = tuple(rng.uniform(1e-6, PI - 1e-6, 3))
            margin = feasibility_margin(mode, radii, th)
            l = edge_lengths(mode, radii, th)
            tri = (
                l[0] + l[1] > l[2]
                and l[1] + l[2] > l[0]
                and l[2] + l[0] > l[1]
            )
            if mode == SPHERICAL:
                tri = tri and (l[0] + l[1] + l[2] < 2 * PI)
            if abs(margin) > 1e-9:  # stay clear of the boundary
                assert (margin > 0) == tri
                agree += 1
        assert agree > 3500


class TestInnerAngles:
    def test_equilateral(self):
        spec = TripleSpec(EUCLIDEAN, (1, 1, 1), (0.8, 0.8, 0.8))
        assert inner_angles(spec) == pytest.approx((PI / 3,) * 3, abs=1e-14)

    def test_small_radius_limit(self):
        spec = TripleSpec(EUCLIDEAN, (1, 1, 1e-6), (PI / 4, PI / 4, PI / 4))
        alphas = inner_angles(spec)
        assert abs(alphas[2] - (PI - PI / 4)) < 1e-3

    def test_spherical_known_value(self):
        spec = TripleSpec(SPHERICAL, (PI / 4,) * 3, (PI / 2,) * 3)
        alphas = inner_angles(spec)
        assert alphas == pytest.approx((math.acos(1.0 / 3.0),) * 3, abs=1e-14)

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            inner_angles(TripleSpec(EUCLIDEAN, (1, 1, 1), (3.0, 3.0, 0.1)))


class TestInversiveDistance:
    def test_tangent_unit_circles(self):
        assert inversive_distance(EUCLIDEAN, 0j, 1, 2 + 0j, 1) == pytest.approx(1.0)

    def test_orthogonal_unit_circles(self):
        I = inversive_distance(EUCLIDEAN, 0j, 1, math.sqrt(2) + 0j, 1)
        assert I == pytest.approx(0.0, abs=1e-15)
        assert angle_from_inversive(I) == pytest.approx(PI / 2)

    def test_spherical_round_trip_with_edge_length(self):
        n1 = np.array([0.0, 0.0, 1.0])
        n2 = np.array([math.sin(PI / 3), 0.0, math.cos(PI / 3)])
        I = inversive_distance(SPHERICAL, n1, PI / 4, n2, PI / 4)
        assert I == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range_returned_raw(self):
        I = inversive_distance(EUCLIDEAN, 0j, 1, 10 + 0j, 1)
        assert I > 1
        with pytest.raises(DomainError):
            angle_from_inversive(I)


class TestPlacement:
    @pytest.mark.parametrize("mode", [EUCLIDEAN, SPHERICAL])
    def test_round_trip(self, mode):
        rng = np.random.default_rng(17)
        done = 0
        while done < 500:
            if mode == EUCLIDEAN:
                radii = tuple(rng.uniform(0.05, 3.0, 3))
                th = tuple(rng.uniform(0.0, PI - 1e-9, 3))
            else:
                radii = tuple(rng.uniform(0.05, PI - 0.05, 3))
                th = tuple(rng.uniform(1e-6, PI - 1e-6, 3))
            if feasibility_margin(mode, radii, th) <= 1e-9:
                continue
            spec = TripleSpec(mode, radii, th)
            centers = place_triple(spec)
            for idx, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
                I = inversive_distance(mode, centers[a], radii[a], centers[b], radii[b])
                assert abs(I - math.cos(th[idx])) < 1e-10
            done += 1


class TestBoundarySumLaw:
    def test_angle_sum_pi_gives_perimeter_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            w = rng.dirichlet((1.0, 1.0, 1.0))
            th = tuple(w * PI)
            if min(th) < 1e-9:
                continue
            r = tuple(rng.uniform(1e-3, PI - 1e-3, 3))
            l = edge_lengths(SPHERICAL, r, th)
            assert l[0] + l[1] + l[2] <= 2 * PI + 1e-9
            assert l[0] + l[1] > l[2] - 1e-12
            if sum(r) < PI - 1e-6:
                assert l[0] + l[1] + l[2] < 2 * PI - 1e-12


class TestPolarTriangleIdentity:
    def test_lambda_identity(self):
        """lambda_i equals cos(phi_i) sin(theta_j) sin(theta_k) with phi the
        side lengths of an actually constructed angle triangle."""
        rng = np.random.default_rng(31)
        done = 0
        while done < 300:
            th = rng.uniform(0.2, PI - 0.2, 3)
            if sum(th) <= PI + 1e-6:
                continue
            ok = all(
                th[(k + 1) % 3] + th[(k + 2) % 3] < th[k] + PI - 1e-6 for k in range(3)
            )
            if not ok:
                continue
            # polar triangle has sides pi - theta; its inner angles are
            # pi - phi where phi are the angle triangle's sides
            polar = oracles.place_spherical_triangle(tuple(PI - x for x in th))
            betas = oracles.measured_angles(polar)
            phis = [PI - b for b in betas]
            geo = triple_geometry(TripleSpec(SPHERICAL, (1.0, 1.0, 1.0), tuple(th)))
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                want = math.cos(phis[i]) * math.sin(th[j]) * math.sin(th[k])
                assert abs(geo.lambdas[i] - want) < 1e-12
                assert abs(geo.angle_triangle_sides[i] - phis[i]) < 1e-10
            done += 1


class TestLimitProfile:
    def test_one_radius_both_modes(self):
        scales = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        for mode in (EUCLIDEAN, SPHERICAL):
            prof = limit_profile(mode, (1, 1, 1), (PI / 3,) * 3, [0], scales)
            assert prof.monotone_decreasing
            assert prof.final_gap < 1e-3

    def test_two_radii(self):
        prof = limit_profile(EUCLIDEAN, (1, 1, 1), (0.9, 1.1, 0.4), [0, 1],
                             [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert prof.monotone_decreasing
        assert prof.final_gap < 1e-3

    def test_three_radii_euclidean_exact(self):
        prof = limit_profile(EUCLIDEAN, (1, 1, 1), (PI / 4,) * 3, [0, 1, 2],
                             [1e-1, 1e-2, 1e-3])
        assert all(g < 1e-12 for g in prof.gaps)

    def test_three_radii_spherical(self):
        prof = limit_profile(SPHERICAL, (1, 1, 1), (PI / 3,) * 3, [0, 1, 2],
                             [1e-1, 1e-2, 1e-3])
        assert prof.monotone_decreasing and prof.final_gap < 1e-3


class TestContainment:
    def test_orthogonal_lens_in_big_disk(self):
        recs = containment_angle_check(
            EUCLIDEAN, [0j, math.sqrt(2) + 0j, 0.707 + 0j], [1.0, 1.0, 0.95]
        )
        hit = [r for r in recs if r.contained and not r.single_point]
        assert hit
        assert all(r.relation_holds and r.slack > 0 for r in hit)

    def test_tangency_through_boundary_point_equality(self):
        recs = containment_angle_check(
            EUCLIDEAN, [0j, 2 + 0j, 1 + 0.5j], [1.0, 1.0, 0.5]
        )
        single = [r for r in recs if r.contained and r.single_point]
        assert single
        rec = single[0]
        assert rec.boundary_concurrent
        assert abs(rec.lhs - PI) < 1e-9

    def test_tangency_strictly_inside(self):
        recs = containment_angle_check(
            EUCLIDEAN, [0j, 2 + 0j, 1 + 0j], [1.0, 1.0, 0.5]
        )
        single = [r for r in recs if r.contained and r.single_point]
        assert single and single[0].lhs > PI + 0.1
        assert not single[0].boundary_concurrent

    def test_lens_not_contained_no_assert(self):
        # three mutually overlapping unit disks, no lens inside any third
        recs = containment_angle_check(
            EUCLIDEAN, [0j, 1.2 + 0j, 0.6 + 1.0j], [1.0, 1.0, 1.0]
        )
        assert not any(r.contained for r in recs)

    def test_disjoint_raises(self):
        with pytest.raises(NotMutuallyIntersecting):
            containment_angle_check(EUCLIDEAN, [0j, 10 + 0j, 5 + 0j], [1, 1, 1])


class TestTripleIntersection:
    def test_tangent_triple_empty(self):
        centers = [0j, 2 + 0j, 1 + 1j * math.sqrt(3)]
        assert triple_intersection_empty(EUCLIDEAN, centers, [1, 1, 1])

    def test_quarter_pi_triple_empty(self):
        spec = TripleSpec(EUCLIDEAN, (1, 1, 1), (PI / 4,) * 3)
        centers = list(place_triple(spec))
        assert triple_intersection_empty(EUCLIDEAN, centers, [1, 1, 1])

    def test_big_overlap_not_empty(self):
        centers = [0j, 0.5 + 0j, 0.25 + 0.25j]
        assert not triple_intersection_empty(EUCLIDEAN, centers, [1, 1, 1])

    def test_covers_sphere_raises(self):
        ns = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
              np.array([1.0, 0.0, 0.0])]
        with pytest.raises(CoversSphere):
            triple_intersection_empty(SPHERICAL, ns, [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_concentric_and_antipodal_caps(self, seed):
        """The caps (n, 0.5), (n, 0.5), (-n, 0.5) cover little of the sphere:
        the complements share the band 0.5 <= angle(x, n) <= pi - 0.5, which
        no centre and no corner witnesses.  Seed 0 is n = e_z, the others
        random rotations of it."""
        n = np.array([0.0, 0.0, 1.0])
        if seed:
            n = _unit(np.random.default_rng(seed).normal(size=3))
        rows = [([n, n, -n], True), ([n, -n, n], True), ([n, n, n], False)]
        for centers, empty in rows:
            assert triple_intersection_empty(SPHERICAL, centers, [0.5, 0.5, 0.5]) is empty
            assert oracles.triple_intersection_empty(SPHERICAL, centers, [0.5] * 3) is empty

    def test_spherical_small_caps(self):
        spec = TripleSpec(SPHERICAL, (0.3, 0.3, 0.3), (PI / 4,) * 3)
        centers = list(place_triple(spec))
        assert triple_intersection_empty(SPHERICAL, centers, [0.3, 0.3, 0.3])


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _tangent_rows(mode, rng, n):
    """Rows with a tangent pair, externally or internally, and a third
    circle through the tangency point (half of them) or near it.  The
    centres of an internally tangent pair are at least 0.1 apart: nearly
    concentric tangent circles meet in zero, one or two corners by
    rounding, in the reference as in the row code."""
    inner = rng.random(n) < 0.5
    r1 = np.where(inner, rng.uniform(0.1, 0.4, n), rng.uniform(0.1, 1.4, n))
    r0 = np.where(inner, r1 + rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.4, n))
    gap = np.where(inner, r0 - r1, r0 + r1)
    scale = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.8, 1.2, n))
    if mode == EUCLIDEAN:
        c0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        turn = np.exp(2j * PI * rng.random(n))
        touch = c0 + r0 * turn
        c2 = touch + rng.uniform(0.1, 2.0, n) * np.exp(2j * PI * rng.random(n))
        return (np.stack([c0, c0 + gap * turn, c2], axis=1),
                np.stack([r0, r1, np.abs(touch - c2) * scale], axis=1))
    c0 = _unit(rng.normal(size=(n, 3)))
    turn = _unit(np.cross(c0, rng.normal(size=(n, 3))))
    touch = np.cos(r0)[:, None] * c0 + np.sin(r0)[:, None] * turn
    c2 = _unit(rng.normal(size=(n, 3)))
    r2 = np.arccos(np.clip(np.einsum("ij,ij->i", c2, touch), -1.0, 1.0)) * scale
    return (np.stack([c0, np.cos(gap)[:, None] * c0 + np.sin(gap)[:, None] * turn, c2], axis=1),
            np.stack([r0, r1, r2], axis=1))


def _placed_rows(mode, rng, n):
    """Rows placed from random radii and angles that close up (as by
    ``place_by_lengths``), moved by a random rigid motion."""
    radii = rng.uniform(0.1, 2.0 if mode == EUCLIDEAN else PI - 0.1, (4 * n, 3))
    th = rng.uniform(1e-3, PI - 1e-3, (4 * n, 3))
    keep = np.flatnonzero(feasibility_margin(mode, radii, th) > 1e-9)[:n]
    assert len(keep) == n
    radii = radii[keep]
    l0, l1, l2 = edge_lengths(mode, radii, th[keep]).T
    if mode == EUCLIDEAN:
        x = (l2 * l2 + l1 * l1 - l0 * l0) / (2.0 * l2)
        z = np.stack([0.0 * x, l2, x + 1j * np.sqrt(np.maximum(l1 * l1 - x * x, 0.0))], axis=1)
        return z * np.exp(2j * PI * rng.random((n, 1))) + rng.normal(size=(n, 1)), radii
    cos_a = (np.cos(l0) - np.cos(l1) * np.cos(l2)) / (np.sin(l1) * np.sin(l2))
    a = np.arccos(np.clip(cos_a, -1.0, 1.0))
    pts = np.stack([np.broadcast_to([0.0, 0.0, 1.0], (n, 3)),
                    np.stack([np.sin(l2), 0.0 * l2, np.cos(l2)], axis=1),
                    np.stack([np.sin(l1) * np.cos(a), np.sin(l1) * np.sin(a), np.cos(l1)], axis=1)],
                   axis=1)
    turn = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    return np.einsum("nij,nkj->nki", turn, pts), radii


def _random_rows(mode, rng, n):
    """A quarter random disks, a quarter placed triples, half built on a
    tangent pair; each row's disks in random order."""
    if mode == EUCLIDEAN:
        rows = [(rng.uniform(-2, 2, (n // 4, 3)) + 1j * rng.uniform(-2, 2, (n // 4, 3)),
                 rng.uniform(0.1, 2.0, (n // 4, 3)))]
    else:
        rows = [(_unit(rng.normal(size=(n // 4, 3, 3))), rng.uniform(0.05, PI - 0.05, (n // 4, 3)))]
    rows += [_placed_rows(mode, rng, n // 4), _tangent_rows(mode, rng, n - 2 * (n // 4))]
    c, r = (np.concatenate(x) for x in zip(*rows))
    order = rng.permuted(np.tile(np.arange(3), (n, 1)), axis=1)
    return (np.take_along_axis(c, order if mode == EUCLIDEAN else order[..., None], 1),
            np.take_along_axis(r, order, 1))


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type is compared
        return type(exc)


def _records(check, mode, c, r):
    """The decisions (or exception type) and floats of ``check``'s records."""
    recs = _outcome(check, mode, c, r)
    if isinstance(recs, type):
        return recs, ()
    return ([(x.pair, x.third, x.contained, x.single_point, x.relation_holds,
              x.boundary_concurrent) for x in recs],
            [(x.lhs, x.rhs, x.slack) for x in recs if x.contained])


def _row_records(rel, i):
    """Row i of ``lens_relations`` in the form of ``_records``."""
    if not rel.intersecting[i]:
        return NotMutuallyIntersecting, ()
    ks = np.flatnonzero(rel.meets[i]).tolist()
    hit = [k for k in ks if rel.contained[i, k]]
    return ([(tuple(OPPOSITE[k].tolist()), k, bool(rel.contained[i, k]), bool(rel.single[i, k]),
              bool(rel.holds[i, k]) if rel.contained[i, k] else None,
              bool(rel.concurrent[i, k]) if rel.contained[i, k] and rel.single[i, k] else None)
             for k in ks],
            [(float(rel.lhs[i, k]), float(rel.rhs[i, k]), float(rel.lhs[i, k] - rel.rhs[i, k]))
             for k in hit])


def _close(a, b, tol):
    return len(a) == len(b) and all(abs(x - y) <= tol for p, q in zip(a, b) for x, y in zip(p, q))


def _within_rounding(mode, c, r, got, rng, tries=50, move=2e-15):
    """Whether the reference makes the decisions ``got`` on some copies of
    the row moved by about ``move`` relative, with the floats of ``got``
    inside the spread of those copies' floats, widened by its own width:
    then the two differ by rounding only."""
    floats, x = [], np.ravel(got[1])
    for _ in range(tries):
        wiggle = 1.0 + move * rng.normal(size=r.shape)
        if mode == EUCLIDEAN:
            moved = c * wiggle + move * np.abs(c) * rng.normal(size=3)
        else:
            moved = c + move * rng.normal(size=c.shape)
        want = _records(oracles.containment_angle_check, mode, moved, r * wiggle)
        if want[0] == got[0]:
            floats.append(np.ravel(want[1]))
            lo, hi = np.min(floats, axis=0), np.max(floats, axis=0)
            width = hi - lo + 1e-11
            if np.all((lo - width <= x) & (x <= hi + width)):
                return True
    return False


def _matches_reference(mode, c, r, got, tangent, rng) -> bool:
    """``got`` has the reference's decisions and floats, to 1e-11; on a row
    with a pair tangent to 1e-12, where arccos turns an error of 5e-15 in
    an inversive distance near 1 into 1e-7, floats to 1e-7 and decisions
    that the reference makes on the row moved by rounding."""
    want = _records(oracles.containment_angle_check, mode, c, r)
    if want[0] == got[0] and _close(want[1], got[1], 1e-7 if tangent else 1e-11):
        return True
    assert tangent and _within_rounding(mode, c, r, got, rng), (mode, c, r, want, got)
    return False


class TestRowRelations:
    """The row-wise relations against the per-triple scalar reference."""

    @pytest.mark.parametrize("mode, n", [(EUCLIDEAN, 30000), (SPHERICAL, 10000)])
    def test_same_decisions_as_reference(self, mode, n):
        """40,000 rows in all: every exception type and decision of the
        reference, and its floats, as ``_matches_reference`` says; at
        rounding only on rows with a tangent pair, and on few of them.
        The public one-row predicates on every 20th row, on 100 rows that
        the reference refuses and where the row code differs by rounding."""
        rng = np.random.default_rng(2024)
        c, r = _random_rows(mode, rng, n)
        unit = np.ones(n, dtype=bool)
        if mode == SPHERICAL:
            c[::97] *= 1.001  # not unit vectors: ValueError
            unit[::97] = False
        rel = lens_relations(mode, c, r)
        tangent = np.abs(np.abs(rel.inv) - 1.0).min(axis=1) <= 1e-12
        exact = np.array([not unit[i] or _matches_reference(mode, c[i], r[i], _row_records(rel, i),
                                                             tangent[i], rng)
                          for i in range(n)])
        assert (~exact).sum() < 0.05 * tangent.sum()
        want = [_outcome(oracles.triple_intersection_empty, mode, c[i], r[i]) for i in range(n)]
        answered = np.array([w in (True, False) for w in want])
        assert answered.all() if mode == EUCLIDEAN else not answered.all()
        got = triple_intersections_empty(mode, c[answered], r[answered])
        assert got.tolist() == [w for w in want if w in (True, False)]
        assert 0.2 < got.mean() < 0.8
        refused = np.zeros(n, dtype=bool)
        refused[np.flatnonzero(~answered)[:100]] = True
        for i in np.flatnonzero((np.arange(n) % 20 == 0) | refused | ~exact):
            assert _outcome(triple_intersection_empty, mode, c[i], r[i]) is want[i]
            got = _records(containment_angle_check, mode, c[i], r[i])
            if not unit[i]:
                assert got[0] is ValueError
            else:
                _matches_reference(mode, c[i], r[i], got, tangent[i], rng)

    def test_degenerate_rows_do_not_warn(self):
        """Coincident and concentric centres decide without numpy warnings
        (the suite turns RuntimeWarnings into errors)."""
        c = np.array([[0j, 0j, 1 + 0j], [0j, 0j, 0j]])
        r = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 0.5]])
        rel = lens_relations(EUCLIDEAN, c, r)
        assert not rel.meets[:, 2].any() and not rel.meets[1].any()
        assert triple_intersections_empty(EUCLIDEAN, c, r).tolist() == [False, False]
        n, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        s = np.array([[n, n, -n], [n, n, x]])
        assert not lens_relations(SPHERICAL, s, [[1.0, 1.0, 1.0]] * 2).meets[:, 2].any()
        assert triple_intersections_empty(SPHERICAL, s[1:], [[0.5, 0.5, 0.5]]).tolist() == [True]
