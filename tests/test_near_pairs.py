"""The near-pair kernel and its users in ``verify`` against the all-pairs
references in ``oracles``."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepattern import (
    AngleAssignment,
    build_triangulation,
    contact_graph,
    pick_marked_face,
    shapes,
    solve_euclidean,
    solve_spherical,
    verify_pattern,
)
from circlepattern import verify as verifier
from circlepattern.configurations import CirclePattern, near_pairs

import oracles
from random_triangulations import loop_subdivide

MODES = st.sampled_from(["euclidean", "spherical"])


def _family(mode, seed, n):
    """n disks with radii log-uniform over [1e-6, 1]: disk k is free for
    k = 0 mod 4, else placed on disk k - 1, externally tangent (1),
    internally tangent (2) or nested strictly inside it (3).  Cap centres
    are off the unit sphere by up to 1e-9."""
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-6.0, 0.0, n)
    if mode == "euclidean":
        c = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    else:
        c = rng.normal(size=(n, 3))
        c /= np.linalg.norm(c, axis=1)[:, None]
    for k in range(1, n):
        gap = {0: None, 1: r[k - 1] + r[k], 2: abs(r[k - 1] - r[k]),
               3: 0.5 * abs(r[k - 1] - r[k])}[k % 4]
        if gap is None:
            continue
        if mode == "euclidean":
            c[k] = c[k - 1] + gap * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        else:
            b = rng.normal(size=3)
            b -= (b @ c[k - 1]) * c[k - 1]
            c[k] = math.cos(gap) * c[k - 1] + math.sin(gap) * b / np.linalg.norm(b)
    if mode == "spherical":  # off the unit sphere by what a pattern may be
        c *= 1.0 + rng.uniform(-1e-9, 1e-9, n)[:, None]
    t = shapes.bipyramid(n - 2)
    return CirclePattern(t, AngleAssignment.constant(t, 0.0), mode, c, r)


def _points(p, seed, count):
    """Points on the circles and 1e-9 of the radius inside and outside them."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, len(p.radii), count)
    grow = 1.0 + rng.choice([-1e-9, 0.0, 1e-9], count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    if p.mode == "euclidean":
        return p.centers[k] + grow * p.radii[k] * np.exp(1j * phi)
    from circlepattern.triples import tangent_frames

    e1, e2 = tangent_frames(p.centers[k])
    a = (grow * p.radii[k])[:, None]
    return (np.cos(a) * p.centers[k]
            + np.sin(a) * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2))


def _reach(p):
    return p.radii if p.mode == "euclidean" else 2.0 * np.sin(0.5 * p.radii)


class TestKernel:
    @settings(max_examples=100)
    @given(mode=MODES, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 40))
    def test_pairs_hold_every_meeting_pair(self, mode, seed, n):
        p = _family(mode, seed, n)
        u, v = near_pairs(mode, p.centers, _reach(p))
        assert (u < v).all() and (np.diff(u * n + v) > 0).all()
        assert set(zip(u.tolist(), v.tolist())) >= oracles.meeting_pairs(mode, p.centers,
                                                                         p.radii)

    @settings(max_examples=100)
    @given(mode=MODES, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 40))
    def test_point_query_holds_every_member(self, mode, seed, n):
        p = _family(mode, seed, n)
        pts = _points(p, seed, 3 * n)
        k, u = near_pairs(mode, p.centers, _reach(p), pts)
        assert (np.diff(k * n + u) > 0).all()
        want = oracles.meeting_pairs(mode, p.centers, p.radii, pts)
        assert want and set(zip(k.tolist(), u.tolist())) >= want


class TestUsers:
    """Each neighbour search of ``verify`` gives what its all-pairs
    predecessor gave."""

    @settings(max_examples=60)
    @given(mode=MODES, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 40))
    def test_same_as_all_pairs(self, mode, seed, n):
        p = _family(mode, seed, n)
        edges, _, _, _, nested = contact_graph(p)
        assert (edges, nested) == oracles.contact_graph(p)
        near = verifier._near_disks(p, -verifier.COVER_SLACK)
        for v in range(n):
            assert near[v].tolist() == oracles.near_disks(p, v, -verifier.COVER_SLACK).tolist()
        pts = _points(p, seed, 3 * n)
        held = verifier._holding_pairs(p, pts, -verifier.COVER_SLACK)
        assert np.array_equal(held, np.nonzero(p.point_in_disks(pts, -verifier.COVER_SLACK)))
        if mode == "euclidean":  # the face witnesses' slack, relative to |p| + |c| + r
            w = verifier.WITNESS_ROUNDING
            dense = p.point_in_disks(pts, -w * (np.abs(pts)[:, None] + np.abs(p.centers) + p.radii))
            assert np.array_equal(verifier._holding_pairs(p, pts, 0.0, w), np.nonzero(dense))


def test_no_pairwise_matrix_at_n642(monkeypatch):
    """The n=642 icosahedral subdivision solves (sphere) and verifies (both
    modes) without the dense inversive matrix or membership matrix."""
    def dense(*args, **kwargs):
        raise AssertionError("n x n work")

    monkeypatch.setattr(CirclePattern, "inversive_matrix", dense)
    monkeypatch.setattr(CirclePattern, "point_in_disks", dense)
    t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 3))
    zero = AngleAssignment.constant(t, 0.0)
    cfg, _ = solve_euclidean(t, zero, pick_marked_face(t, zero))
    assert verify_pattern(CirclePattern.from_euclidean(t, zero, cfg)).passed
    theta = AngleAssignment.constant(t, 1.2)
    cfg, _ = solve_spherical(t, theta)
    assert verify_pattern(CirclePattern.from_spherical(t, theta, cfg)).passed
