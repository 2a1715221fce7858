import dataclasses
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepattern import (
    build_triangulation,
    dual_of_trivalent,
    enumerate_simple_cycles,
    enumerate_two_arcs,
    polyhedron_from_triangulation,
    subset_geometry,
)
from circlepattern import cycles, shapes, triangulation
from circlepattern.degeneration import connected_subsets
from circlepattern.errors import (
    DegenerateFace,
    EmptySubset,
    FullSubset,
    InconsistentOrientation,
    LimitExceeded,
    NonManifold,
    NotASphere,
    NotTrivalent,
)

import oracles
from random_triangulations import (PROJECTIVE_PLANE, flip_edges, loop_subdivide, stack120_faces,
                                   stacked_faces, torus_faces)


class TestBuild:
    def test_tetrahedron_counts(self, tetra):
        assert (tetra.vertex_count, tetra.edge_count, tetra.face_count) == (4, 6, 4)
        assert tetra.vertex_count - tetra.edge_count + tetra.face_count == 2

    def test_octahedron_counts(self, octa):
        assert (octa.vertex_count, octa.edge_count, octa.face_count) == (6, 12, 8)

    def test_euler_and_simplicial_identity_on_shipped(self, shipped_small):
        for t in shipped_small.values():
            assert t.vertex_count - t.edge_count + t.face_count == 2
            assert 3 * t.face_count == 2 * t.edge_count

    def test_torus_rejected(self):
        with pytest.raises(NotASphere):
            build_triangulation(torus_faces())

    def test_edge_in_three_faces_rejected(self):
        with pytest.raises(NonManifold):
            build_triangulation([[0, 1, 2], [0, 1, 3], [0, 1, 4]])

    def test_degenerate_face_rejected(self):
        with pytest.raises(DegenerateFace):
            build_triangulation([[0, 1, 1], [0, 1, 2]])

    def test_duplicate_face_rejected(self):
        # two copies of one triangle pass the edge, orientation and Euler
        # checks as a 3-vertex "sphere"; either winding is a duplicate
        for faces in ([[0, 1, 2], [0, 1, 2]], [[0, 1, 2], [2, 1, 0]]):
            with pytest.raises(DegenerateFace):
                build_triangulation(faces)

    def test_face_lookup_by_vertex_set(self, octa):
        for fid, (a, b, c) in enumerate(octa.faces):
            assert octa.face_id_of((c, a, b)) == fid
            assert octa.face_id_of([b, a, c]) == fid
        assert octa.face_id_of((0, 1, 2, 3)) is None
        assert not octa.is_face((0, 1))

    def test_orientation_repair_records_flips(self):
        faces = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
        t0 = build_triangulation(faces)
        assert not t0.orientation_flipped
        flipped = [faces[0][::-1]] + faces[1:]
        t1 = build_triangulation(flipped)
        assert t1.orientation_flipped
        # both orientations induce each edge once per direction
        for t in (t0, t1):
            directed = set()
            for (a, b, c) in t.faces:
                for e in ((a, b), (b, c), (c, a)):
                    assert e not in directed
                    directed.add(e)

    @pytest.mark.parametrize("faces", [shapes.octahedron().faces, shapes.icosahedron().faces,
                                       loop_subdivide(shapes.icosahedron().faces, 2)],
                             ids=["octahedron", "icosahedron", "ico162"])
    def test_edge_ids_match_edge_index(self, faces):
        """``edge_ids`` of every ordered vertex pair, u == v included, is
        ``edge_index`` or -1, on each call with the edge keys kept."""
        t = build_triangulation(faces)
        u, v = np.divmod(np.arange(t.vertex_count ** 2), t.vertex_count)
        want = [t.edge_index.get(triangulation.canonical_edge(a, b), -1)
                for a, b in zip(u.tolist(), v.tolist())]
        assert t.edge_ids(u, v).tolist() == want
        assert t.edge_ids(v, u).tolist() == want and t.edge_keys is t.edge_keys

    def test_link_cycles_cover_neighbors(self, octa):
        for v in range(octa.vertex_count):
            ring = octa.neighbors(v)
            assert len(ring) == octa.degree(v)
            assert set(ring) == {u for u in range(6) if octa.has_edge(u, v)}


class TestCycles:
    def test_octahedron_three_cycles(self, octa):
        cycles = enumerate_simple_cycles(octa, 3)
        assert len(cycles) == 8
        assert all(c.is_face_boundary for c in cycles)
        assert not any(c.separates_vertices for c in cycles)

    def test_octahedron_four_cycles(self, octa):
        cycles = [c for c in enumerate_simple_cycles(octa, 4) if len(c) == 4]
        separating = [c for c in cycles if c.separates_vertices]
        assert len(separating) == 3
        assert all(c.is_prismatic for c in separating)
        assert sum(c.is_two_triangle_boundary for c in cycles) == 12

    def test_tetrahedron_four_cycles(self, tetra):
        threes = [c for c in enumerate_simple_cycles(tetra, 4) if len(c) == 3]
        fours = [c for c in enumerate_simple_cycles(tetra, 4) if len(c) == 4]
        assert len(threes) == 4 and all(c.is_face_boundary for c in threes)
        assert len(fours) == 3
        assert all(c.is_two_triangle_boundary for c in fours)
        assert not any(c.separates_vertices for c in fours)

    def test_cap_raises(self, octa):
        with pytest.raises(LimitExceeded):
            enumerate_simple_cycles(octa, 6, cap=3)

    def test_brute_force_agreement_on_shipped(self, shipped_small):
        """Library frontier enumeration matches subset brute force, flag by flag."""
        for name, t in shipped_small.items():
            lib = enumerate_simple_cycles(t, 6)
            lib_map = {oracles.canonical_cycle(c.vertices): c for c in lib}
            brute = oracles.brute_cycles([tuple(f) for f in t.faces], t.vertex_count, 6)
            assert set(lib_map) == {oracles.canonical_cycle(c) for c in brute}, name
            for cyc in brute:
                c = lib_map[oracles.canonical_cycle(cyc)]
                faces = [tuple(f) for f in t.faces]
                assert c.is_face_boundary == oracles.brute_is_face(faces, cyc), (name, cyc)
                assert c.separates_vertices == oracles.brute_separates(faces, cyc), (name, cyc)
                assert c.is_prismatic == oracles.brute_prismatic(faces, cyc), (name, cyc)
                if len(cyc) == 4:
                    assert c.is_two_triangle_boundary == oracles.brute_two_triangle(
                        faces, cyc
                    ), (name, cyc)

    def test_separation_matches_flood_to_length_8(self):
        """Separation by the Catalan(k - 2) triangulations of the k-gon
        equals the flood's on every cycle up to length 8, on the shipped
        shapes and on stacked draws reshaped by flips; some 7- and 8-cycles
        bound a face-triangulated disk, so the heptagon's and octagon's
        triangulations are exercised."""
        assert [len(cycles._polygon_triangulations(0, k - 1)) for k in range(3, 9)] \
            == [1, 2, 5, 14, 42, 132]
        rng = np.random.default_rng(8)
        draws = [build_triangulation(flip_edges(rng, stacked_faces(rng, n), 2 * n))
                 for n in (9, 12, 15, 20)]
        disks = {7: 0, 8: 0}
        for t in [*shapes.shipped_triangulations().values(), *draws]:
            for cols in cycles.cycle_arrays(t, 8):
                verts, eids = cols["vertices"].tolist(), cols["edges"].tolist()
                want = [oracles.flood_separates(t, v, e) for v, e in zip(verts, eids)]
                assert cols["separates_vertices"].tolist() == want
                if cols["vertices"].shape[1] in disks:
                    disks[cols["vertices"].shape[1]] += want.count(False)
        assert min(disks.values()) > 0, disks

    @pytest.mark.parametrize("faces", [
        loop_subdivide(shapes.icosahedron().faces, 3),
        stacked_faces(np.random.default_rng(300), 300),
    ], ids=["ico642", "stack300"])
    def test_frontier_matches_dfs_reference(self, faces):
        """The frontier lists the DFS reference's cycles in its order at
        max_len 4 and 6 (stack300 at 6 halves blocks past the row budget),
        and the circuits and arcs equal the reference's; about 4 s."""
        t = build_triangulation(faces)
        for max_len in (4, 6):
            rows = cycles._enumerate_cycles(t, max_len, 10 ** 6)
            assert [tuple(r) for k in rows for r in k.tolist()] == oracles.dfs_cycles(t, max_len)
        assert enumerate_simple_cycles(t, 4) == oracles.reference_cycles(t, 4)
        assert enumerate_two_arcs(t) == oracles.reference_two_arcs(t)


class TestArcs:
    def test_tetrahedron_all_adjacent(self, tetra):
        arcs = enumerate_two_arcs(tetra)
        assert len(arcs) == 12
        assert not any(a.is_homologically_non_adjacent for a in arcs)

    def test_octahedron_antipodal_arcs(self, octa):
        arcs = enumerate_two_arcs(octa)
        nonadj = [a for a in arcs if a.is_homologically_non_adjacent]
        assert len(nonadj) == 12
        for a in nonadj:
            u, v, w = a.vertices
            assert not octa.has_edge(u, w)

    def test_hexagonal_bipyramid_apex_arcs(self):
        t = shapes.bipyramid(6)
        arcs = enumerate_two_arcs(t)
        apex = [a for a in arcs if a.vertices[0] == 0 and a.vertices[2] == 1]
        assert len(apex) == 6
        assert all(a.is_homologically_non_adjacent for a in apex)

    def test_brute_force_agreement(self, shipped_small):
        for name, t in shipped_small.items():
            got = sorted(
                a.vertices for a in enumerate_two_arcs(t) if a.is_homologically_non_adjacent
            )
            want = oracles.brute_non_adjacent_arcs(
                [tuple(f) for f in t.faces], t.vertex_count
            )
            assert got == want, name


class TestSubsetGeometry:
    def test_octahedron_single_vertex(self, octa):
        g = subset_geometry(octa, {0})
        assert len(g.link_pairs) == 4
        assert g.euler_char == 1

    def test_octahedron_antipodal_pair(self, octa):
        g = subset_geometry(octa, {0, 5})
        assert g.euler_char == 2
        assert len(g.components) == 2

    def test_tetrahedron_single_vertex(self, tetra):
        g = subset_geometry(tetra, {1})
        assert len(g.link_pairs) == 3
        assert g.euler_char == 1

    def test_errors(self, octa):
        with pytest.raises(EmptySubset):
            subset_geometry(octa, set())
        with pytest.raises(FullSubset):
            subset_geometry(octa, set(range(6)))

    def test_link_pair_clauses(self, shipped_small):
        for t in shipped_small.values():
            g = subset_geometry(t, {0, 1})
            a = {0, 1}
            for eid, u in g.link_pairs:
                x, y = t.edges[eid]
                assert x not in a and y not in a
                assert u in a
                assert t.is_face((x, y, u))

    def test_chi_matches_homology_oracle(self, shipped_small):
        import itertools

        for name, t in shipped_small.items():
            faces = [tuple(f) for f in t.faces]
            for size in (1, 2, 3):
                for subset in itertools.combinations(range(t.vertex_count), size):
                    if len(subset) >= t.vertex_count:
                        continue
                    g = subset_geometry(t, subset)
                    want = oracles.homology_chi_of_open_star(
                        faces, t.vertex_count, subset
                    )
                    assert g.euler_char == want, (name, subset)


class TestDual:
    def test_cube_dual_is_octahedron(self):
        t, to_dual, to_primal = dual_of_trivalent(shapes.cube_faces())
        assert (t.vertex_count, t.edge_count, t.face_count) == (6, 12, 8)
        assert len(to_dual) == 12
        assert len(to_primal) == 12

    def test_tetrahedron_self_dual(self):
        t, _, _ = dual_of_trivalent(shapes.tetrahedron_faces())
        assert (t.vertex_count, t.face_count) == (4, 4)

    def test_prism_dual_is_bipyramid(self):
        t, _, _ = dual_of_trivalent(shapes.triangular_prism_faces())
        assert (t.vertex_count, t.face_count) == (5, 6)

    def test_not_trivalent_rejected(self):
        # square pyramid: apex has degree 4
        faces = [(0, 1, 2, 3), (0, 4, 1), (1, 4, 2), (2, 4, 3), (3, 4, 0)]
        with pytest.raises(NotTrivalent):
            dual_of_trivalent(faces)

    @pytest.mark.parametrize("cycle", [(0, 1), (0, 1, 0, 3)], ids=["two-vertex", "repeated-vertex"])
    def test_bad_face_cycle_rejected(self, cycle):
        with pytest.raises(DegenerateFace):
            dual_of_trivalent(shapes.cube_faces()[:-1] + [cycle])

    def test_round_trip_identity_on_edges(self, shipped_small):
        """Dualizing the derived polyhedron recovers the triangulation."""
        for name, t in shipped_small.items():
            poly = polyhedron_from_triangulation(t)
            back, to_dual, _ = dual_of_trivalent(poly)
            assert back.vertex_count == t.vertex_count, name
            assert set(back.edges) == set(t.edges), name
            # the polyhedron's edges are the triangulation's face-adjacencies
            assert len(to_dual) == t.edge_count, name


# ---------------------------------------------------------------------------
# the half-edge table against the reference loops
# ---------------------------------------------------------------------------

# property tests are derandomized, without an example database (see conftest)
seeds = st.integers(0, 2 ** 32 - 1)
OCTA = [list(f) for f in shapes.octahedron().faces]


VIEWS = ("edges", "edge_index", "edge_faces", "vertex_faces", "link_cycles", "face_index")


def _assert_matches_reference(t, ref):
    """Every value field and view of ``t`` equals the loops' table of that
    name, and its index arrays hold the same tables as integer arrays."""
    for name, want in ref.items():
        assert getattr(t, name) == want, name
    offsets, around, ring = t.star
    arrays = {"face_array": (t.face_array, ref["faces"]),
              "edge_array": (t.edge_array, ref["edges"]),
              "edge_face_array": (t.edge_face_array, ref["edge_faces"]),
              "star offsets": (offsets, np.cumsum([0] + [len(r) for r in ref["link_cycles"]])),
              "star faces": (around, list(chain.from_iterable(ref["vertex_faces"]))),
              "star ring": (ring, list(chain.from_iterable(ref["link_cycles"])))}
    for name, (got, want) in arrays.items():
        assert got.dtype == np.intp and np.array_equal(got, want), name


def _scramble(rng, faces):
    """Reverse a random subset of the faces, shuffle them and permute the
    vertex labels."""
    faces = np.asarray(faces)
    label = rng.permutation(1 + faces.max())
    rev = rng.random(len(faces)) < rng.random()
    faces = faces[rng.permutation(len(faces))]
    return [label[f[::-1] if r else f].tolist() for f, r in zip(faces, rev)]


def _draw(seed, n, flips):
    rng = np.random.default_rng(seed)
    return rng, _scramble(rng, flip_edges(rng, stacked_faces(rng, n), flips))


@settings(max_examples=40)
@given(seed=seeds, n=st.integers(4, 40), flips=st.integers(0, 80),
       container=st.sampled_from(["lists", "tuples", "rows", "array"]))
def test_build_matches_reference(seed, n, flips, container):
    """Every field, view and index array matches the loops' tables on
    scrambled draws, given as lists, tuples, integer array rows or one
    integer array; and the dual
    of the polyhedron of the result has its faces, in order, and maps
    each edge to its own."""
    _, faces = _draw(seed, n, flips)
    given_faces = {"lists": faces, "tuples": tuple(map(tuple, faces)),
                   "rows": list(np.array(faces)), "array": np.array(faces)}[container]
    t = build_triangulation(given_faces)
    _assert_matches_reference(t, oracles.reference_build(given_faces))
    back, to_dual, to_primal = dual_of_trivalent(polyhedron_from_triangulation(t))
    assert [sorted(f) for f in back.faces] == [sorted(f) for f in t.faces]
    assert back.edges == t.edges and len(to_primal) == t.edge_count
    for (f, g), eid in to_dual.items():  # faces f, g of t share the edge eid
        assert set(back.edges[eid]) == set(t.faces[f]) & set(t.faces[g])


@pytest.mark.parametrize("name", sorted(shapes.shipped_triangulations()))
def test_shipped_shapes_match_reference(name):
    """The shipped shapes, whose faces are already oriented, hold the
    loops' tables."""
    t = shapes.shipped_triangulations()[name]
    ref = oracles.reference_build(t.faces)
    assert not ref.pop("orientation_flipped")
    _assert_matches_reference(t, ref)


def test_views_are_built_on_first_use():
    """A Triangulation stores its value and index arrays; each tuple or
    dict view appears when it is first read, and only the views it reads."""
    t = build_triangulation(stack120_faces())
    assert [f.name for f in dataclasses.fields(t)] == [
        "vertex_count", "faces", "orientation_flipped", "face_array", "edge_array",
        "edge_face_array", "star", "_circuits"]
    assert not set(VIEWS) & set(vars(t))
    assert t.face_id_of(t.faces[7]) == 7 and t.neighbors(3) == t.link_cycles[3]
    assert set(VIEWS) & set(vars(t)) == {"face_index", "link_cycles"}
    assert t.has_edge(*t.edges[5])
    assert set(VIEWS) - set(vars(t)) == {"edge_faces", "vertex_faces"}


def _invalid(family, rng, faces):
    """An input of ``family`` made from a valid face list, and its vertex_count."""
    n = 1 + max(map(max, faces))
    f, at = faces[rng.integers(len(faces))], rng.integers(len(faces))
    if family == "torus":
        return _scramble(rng, torus_faces()), None
    if family == "projective-plane":
        return _scramble(rng, PROJECTIVE_PLANE), None
    if family == "edge-in-three-faces":
        return faces + [f[:2] + [n]], None
    if family == "edge-in-four-faces":  # a copy glued on along edge f[0] f[1]
        glue = {v: v + n for v in range(n)}
        glue[f[0]], glue[f[1]] = f[0], f[1]
        return faces + [[glue[v] for v in g] for g in faces], None
    if family == "glued-octahedra":  # V - E + F = 2, but each pole's link is two cycles
        return _scramble(rng, OCTA + [[{0: 0, 5: 5}.get(v, v + 5) for v in g] for g in OCTA]), None
    if family == "disjoint-octahedra":
        return _scramble(rng, OCTA + [[v + 6 for v in g] for g in OCTA]), None
    if family == "repeated-face":
        return _scramble(rng, faces + [f]), None
    if family == "degenerate-face":
        return faces[:at] + [[f[0], f[1], f[0]]] + faces[at + 1:], None
    if family == "negative-id":
        return faces[:at] + [[f[0], -1 - f[1], f[2]]] + faces[at + 1:], None
    assert family == "vertex-count-too-small"
    return faces, int(rng.integers(0, n))


INVALID = {"torus": NotASphere, "projective-plane": InconsistentOrientation,
           "edge-in-three-faces": NonManifold, "edge-in-four-faces": NonManifold,
           "glued-octahedra": NonManifold,
           "disjoint-octahedra": NotASphere, "repeated-face": DegenerateFace,
           "degenerate-face": DegenerateFace, "negative-id": DegenerateFace,
           "vertex-count-too-small": DegenerateFace}


@pytest.mark.parametrize("family", sorted(INVALID))
@settings(max_examples=10)
@given(seed=seeds, n=st.integers(4, 30))
def test_invalid_input_raises_reference_class(family, seed, n):
    rng, faces = _draw(seed, n, n)
    faces, vertex_count = _invalid(family, rng, faces)
    with pytest.raises(INVALID[family]) as want:
        oracles.reference_build(faces, vertex_count)
    with pytest.raises(INVALID[family]) as got:
        build_triangulation(faces, vertex_count)
    assert type(got.value) is type(want.value)


@pytest.mark.parametrize("faces", [OCTA, shapes.icosahedron().faces, stack120_faces()],
                         ids=["octahedron", "icosahedron", "stack120"])
def test_subset_geometry_matches_reference_scan(faces):
    """On every connected subset of up to 4 vertices: stack120 has 37723
    of them, about 9 s on a 2-core x86-64 VM."""
    t = build_triangulation(faces)
    for subset in connected_subsets(t, 4):
        assert subset_geometry(t, subset) == oracles.reference_subset_geometry(t, subset)
