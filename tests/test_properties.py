"""Property tests: cycle flags and class flags agree with the brute-force
oracles on random stacked triangulations reshaped by edge flips, and the
verifier's component labeller agrees with union-find on random grids."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepattern import AngleAssignment, build_triangulation, classify, enumerate_simple_cycles
from circlepattern.verify import _components

import oracles
from random_triangulations import flip_edges, stacked_faces

PI = math.pi

# derandomized, without an example database, so every run checks the same
# instances; about 0.3 s of oracle work per triangulation at n = 30
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=20)

seeds = st.integers(0, 2 ** 32 - 1)


def random_triangulation(seed, n, flips):
    rng = np.random.default_rng(seed)
    return build_triangulation(flip_edges(rng, stacked_faces(rng, n), flips))


triangulations = st.builds(random_triangulation, seeds, st.integers(5, 30),
                           st.integers(0, 60))


@PROPERTY
@given(t=triangulations)
def test_cycle_flags_match_oracles(t):
    faces = [tuple(f) for f in t.faces]
    for c in enumerate_simple_cycles(t, 5):
        assert c.separates_vertices == oracles.brute_separates(faces, c.vertices), c
        assert c.is_prismatic == oracles.brute_prismatic(faces, c.vertices), c
        assert c.is_face_boundary == oracles.brute_is_face(faces, c.vertices), c


@PROPERTY
@given(t=triangulations, seed=seeds,
       band=st.sampled_from([(0.0, PI), (0.0, PI / 2), (PI / 4, PI / 2.5)]))
def test_classify_flags_match_oracle(t, seed, band):
    vals = np.nextafter(np.random.default_rng(seed).uniform(*band, t.edge_count), 0)
    got = classify(t, AngleAssignment(t, tuple(vals))).class_flags
    want = oracles.brute_condition_flags(
        [tuple(f) for f in t.faces], t.vertex_count,
        {e: vals[i] for i, e in enumerate(t.edges)},
    )
    assert got == want


@PROPERTY
@given(seed=seeds, rows=st.integers(1, 40), cols=st.integers(1, 40),
       density=st.floats(0.1, 0.9))
def test_grid_labels_match_union_find(seed, rows, cols, density):
    free = np.random.default_rng(seed).random((rows, cols)) < density
    idx = np.arange(free.size).reshape(free.shape)
    right = free[:, :-1] & free[:, 1:]
    down = free[:-1, :] & free[1:, :]
    a = np.concatenate([idx[:, :-1][right], idx[:-1, :][down]])
    b = np.concatenate([idx[:, 1:][right], idx[1:, :][down]])
    labels = _components(free.size, a, b).tolist()
    dsu = oracles._DSU(free.size)
    for i, j in zip(a.tolist(), b.tolist()):
        dsu.union(i, j)
    roots = [dsu.find(i) for i in range(free.size)]
    # the same partition, each part labelled by its smallest cell
    assert len(set(zip(labels, roots))) == len(set(labels)) == len(set(roots))
    assert all(labels[i] <= i and labels[labels[i]] == labels[i] for i in range(free.size))
