"""Collapse diagnostics for vertex subsets.

The functional -sum over link pairs of (pi - theta(e)) plus 2*pi times the
Euler characteristic of the subset's open star is the limiting total apex
curvature of a subset whose radii collapse to zero.  Admissible data keeps
it negative on every subset that avoids the marked face, so nonnegative
values name the combinatorial obstruction when a solve stalls.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from .errors import EmptySubset, FullSubset, LimitExceeded
from .options import SUSPECT_SIZE
from .triangulation import AngleAssignment, Triangulation

PI = math.pi
# connected subsets that rank_collapse_suspects scores at most: about 0.1 ms each
SUBSET_BUDGET = 10 ** 5


@dataclass(frozen=True)
class VertexSubsetGeometry:
    """Open star of a vertex subset: simplex counts, link pairs, and the
    compactly-supported Euler characteristic."""

    subset: FrozenSet[int]
    star_edges: Tuple[int, ...]
    star_faces: Tuple[int, ...]
    link_pairs: Tuple[Tuple[int, int], ...]  # (edge id, vertex in subset)
    euler_char: int
    components: Tuple[FrozenSet[int], ...]


def subset_geometry(t: Triangulation, subset: Iterable[int]) -> VertexSubsetGeometry:
    a = frozenset(int(v) for v in subset)
    if not a:
        raise EmptySubset("subset is empty")
    if len(a) >= t.vertex_count:
        raise FullSubset("subset must be proper")
    if any(v < 0 or v >= t.vertex_count for v in a):
        raise ValueError("vertex id out of range")

    # the open star is what the subset's vertex stars hold; a link pair is
    # a side of a face around v, of the ring vertices u and w, off the subset
    spokes, sides = t.star_edge_ids
    star_faces = tuple(sorted({f for v in a for f in t.vertex_faces[v]}))
    star_edges = tuple(sorted({e for v in a for e in spokes[v]}))
    link_pairs = sorted([(e, v) for v in a for u, w, e in zip(
        t.link_cycles[v], t.link_cycles[v][1:] + t.link_cycles[v][:1], sides[v])
        if u not in a and w not in a])
    components, left = [], set(a)
    while left:  # grown from the lowest vertex left, so in order of their minima
        comp, todo = set(), [min(left)]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp.add(v)
                todo += [w for w in t.neighbors(v) if w in left]
        components.append(frozenset(comp))
        left -= comp

    return VertexSubsetGeometry(a, star_edges, star_faces, tuple(link_pairs),
                                len(a) - len(star_edges) + len(star_faces), tuple(components))


@dataclass(frozen=True)
class DegenerationFunctional:
    """Degeneration functional of a vertex subset, with its Euler characteristic and link."""

    subset: FrozenSet[int]
    value: float
    euler_char: int
    link_pairs: Tuple[Tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "subset": sorted(self.subset),
            "value": self.value,
            "euler_char": self.euler_char,
            "link_pairs": [list(p) for p in self.link_pairs],
        }


def degeneration_functional(
    t: Triangulation, theta: AngleAssignment, subset: Iterable[int]
) -> DegenerationFunctional:
    a = frozenset(subset)
    if not a:
        raise EmptySubset("subset is empty")
    geo = subset_geometry(t, a)
    total = sum(PI - theta[eid] for eid, _ in geo.link_pairs)
    value = -total + 2.0 * PI * geo.euler_char
    return DegenerationFunctional(a, value, geo.euler_char, geo.link_pairs)


def connected_subsets(
    t: Triangulation, max_size: int, avoid: Iterable[int] = ()
) -> List[FrozenSet[int]]:
    """All connected vertex subsets of size <= max_size avoiding ``avoid``,
    ordered by (size, vertices)."""
    return sorted(_connected_subsets(t, max_size, avoid), key=lambda s: (len(s), sorted(s)))


def _connected_subsets(t: Triangulation, max_size: int, avoid: Iterable[int]
                       ) -> Iterator[FrozenSet[int]]:
    """Standard rooted enumeration: each subset is generated once from its
    minimum vertex by growing only with larger-or-excluded bookkeeping."""
    if max_size < 1:
        raise ValueError(f"max_size = {max_size} is out of range")
    banned = set(avoid)
    allowed = [v for v in range(t.vertex_count) if v not in banned]
    # subsets must stay proper for the star/link geometry to make sense
    max_size = min(max_size, t.vertex_count - 1)

    def grow(current: Set[int], frontier: List[int], excluded: Set[int]):
        for idx, v in enumerate(frontier):
            new = current | {v}
            yield frozenset(new)
            if len(new) < max_size:
                new_excluded = excluded | set(frontier[: idx + 1])
                ext = [
                    w
                    for w in sorted(set().union(*(t.neighbors(u) for u in new)))
                    if w not in new and w not in banned and w not in new_excluded
                    and w > root
                ]
                yield from grow(new, ext, new_excluded)

    for root in allowed:
        yield from grow(set(), [root], set())


def rank_collapse_suspects(
    t: Triangulation,
    theta: AngleAssignment,
    max_size: int = SUSPECT_SIZE,
    avoid: Iterable[int] = (),
    top: int = 10,
) -> List[DegenerationFunctional]:
    """Connected subsets ranked by functional value, most suspect first.
    Raises LimitExceeded past SUBSET_BUDGET subsets, before ranking any."""
    subsets = list(islice(_connected_subsets(t, max_size, avoid), SUBSET_BUDGET + 1))
    if len(subsets) > SUBSET_BUDGET:
        raise LimitExceeded(f"more than {SUBSET_BUDGET} connected subsets up to size {max_size}")
    return heapq.nsmallest(top, (degeneration_functional(t, theta, s) for s in subsets),
                           key=_most_suspect_first)


def sublevel_suspects(
    t: Triangulation,
    theta: AngleAssignment,
    radii: Sequence[float],
    max_size: int,
    avoid: Iterable[int] = (),
    top: int = 10,
) -> List[DegenerationFunctional]:
    """The connected sublevel sets of a failing solve's radii, where its
    collapsing circles are, ranked like ``rank_collapse_suspects``.

    They form the merge tree: vertices outside ``avoid`` join in order of
    increasing radius, each merging the components of its joined
    neighbours; the component of each joining vertex is a candidate when it
    has at most ``max_size`` vertices.  That is at most n - 1 subsets, where
    ``connected_subsets`` lists millions at n of a few hundred.
    """
    banned, comp, members, found = set(avoid), {}, {}, []
    max_size = min(max_size, t.vertex_count - 1)
    for v in sorted(range(t.vertex_count), key=lambda v: radii[v]):
        if v in banned:
            continue
        comp[v], members[v] = v, [v]
        for w in t.neighbors(v):
            if w in comp and comp[w] != comp[v]:  # relabel the smaller side
                big, small = sorted((comp[v], comp[w]), key=lambda c: -len(members[c]))
                for x in members[small]:
                    comp[x] = big
                members[big] += members.pop(small)
        if len(members[comp[v]]) <= max_size:
            found.append(degeneration_functional(t, theta, members[comp[v]]))
    return heapq.nsmallest(top, found, key=_most_suspect_first)


def _most_suspect_first(d: DegenerationFunctional):
    return (-d.value, len(d.subset), sorted(d.subset))
