"""Collapse diagnostics for vertex subsets.

The functional -sum over link pairs of (pi - theta(e)) plus 2*pi times the
Euler characteristic of the subset's open star is the limiting total apex
curvature of a subset whose radii collapse to zero.  Admissible data keeps
it negative on every subset that avoids the marked face, so nonnegative
values name the combinatorial obstruction when a solve stalls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from .conditions import AngleAssignment
from .errors import EmptySubset
from .triangulation import Triangulation, subset_geometry

PI = math.pi


@dataclass(frozen=True)
class DegenerationFunctional:
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
    """All connected vertex subsets of size <= max_size avoiding ``avoid``.

    Standard rooted enumeration: each subset is generated once from its
    minimum vertex by growing only with larger-or-excluded bookkeeping.
    """
    banned = set(avoid)
    allowed = [v for v in range(t.vertex_count) if v not in banned]
    # subsets must stay proper for the star/link geometry to make sense
    max_size = min(max_size, t.vertex_count - 1)
    out: List[FrozenSet[int]] = []

    def grow(current: Set[int], frontier: List[int], excluded: Set[int]):
        for idx, v in enumerate(frontier):
            new = current | {v}
            out.append(frozenset(new))
            if len(new) < max_size:
                new_excluded = excluded | set(frontier[: idx + 1])
                ext = [
                    w
                    for w in sorted(set().union(*(t.neighbors(u) for u in new)))
                    if w not in new and w not in banned and w not in new_excluded
                    and w > root
                ]
                grow(new, ext, new_excluded)

    for root in allowed:
        grow(set(), [root], set())
    # grow() roots each subset at its minimum vertex, so no duplicates
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def rank_collapse_suspects(
    t: Triangulation,
    theta: AngleAssignment,
    max_size: int,
    avoid: Iterable[int] = (),
    top: int = 10,
) -> List[DegenerationFunctional]:
    """Connected subsets ranked by functional value, most suspect first."""
    if max_size < 1:
        raise ValueError(f"max_size = {max_size} is out of range")
    vals = [
        degeneration_functional(t, theta, s)
        for s in connected_subsets(t, max_size, avoid)
    ]
    vals.sort(key=_most_suspect_first)
    return vals[:top]


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
    found.sort(key=_most_suspect_first)
    return found[:top]


def _most_suspect_first(d: DegenerationFunctional):
    return (-d.value, len(d.subset), sorted(d.subset))
