"""Seeded instance generators and the workload definitions.

Everything here is the benchmark's own code: no call into ``circlepattern``
happens while instances are generated and written, so ``setup_s`` measures
only the benchmark.  Each instance carries the CLI chain it runs and the
outcome every command is expected to have.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PI = math.pi

Face = Tuple[int, int, int]

# The icosahedron, wound outward; vertex order as in ``shapes.icosahedron``.
ICOSAHEDRON: Tuple[Face, ...] = (
    (0, 2, 1), (0, 1, 3), (0, 4, 2), (0, 3, 6), (0, 6, 4),
    (1, 2, 5), (1, 7, 3), (1, 5, 7), (2, 4, 8), (2, 8, 5),
    (3, 9, 6), (3, 7, 9), (4, 6, 10), (4, 10, 8), (5, 11, 7),
    (5, 8, 11), (6, 9, 10), (7, 11, 9), (8, 10, 11), (9, 11, 10),
)

TETRAHEDRON: Tuple[Face, ...] = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


def bipyramid(m: int) -> List[Face]:
    """m-gonal bipyramid: apexes 0 and 1, equator 2..m+1 (as ``shapes``)."""
    faces = []
    for i in range(m):
        a, b = 2 + i, 2 + (i + 1) % m
        faces += [(0, a, b), (1, b, a)]
    return faces


def loop_subdivide(faces: Sequence[Face], levels: int) -> List[Face]:
    """Split every triangle into four at its edge midpoints, ``levels``
    times; winding is kept, so n goes 12 -> 42 -> 162 -> 642 from the
    icosahedron."""
    faces = [tuple(f) for f in faces]
    for _ in range(levels):
        n = 1 + max(max(f) for f in faces)
        mid: Dict[Tuple[int, int], int] = {}

        def m(u, v):
            key = (min(u, v), max(u, v))
            if key not in mid:
                mid[key] = n + len(mid)
            return mid[key]

        out = []
        for a, b, c in faces:
            ab, bc, ca = m(a, b), m(b, c), m(c, a)
            out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = out
    return faces


def random_stacking(rng: np.random.Generator, n: int) -> List[Face]:
    """Stack a new vertex into a uniformly drawn face until there are ``n``
    vertices (the construction of ``TestDeepStacking``)."""
    faces = [list(f) for f in TETRAHEDRON]
    k = 4
    while k < n:
        a, b, c = faces.pop(int(rng.integers(0, len(faces))))
        faces += [[a, b, k], [b, c, k], [c, a, k]]
        k += 1
    return [tuple(f) for f in faces]


def edges_of(faces: Sequence[Face]) -> List[Tuple[int, int]]:
    return sorted({(min(u, v), max(u, v))
                   for f in faces for u, v in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))})


def band(rng: np.random.Generator, count: int, lo: float, hi: float) -> List[float]:
    """Independent uniform angles in [lo, hi), one per edge."""
    return [float(x) for x in rng.uniform(lo, hi, count)]


def trivalent_dual(faces: Sequence[Face]) -> List[List[int]]:
    """Face cycles of the dual polyhedron: cycle v lists the faces around
    vertex v in winding order (polyhedron vertex i is face i)."""
    after: Dict[Tuple[int, int], int] = {}
    for fid, (a, b, c) in enumerate(faces):
        after[(a, b)] = after[(b, c)] = after[(c, a)] = fid
    first: Dict[int, Tuple[int, int]] = {}
    for (u, w) in after:
        first.setdefault(u, (u, w))
    cycles = []
    for v in range(len(first)):
        w0 = w = first[v][1]
        cyc = []
        while True:
            fid = after[(v, w)]
            cyc.append(fid)
            a, b, c = faces[fid]
            w = {a: c, b: a, c: b}[v]  # v's predecessor: the edge to the next face
            if w == w0:
                break
        cycles.append(cyc)
    return cycles


def dual_edges(cycles: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    return sorted({(min(c[i], c[i - 1]), max(c[i], c[i - 1]))
                   for c in cycles for i in range(len(c))})


# ---------------------------------------------------------------------------
# instances and their expected outcomes
# ---------------------------------------------------------------------------

@dataclass
class Step:
    """One CLI command of a chain and the outcome it must have.

    ``argv`` may name ``{tri}``, ``{theta}``, ``{pattern}``, ``{out}``; they
    are filled with the instance's paths.  ``expect`` is the expected exit
    code; ``tags`` the exact set of violation tags a ``validate`` must emit.
    """

    command: str
    argv: List[str]
    expect: int = 0
    tags: Tuple[str, ...] = ()


@dataclass
class Instance:
    name: str
    kind: str                  # "triangulation" or "polyhedron"
    faces: List                # triangles, or polyhedron face cycles
    edges: List[Tuple[int, int]]
    theta: List[float]
    klass: str                 # class the data is meant to be in (or fail)
    steps: List[Step]
    n: int = 0
    paths: Dict[str, str] = field(default_factory=dict)

    def write(self, root: Path) -> None:
        """Write the instance's input files under ``root``."""
        d = root / self.name
        d.mkdir(parents=True, exist_ok=True)
        self.paths = {
            "tri": str(d / "input.json"),
            "theta": str(d / "theta.json"),
            "pattern": str(d / "pattern.json"),
            "out": str(d / "out"),
        }
        Path(self.paths["tri"]).write_text(
            json.dumps({"vertices": self.n, "faces": [list(f) for f in self.faces]}))
        Path(self.paths["theta"]).write_text(json.dumps({"theta": [
            {"edge": list(e), "value": v} for e, v in zip(self.edges, self.theta)]}))


def planar_chain() -> List[Step]:
    return [
        Step("solve", ["solve", "{tri}", "{theta}", "--mode", "auto",
                       "--auto-mark", "--out", "{pattern}"]),
        Step("verify", ["verify", "--pattern", "{pattern}", "--json-out", "{out}.verify.json"]),
        Step("render", ["render", "{pattern}", "--out", "{out}.svg"]),
    ]


def sphere_chain() -> List[Step]:
    return [
        Step("solve", ["solve", "{tri}", "{theta}", "--mode", "auto", "--out", "{pattern}"]),
        Step("verify", ["verify", "--pattern", "{pattern}", "--json-out", "{out}.verify.json"]),
        Step("polyhedron", ["polyhedron", "--pattern", "{pattern}", "--out", "{out}.obj",
                            "--json-out", "{out}.poly.json"]),
    ]


def validate_step(klass: str, expect: int, tags: Tuple[str, ...] = ()) -> List[Step]:
    return [Step("validate", ["validate", "{tri}", "{theta}", "--class", klass,
                              "--json-out", "{out}.validate.json"], expect, tags)]


def triangulated(name, faces, theta, klass, steps) -> Instance:
    faces = [tuple(f) for f in faces]
    edges = edges_of(faces)
    if not isinstance(theta, list):
        theta = [float(theta)] * len(edges)
    n = 1 + max(max(f) for f in faces)
    return Instance(name, "triangulation", faces, edges, theta, klass, steps, n)


DEFAULT_SEED = 2024
STACK120_SEED = 11


def draws(seed: int) -> Dict[str, list]:
    """Every random draw, in the order the workloads are listed (planar-g5,
    sphere-m5, validate-large), from one generator: an instance depends only
    on the seed, never on which workload asked for it."""
    rng = np.random.default_rng(seed)
    return {
        "planar_theta": band(rng, len(edges_of(loop_subdivide(ICOSAHEDRON, 2))), 0.0, 1.2),
        "stack120": random_stacking(rng, 120),
        "sphere_theta": band(rng, len(edges_of(loop_subdivide(ICOSAHEDRON, 1))),
                             PI / 3, PI / 3 + 0.45),
        "bip_theta": band(rng, len(edges_of(bipyramid(8))), PI / 3, PI / 3 + 0.45),
        "stack300": random_stacking(rng, 300),
    }


def generate(workload: str, seed: int) -> List[Instance]:
    """The instances of ``workload`` at ``seed``.

    Draws whose cost or outcome moves with the seed are pinned, since runs
    at different seeds must agree within the metrics' bounds; each pinned
    draw that fails today stays in, so the defect shows on every run:

    * sphere-m5 takes its draws at ``DEFAULT_SEED``.  The spherical solve
      of the n=42 band instance takes 2.2-10.5 s over seeds 0-8, and
      relabelling one instance moves it as much.  Its bipyramid draw is
      admissible and its solve fails with ``BaseSolveFailed``.
    * stack120-t0 takes the stacking drawn at ``STACK120_SEED``.  At
      radius ratios near 1e-5 the solved pattern fails verify on some
      seeds (2 of seeds 11-20; at seed 11: angle error 6.7e-8 above the
      1e-8 tolerance, and contacts missing).
    """
    d = draws(seed)
    ico1 = loop_subdivide(ICOSAHEDRON, 1)
    ico2 = loop_subdivide(ICOSAHEDRON, 2)
    if workload == "planar-g5":
        return [
            triangulated("ico162-t0", ico2, 0.0, "g5", planar_chain()),
            triangulated("ico162-u", ico2, d["planar_theta"], "g5", planar_chain()),
            triangulated("stack120-t0", draws(STACK120_SEED)["stack120"], 0.0, "g5",
                         planar_chain()),
        ]
    if workload == "sphere-m5":
        d = draws(DEFAULT_SEED)
        return [
            triangulated("ico12-2pi5", ICOSAHEDRON, 2 * PI / 5, "m5", sphere_chain()),
            triangulated("ico42-t1.2", ico1, 1.2, "m5", sphere_chain()),
            triangulated("ico42-band", ico1, d["sphere_theta"], "m5", sphere_chain()),
            # admissible, and its solve fails with BaseSolveFailed: kept so
            # the failure shows in the metrics
            triangulated("bipyramid8-band", bipyramid(8), d["bip_theta"], "m5", sphere_chain()),
        ]
    if workload == "validate-large":
        ico3 = loop_subdivide(ICOSAHEDRON, 3)
        dual = trivalent_dual(ico2)
        dual_e = dual_edges(dual)
        return [
            # theta = 0 meets c1-c4 on any triangulation without separating
            # 3-cycles, and every face sum is below pi: accepted as g5
            triangulated("ico642-t0", ico3, 0.0, "g5", validate_step("g5", 0)),
            # every stacked vertex closes a separating 3-cycle whose sum
            # 3 * 1.2 exceeds pi: rejected, with c3 certificates only
            triangulated("stack300-t1.2", d["stack300"], 1.2, "m5",
                         validate_step("m5", 2, ("c3",))),
            # vertex sums 3.6 > pi and no prismatic circuits: accepted
            Instance("dual162-t1.2", "polyhedron", dual, dual_e, [1.2] * len(dual_e),
                     "andreev", validate_step("andreev", 0), len(ico2)),
        ]
    if workload == "smoke":
        # shipped shapes only, every command and every layer in a few
        # seconds; also the probe that measures layers a workload never calls
        dodeca = trivalent_dual(ICOSAHEDRON)
        dodeca_e = dual_edges(dodeca)
        return [
            triangulated("ico12-t0", ICOSAHEDRON, 0.0, "g5", planar_chain()),
            triangulated("ico12-2pi5", ICOSAHEDRON, 2 * PI / 5, "m5", sphere_chain()),
            Instance("dual12-t1.2", "polyhedron", dodeca, dodeca_e, [1.2] * len(dodeca_e),
                     "andreev", validate_step("andreev", 0), len(ICOSAHEDRON)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_all(instances: Sequence[Instance], root: Path) -> None:
    for inst in instances:
        inst.write(root)


def fill(argv: Sequence[str], paths: Dict[str, str]) -> List[str]:
    return [a.format(**paths) for a in argv]


def expected_interstices(inst: Instance) -> Optional[int]:
    """Faces whose angle sum is below pi (one interstice each, by theory)."""
    if inst.kind != "triangulation":
        return None
    val = dict(zip(inst.edges, inst.theta))
    count = 0
    for a, b, c in inst.faces:
        s = sum(val[(min(u, v), max(u, v))] for u, v in ((a, b), (b, c), (c, a)))
        count += s < PI - 1e-12
    return count
