"""JSON input/output for triangulations, angle data, and patterns.

Schemas (all angles in radians, edge keys canonicalized (min, max)):

  triangulation: {"vertices": n, "faces": [[a, b, c], ...]}
  theta:         {"theta": [{"edge": [i, j], "value": v}, ...]}
  polyhedron:    {"vertices": n, "faces": [[cycle ...], ...]}
  pattern:       {"mode": "euclidean" | "spherical",
                  "marked_face": [a, b, c] | null,
                  "circles": [{"center": [...], "radius": r}, ...],
                  "residuals": {...},
                  "triangulation": {...}, "theta": {...}}
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from .errors import UsageError

if TYPE_CHECKING:  # imported in the loaders, so a command loads only what it reads
    from .conditions import AngleAssignment
    from .configurations import CirclePattern
    from .triangulation import Triangulation

Source = Union[str, Path, dict]


def _load(source: Source) -> dict:
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})")


def _require(data: dict, keys, what: str) -> None:
    for key in keys:
        if key not in data:
            raise UsageError(f"{what} is missing the {key!r} key")


def dumps(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=1)


def load_triangulation(source: Source) -> Triangulation:
    from .triangulation import build_triangulation

    data = _load(source)
    _require(data, ("faces",), "triangulation JSON")
    return build_triangulation(data["faces"], vertex_count=data.get("vertices"))


def triangulation_to_dict(t: Triangulation) -> dict:
    return {"vertices": t.vertex_count, "faces": [list(f) for f in t.faces]}


def load_polyhedron(source: Source):
    data = _load(source)
    _require(data, ("faces",), "polyhedron JSON")
    return [tuple(int(v) for v in cycle) for cycle in data["faces"]]


def load_theta_map(source: Source) -> Dict[Tuple[int, int], float]:
    from .triangulation import canonical_edge

    data = _load(source)
    _require(data, ("theta",), "theta JSON")
    out: Dict[Tuple[int, int], float] = {}
    for item in data["theta"]:
        _require(item, ("edge", "value"), "theta item")
        e = canonical_edge(int(item["edge"][0]), int(item["edge"][1]))
        if e in out:
            raise UsageError(f"edge {list(e)} specified twice")
        out[e] = float(item["value"])
    return out


def load_theta(t: Triangulation, source: Source) -> AngleAssignment:
    from .conditions import AngleAssignment

    try:
        return AngleAssignment.from_dict(t, load_theta_map(source))
    except ValueError as exc:
        raise UsageError(str(exc))


def theta_to_dict(theta: AngleAssignment) -> dict:
    t = theta.triangulation
    return {
        "theta": [
            {"edge": list(e), "value": theta.values[i]} for i, e in enumerate(t.edges)
        ]
    }


def pattern_to_dict(p: CirclePattern, residuals: Optional[dict] = None) -> dict:
    from .configurations import EUCLIDEAN

    circles = []
    for v in range(len(p.radii)):
        if p.mode == EUCLIDEAN:
            center = [p.centers[v].real, p.centers[v].imag]
        else:
            center = [float(x) for x in p.centers[v]]
        circles.append({"center": center, "radius": float(p.radii[v])})
    return {
        "mode": p.mode,
        "marked_face": list(p.marked_face) if p.marked_face is not None else None,
        "circles": circles,
        "residuals": residuals or {},
        "triangulation": triangulation_to_dict(p.triangulation),
        "theta": theta_to_dict(p.theta),
    }


def load_pattern(source: Source) -> CirclePattern:
    from .configurations import EUCLIDEAN, SPHERICAL, CirclePattern

    data = _load(source)
    _require(data, ("mode", "circles", "triangulation", "theta"), "pattern JSON")
    for c in data["circles"]:
        _require(c, ("center", "radius"), "pattern circle")
    t = load_triangulation(data["triangulation"])
    theta = load_theta(t, data["theta"])
    mode = data["mode"]
    radii = np.array([c["radius"] for c in data["circles"]], dtype=float)
    if mode == EUCLIDEAN:
        centers = np.array(
            [complex(c["center"][0], c["center"][1]) for c in data["circles"]]
        )
    elif mode == SPHERICAL:
        centers = np.array([c["center"] for c in data["circles"]], dtype=float)
    else:
        raise UsageError(f"unknown mode {mode!r}")
    marked = data.get("marked_face")
    return CirclePattern(
        triangulation=t,
        theta=theta,
        mode=mode,
        centers=centers,
        radii=radii,
        marked_face=tuple(marked) if marked else None,
    )
