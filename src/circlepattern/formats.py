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
    if not isinstance(data, dict):
        raise UsageError(f"{what} must be an object")
    for key in keys:
        if key not in data:
            raise UsageError(f"{what} is missing the {key!r} key")


def _array(value, what: str, kind=None, length: Optional[int] = None) -> list:
    """``value``, a JSON array of ``length`` items when given; with ``kind``,
    of numbers, only integers when ``kind`` is int."""
    if (not isinstance(value, (list, tuple)) or length not in (None, len(value))
            or kind and not {int, kind}.issuperset(map(type, value))):
        raise UsageError(f"{what} has the wrong JSON type or shape")
    return value


def _number(x, what: str, kind=float):
    """A JSON number as ``kind``; only an integer when ``kind`` is int."""
    return kind(_array([x], what, kind)[0])


def dumps(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=1)


def load_triangulation(source: Source) -> Triangulation:
    from .triangulation import build_triangulation

    data = _load(source)
    _require(data, ("faces",), "triangulation JSON")
    n, faces = data.get("vertices"), _array(data["faces"], "'faces'")
    return build_triangulation([_array(f, "a face", int) for f in faces],
                               vertex_count=None if n is None else _number(n, "'vertices'", int))


def triangulation_to_dict(t: Triangulation) -> dict:
    return {"vertices": t.vertex_count, "faces": [list(f) for f in t.faces]}


def load_polyhedron(source: Source):
    data = _load(source)
    _require(data, ("faces",), "polyhedron JSON")
    return [tuple(_array(cycle, "a face", int)) for cycle in _array(data["faces"], "'faces'")]


def load_theta_map(source: Source) -> Dict[Tuple[int, int], float]:
    from .triangulation import canonical_edge

    data = _load(source)
    _require(data, ("theta",), "theta JSON")
    out: Dict[Tuple[int, int], float] = {}
    for item in _array(data["theta"], "'theta'"):
        _require(item, ("edge", "value"), "theta item")
        e = canonical_edge(*_array(item["edge"], "a theta edge", int, 2))
        if e in out:
            raise UsageError(f"edge {list(e)} specified twice")
        out[e] = _number(item["value"], "a theta value")
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
    circles = _array(data["circles"], "'circles'")
    for c in circles:
        _require(c, ("center", "radius"), "pattern circle")
    t = load_triangulation(data["triangulation"])
    theta = load_theta(t, data["theta"])
    mode = data["mode"]
    if mode not in (EUCLIDEAN, SPHERICAL):
        raise UsageError(f"unknown mode {mode!r}")
    radii = np.array([_number(c["radius"], "a radius") for c in circles], dtype=float)
    dim = 2 if mode == EUCLIDEAN else 3
    centers = np.array([_array(c["center"], "a center", float, dim) for c in circles],
                       dtype=float).reshape(-1, dim)
    if mode == EUCLIDEAN:
        centers = centers.view(complex)[:, 0]  # the bits of complex(x, y)
    marked = data.get("marked_face")
    return CirclePattern(
        triangulation=t,
        theta=theta,
        mode=mode,
        centers=centers,
        radii=radii,
        marked_face=tuple(_array(marked, "'marked_face'", int, 3)) if marked else None,
    )
