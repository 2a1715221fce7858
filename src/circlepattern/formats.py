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
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from .errors import UsageError

if TYPE_CHECKING:  # imported in the loaders, so a command loads only what it reads
    from .configurations import CirclePattern
    from .triangulation import AngleAssignment, Triangulation

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


def _require(items: list, keys, what: str) -> None:
    """Every item an object with ``keys``: one test per key."""
    if not all(map(isinstance, items, repeat(dict))):
        raise UsageError(f"{what} must be an object")
    for key in keys:
        if not all(map(dict.__contains__, items, repeat(key))):
            raise UsageError(f"{what} is missing the {key!r} key")


INT, NUMBER = (int,), (int, float)


def _arrays(rows: list, what: str, kinds=(), length: Optional[int] = None) -> list:
    """``rows``, JSON arrays of ``length`` items when given, of the types
    ``kinds`` when given: one test of the rows, one of all their items."""
    if (not {list, tuple}.issuperset(map(type, rows))
            or length is not None and not {length}.issuperset(map(len, rows))
            or kinds and not set(kinds).issuperset(map(type, chain.from_iterable(rows)))):
        raise UsageError(f"{what} has the wrong JSON type or shape")
    return rows


def _array(value, what: str, kinds=(), length: Optional[int] = None) -> list:
    return _arrays([value], what, kinds, length)[0]


def dumps(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=1)


def load_triangulation(source: Source) -> Triangulation:
    from .triangulation import build_triangulation

    data = _load(source)
    _require([data], ("faces",), "triangulation JSON")
    n, faces = data.get("vertices"), _array(data["faces"], "'faces'")
    if n is not None:
        _array([n], "'vertices'", INT)
    return build_triangulation(_arrays(faces, "a face", INT), vertex_count=n)


def triangulation_to_dict(t: Triangulation) -> dict:
    return {"vertices": t.vertex_count, "faces": [list(f) for f in t.faces]}


def load_polyhedron(source: Source):
    data = _load(source)
    _require([data], ("faces",), "polyhedron JSON")
    return [tuple(cycle) for cycle in _arrays(_array(data["faces"], "'faces'"), "a face", INT)]


def load_theta_map(source: Source) -> Dict[Tuple[int, int], float]:
    from .triangulation import canonical_edge

    data = _load(source)
    _require([data], ("theta",), "theta JSON")
    items = _array(data["theta"], "'theta'")
    _require(items, ("edge", "value"), "theta item")
    edges = _arrays([i["edge"] for i in items], "a theta edge", INT, 2)
    edges = [canonical_edge(*e) for e in edges]
    values = _array([i["value"] for i in items], "a theta value", NUMBER)
    out = dict(zip(edges, map(float, values)))
    if len(out) < len(edges):
        e = next(e for e, k in Counter(edges).items() if k > 1)
        raise UsageError(f"edge {list(e)} specified twice")
    return out


def load_theta(t: Triangulation, source: Source) -> AngleAssignment:
    from .triangulation import AngleAssignment

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

    xy = np.column_stack([p.centers.real, p.centers.imag]) if p.mode == EUCLIDEAN else p.centers
    circles = [{"center": c, "radius": r}
               for c, r in zip(xy.astype(float).tolist(), p.radii.tolist())]
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
    _require([data], ("mode", "circles", "triangulation", "theta"), "pattern JSON")
    circles = _array(data["circles"], "'circles'")
    _require(circles, ("center", "radius"), "pattern circle")
    t = load_triangulation(data["triangulation"])
    theta = load_theta(t, data["theta"])
    mode = data["mode"]
    if mode not in (EUCLIDEAN, SPHERICAL):
        raise UsageError(f"unknown mode {mode!r}")
    radii = np.array(_array([c["radius"] for c in circles], "a radius", NUMBER), dtype=float)
    dim = 2 if mode == EUCLIDEAN else 3
    centers = np.array(_arrays([c["center"] for c in circles], "a center", NUMBER, dim),
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
        marked_face=tuple(_array(marked, "'marked_face'", INT, 3)) if marked is not None else None,
    )
