"""The traced run: the same chains as the CLI pass, in one process, with a
span around every call into a layer's public functions.

Spans are kept in memory as (name, start, end, parent, instance) plus
attributes, and written as JSON lines when the run ends.  The spans under
an ``instance`` root mirror the CLI commands, so their total sits beside
the CLI pass's per-instance time; extra calls that only split a layer into
parts (cycle enumeration, layout, the verifier's sub-checks) sit under a
separate ``breakdown`` root.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from instances import Instance, expected_interstices

from circlepattern import (
    build_polyhedron,
    build_triangulation,
    check_andreev,
    check_polyhedron,
    classify,
    contact_graph,
    dual_of_trivalent,
    enumerate_simple_cycles,
    export_obj,
    flower_check,
    layout_euclidean,
    pick_marked_face,
    solve_euclidean,
    solve_spherical,
    verify_pattern,
)
from circlepattern import formats, render
from circlepattern.errors import CirclePatternError
from circlepattern.polyhedron import polyhedron_to_dict
from circlepattern.verify import CirclePattern, count_interstices

# the verifier's own sampling settings at the CLI defaults
# (verify_pattern(tol=1e-8, boundary_samples=4096, interior_grid=256))
BOUNDARY_SAMPLES = 4096
INTERIOR_GRID = 256
SPHERE_SAMPLES = 20000


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: str
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, instance: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), 0.0, parent, instance)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s.attrs
        finally:
            self._open.pop()
            s.end = time.perf_counter()

    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it its children cover."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def write_jsonl(self, path: Path, summary: dict) -> None:
        """One line per span, then a summary line that adds the self time
        summed per span name."""
        t0 = self.spans[0].start if self.spans else 0.0
        self_by_name: Dict[str, float] = {}
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                self_by_name[s.name] = self_by_name.get(s.name, 0.0) + self_s
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "instance": s.instance, "self": self_s,
                    **s.attrs}) + "\n")
            fh.write(json.dumps({"summary": {**summary, "self_s": self_by_name}}) + "\n")


def _dump(tr: Tracer, iid: str, payload: dict, path: str) -> None:
    with tr.span("formats.dump", iid):
        Path(path).write_text(formats.dumps(payload))


def _solve(tr: Tracer, inst: Instance, iid: str):
    """In-process ``solve --mode auto``; returns the pattern or None."""
    with tr.span("cli.solve", iid):
        with tr.span("formats.load", iid):
            t = formats.load_triangulation(inst.paths["tri"])
            theta = formats.load_theta(t, inst.paths["theta"])
        with tr.span("conditions.classify", iid) as a:
            report = classify(t, theta)
            a["violations"] = len(report.violations)
        flags = report.class_flags
        if flags["w_g"]:
            with tr.span("euclidean.solve", iid) as a:
                cfg, rep = solve_euclidean(t, theta, pick_marked_face(t, theta))
                a["iters"] = rep.iterations
                a["sweeps"] = sum("sweep" in note for note in rep.notes)
            pattern = CirclePattern.from_euclidean(t, theta, cfg)
        elif flags["w_m"]:
            with tr.span("spherical.solve", iid) as a, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    cfg, rep = solve_spherical(t, theta)
                except CirclePatternError:
                    cfg = None
                a["steps"] = rep.iterations if cfg is not None else 0
                a["failures"] = int(cfg is None)
                a["warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            if cfg is None:
                return None, None
            pattern = CirclePattern.from_spherical(t, theta, cfg)
        else:
            return None, None
        residuals = {"max_abs_K": rep.max_abs_K, "angle": rep.angle_residual}
        _dump(tr, iid, formats.pattern_to_dict(pattern, residuals), inst.paths["pattern"])
    return pattern, cfg


def _verify(tr: Tracer, inst: Instance, iid: str) -> bool:
    with tr.span("cli.verify", iid):
        with tr.span("formats.load", iid):
            p = formats.load_pattern(inst.paths["pattern"])
        with tr.span("verify.total", iid) as a:
            rep = verify_pattern(p, tol=1e-8, boundary_samples=BOUNDARY_SAMPLES)
            a["angle_err"] = rep.angle_max_err
            a["interstice_count"] = rep.interstice_count
            a["interstices_expected"] = expected_interstices(inst)
            a["passed"] = int(rep.passed)
        _dump(tr, iid, rep.to_dict(), inst.paths["out"] + ".verify.json")
    return rep.passed


def _render(tr: Tracer, inst: Instance, iid: str) -> None:
    with tr.span("cli.render", iid):
        with tr.span("formats.load", iid):
            p = formats.load_pattern(inst.paths["pattern"])
        with tr.span("render.svg", iid):
            data = render.render_svg(p)
        Path(inst.paths["out"] + ".svg").write_bytes(data)


def _polyhedron(tr: Tracer, inst: Instance, iid: str) -> None:
    with tr.span("cli.polyhedron", iid):
        with tr.span("formats.load", iid):
            p = formats.load_pattern(inst.paths["pattern"])
        with tr.span("polyhedron.build", iid) as a:
            q = build_polyhedron(p)
            a["max_vertex_norm"] = q.max_vertex_norm
        with tr.span("polyhedron.check", iid) as a:
            rep = check_polyhedron(q, p)
            a["passed"] = int(rep.passed)
        Path(inst.paths["out"] + ".obj").write_bytes(export_obj(q))
        payload = polyhedron_to_dict(q)
        payload["check"] = rep.to_dict()
        _dump(tr, iid, payload, inst.paths["out"] + ".poly.json")


def _validate(tr: Tracer, inst: Instance, iid: str) -> None:
    with tr.span("cli.validate", iid):
        if inst.klass == "andreev":
            with tr.span("formats.load", iid):
                poly = formats.load_polyhedron(inst.paths["tri"])
                theta = formats.load_theta_map(inst.paths["theta"])
            with tr.span("conditions.andreev", iid) as a:
                report = check_andreev(poly, theta)
                a["violations"] = len(report.violations)
        else:
            with tr.span("formats.load", iid):
                t = formats.load_triangulation(inst.paths["tri"])
                theta = formats.load_theta(t, inst.paths["theta"])
            with tr.span("conditions.classify", iid) as a:
                report = classify(t, theta, inst.klass)
                a["violations"] = len(report.violations)
        _dump(tr, iid, report.to_dict(), inst.paths["out"] + ".validate.json")


def _breakdown(tr: Tracer, inst: Instance, iid: str, pattern, cfg) -> None:
    """Calls that split layers into parts; not part of the CLI mirror."""
    with tr.span("breakdown", iid):
        with tr.span("triangulation.build", iid):
            if inst.kind == "polyhedron":
                t = dual_of_trivalent(inst.faces)[0]
            else:
                t = build_triangulation(inst.faces)
        with tr.span("triangulation.cycles", iid) as a:
            a["cycles"] = len(enumerate_simple_cycles(t, 4))
        if pattern is None:
            return
        if pattern.mode == "euclidean":
            with tr.span("euclidean.layout", iid):
                layout_euclidean(pattern.triangulation, pattern.theta, cfg.radii,
                                 cfg.marked_face)
        with tr.span("verify.interstices", iid):
            count_interstices(pattern, grid=INTERIOR_GRID, sphere_samples=SPHERE_SAMPLES)
        with tr.span("verify.flower", iid):
            for v in range(len(pattern.radii)):
                flower_check(pattern, v, boundary_samples=BOUNDARY_SAMPLES // 4,
                             interior_grid=max(24, INTERIOR_GRID // 8))
        with tr.span("verify.contact", iid):
            contact_graph(pattern)


def trace_instances(tr: Tracer, instances: Sequence[Instance], prefix: str = "") -> None:
    for inst in instances:
        iid = prefix + inst.name
        pattern = cfg = None
        with tr.span("instance", iid):
            for step in inst.steps:
                if step.command == "solve":
                    pattern, cfg = _solve(tr, inst, iid)
                    if pattern is None:
                        break
                elif step.command == "verify":
                    if not _verify(tr, inst, iid):
                        break  # as in the CLI pass, nothing runs after a failure
                elif step.command == "render":
                    _render(tr, inst, iid)
                elif step.command == "polyhedron":
                    _polyhedron(tr, inst, iid)
                elif step.command == "validate":
                    _validate(tr, inst, iid)
        _breakdown(tr, inst, iid, pattern, cfg)


def startup_seconds(src: Path, env: Dict[str, str], repeats: int = 5) -> float:
    """Median wall time of a fresh ``probe-triple`` process."""
    argv = [sys.executable, "-m", "circlepattern", "probe-triple", "--mode", "euclidean",
            "--radii", "1,1,1", "--angles", "0.5,0.5,0.5"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PROBE = "probe:"

TIMED = {  # metric -> span name
    "formats.load_s": "formats.load",
    "formats.dump_s": "formats.dump",
    "triangulation.build_s": "triangulation.build",
    "triangulation.cycles_s": "triangulation.cycles",
    "conditions.classify_s": "conditions.classify",
    "conditions.andreev_s": "conditions.andreev",
    "euclidean.solve_s": "euclidean.solve",
    "euclidean.layout_s": "euclidean.layout",
    "spherical.solve_s": "spherical.solve",
    "verify.total_s": "verify.total",
    "verify.interstices_s": "verify.interstices",
    "verify.flower_s": "verify.flower",
    "verify.contact_s": "verify.contact",
    "polyhedron.build_s": "polyhedron.build",
    "polyhedron.check_s": "polyhedron.check",
    "render.svg_s": "render.svg",
}
COUNTED = {  # metric -> (span names, attribute, reduction)
    "triangulation.cycles": (("triangulation.cycles",), "cycles", sum),
    "conditions.violations": (("conditions.classify", "conditions.andreev"), "violations", sum),
    "euclidean.iters": (("euclidean.solve",), "iters", sum),
    "euclidean.sweeps": (("euclidean.solve",), "sweeps", sum),
    "spherical.steps": (("spherical.solve",), "steps", sum),
    "spherical.failures": (("spherical.solve",), "failures", sum),
    "spherical.warnings": (("spherical.solve",), "warnings", sum),
    "verify.angle_err": (("verify.total",), "angle_err", max),
    "verify.interstice_count": (("verify.total",), "interstice_count", sum),
    "verify.interstices_expected": (("verify.total",), "interstices_expected", sum),
    "polyhedron.max_vertex_norm": (("polyhedron.build",), "max_vertex_norm", max),
}
# derived: the part of a layer's time not covered by its measured parts,
# per instance: metric -> (whole, parts)
DERIVED = {
    "euclidean.newton_s": ("euclidean.solve", ("conditions.classify", "euclidean.layout")),
    "verify.rest_s": ("verify.total", ("verify.interstices", "verify.flower", "verify.contact")),
}


def _selected(spans: Sequence[Span], name: str) -> List[Span]:
    """The workload's spans of this name; the probe's when the workload
    never calls that function, so every layer is measured on every
    workload."""
    own = [s for s in spans if s.name == name and not s.instance.startswith(PROBE)]
    return own or [s for s in spans if s.name == name and s.instance.startswith(PROBE)]


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    spans = tr.spans
    out: Dict[str, float] = {}
    for metric, name in TIMED.items():
        out[metric] = sum(s.duration for s in _selected(spans, name))
    for metric, (names, attr, reduce) in COUNTED.items():
        vals = [s.attrs[attr] for n in names for s in _selected(spans, n)
                if s.attrs.get(attr) is not None]
        out[metric] = float(reduce(vals)) if vals else 0.0
    for metric, (whole, parts) in DERIVED.items():
        total = 0.0
        for w in _selected(spans, whole):
            total += w.duration - sum(s.duration for s in spans
                                      if s.instance == w.instance and s.name in parts)
        out[metric] = total
    return out


def instance_totals(tr: Tracer) -> Dict[str, float]:
    return {s.instance: s.duration for s in tr.spans
            if s.name == "instance" and not s.instance.startswith(PROBE)}
