"""The CLI pass: every command of every instance in a fresh process, one at
a time (closed loop, one client), each outcome checked from its outputs.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from instances import Instance, Step, fill

# the exit code with which each command reports that it could not do its
# job (``cli._COMMANDS``); any other unexpected code is a wrong outcome
FAILURE_CODE = {"solve": 3, "verify": 4, "polyhedron": 5, "render": 3}


def child_env(src: Path) -> Dict[str, str]:
    """The caller's environment (thread counts included) with ``src`` as
    the only import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


# On a shared 2-core x86-64 VM the machine's speed swings by up to 2x over
# periods of seconds (noisy neighbours), and the same command's wall time
# spread 12-18%.  So while a command runs, the parent times a fixed
# pure-Python loop every PROBE_PERIOD_S on the other core, and the command's
# time is also reported scaled to the fixed reference speed at which that
# loop takes CALIBRATION_REF_S.  Scaled per-command times spread 3.5-4.5%.
CALIBRATION_REF_S = 0.002
PROBE_PERIOD_S = 0.025


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples ``speed_probe`` in a thread until stopped."""

    def __init__(self) -> None:
        self.samples: List[float] = [speed_probe()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(speed_probe())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(speed_probe())


def scale(probe_times: Sequence[float]) -> float:
    """Reference speed over the mean speed while the probes ran: work done is
    the time integral of speed, so speeds (not times) are averaged."""
    return CALIBRATION_REF_S * statistics.mean(1.0 / t for t in probe_times)


@dataclass
class Outcome:
    instance: str
    command: str
    wall_s: float
    rss_mb: float
    ok: bool
    ran: bool
    detail: str = ""
    wrong: bool = False
    scaled_s: float = 0.0


@dataclass
class PassResult:
    wall_s: float
    outcomes: List[Outcome] = field(default_factory=list)

    def instances_ok(self) -> int:
        bad = {o.instance for o in self.outcomes if not o.ok}
        return len({o.instance for o in self.outcomes} - bad)

    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def seconds(self, command: str = "", scaled: bool = True) -> float:
        """Summed time of the pass's commands (of one kind, if given)."""
        return sum(o.scaled_s if scaled else o.wall_s for o in self.outcomes
                   if o.ran and command in ("", o.command))

    def commands(self) -> set:
        return {o.command for o in self.outcomes}


def run_child(argv: Sequence[str], src: Path, log: Path, timeout: float):
    """Run ``python -m circlepattern argv``, killed after ``timeout`` seconds;
    return (exit code, wall seconds, wall seconds scaled to the reference
    speed, peak resident set in MB)."""
    with open(log, "wb") as err, SpeedSampler() as speed:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "circlepattern", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(src))
        killer = threading.Timer(max(0.0, timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, wall * scale(speed.samples), usage.ru_maxrss / 1024.0


def check_step(step: Step, code: int, paths: Dict[str, str]):
    """(ok, wrong, reason), read from the outputs and not from the exit code
    alone.  Not ok but not wrong: the command reported with its documented
    failure code that it could not do the job.  Wrong: it claimed success
    with a bad output, answered ``validate`` wrongly, or exited otherwise."""
    if code != step.expect:
        documented = code == FAILURE_CODE.get(step.command) and step.expect == 0
        return False, not documented, f"exit {code}, expected {step.expect}"
    out = paths["out"]
    try:
        if step.command == "solve":
            data = json.loads(Path(paths["pattern"]).read_text())
            radii = [c["radius"] for c in data["circles"]]
            if not radii or not all(math.isfinite(r) and r > 0 for r in radii):
                return False, True, "pattern has a non-positive or non-finite radius"
        elif step.command == "verify":
            if not json.loads(Path(out + ".verify.json").read_text())["passed"]:
                return False, True, "exit 0 with passed=false"
        elif step.command == "polyhedron":
            data = json.loads(Path(out + ".poly.json").read_text())
            if not data["check"]["passed"]:
                return False, True, "exit 0 with check.passed=false"
            if not data["max_vertex_norm"] < 1.0:
                return False, True, f"max_vertex_norm {data['max_vertex_norm']} is not below 1"
            if Path(out + ".obj").stat().st_size == 0:
                return False, True, "empty OBJ"
        elif step.command == "render":
            svg = Path(out + ".svg").read_bytes()
            if b"<svg" not in svg or b"<circle" not in svg:
                return False, True, "SVG without circles"
        elif step.command == "validate":
            data = json.loads(Path(out + ".validate.json").read_text())
            tags = {v["condition"].split("-")[0] for v in data["violations"]}
            if tags != set(step.tags):
                return False, True, f"violation tags {sorted(tags)}, expected {sorted(step.tags)}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, True, f"unreadable output: {exc!r}"
    return True, False, ""


def clear_outputs(inst: Instance) -> None:
    """Remove what the chain's commands write, so no output of an earlier
    pass can stand in for a missing one."""
    if inst.steps[0].command == "solve":
        Path(inst.paths["pattern"]).unlink(missing_ok=True)
    for suffix in (".verify.json", ".poly.json", ".validate.json", ".svg", ".obj"):
        Path(inst.paths["out"] + suffix).unlink(missing_ok=True)


def run_pass(instances: Sequence[Instance], src: Path, deadline: float) -> PassResult:
    """One pass over the instances.  Once a command of a chain fails, the
    commands after it are not run and count as failed.  A command still
    running at ``deadline`` (a ``time.perf_counter`` value) is killed and
    counts as failed."""
    t0 = time.perf_counter()
    result = PassResult(0.0)
    for inst in instances:
        clear_outputs(inst)
        broken = ""
        for step in inst.steps:
            if broken:
                result.outcomes.append(Outcome(inst.name, step.command, 0.0, 0.0,
                                               False, False, f"after {broken}"))
                continue
            log = Path(inst.paths["out"] + f".{step.command}.stderr")
            code, wall, scaled, rss = run_child(fill(step.argv, inst.paths), src, log,
                                                deadline - time.perf_counter())
            if code < 0:
                ok, wrong, why = False, False, f"killed by signal {-code} at the run deadline"
            else:
                ok, wrong, why = check_step(step, code, inst.paths)
            result.outcomes.append(Outcome(inst.name, step.command, wall, rss,
                                           ok, True, why, wrong, scaled))
            if not ok:
                broken = f"{step.command} failed"
    result.wall_s = time.perf_counter() - t0
    return result
