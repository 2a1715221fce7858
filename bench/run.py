"""Benchmark of the circlepattern CLI pipeline.

    python3 bench/run.py --workload planar-g5 --seed 2024 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src/`` and every command runs as
``python -m circlepattern ...`` in a fresh process with one BLAS/OpenMP
thread, one command at a time (a closed loop with one client).

``--trace 0`` repeats passes over the workload's instances while the next
pass still fits in ``--seconds`` (at least one) and reports the end-to-end
metrics, medians over passes:

  ok_per_min   instances whose whole chain ended as expected, per minute of
               command time
  cmd_s        summed command time of a pass (per command the median over
               passes)
  peak_rss_mb  largest resident set of any command
  ok_frac      commands that ended as expected, over commands attempted
  setup_s      generating the inputs and writing their files

Times are wall times scaled to a fixed reference speed (see ``pipeline``); the
unscaled ones are printed above the result.  ``--trace 1`` makes one CLI
pass and one in-process traced pass and reports the per-layer metrics; the
spans go to ``.bench_work/traces/``.  ``--workload all`` runs the three
workloads in turn.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``failed`` counts commands that did not end as expected, including those
after a failed command of the same chain, which are not run.  ``correct``
is false when a command claimed success with a wrong output, answered a
``validate`` wrongly, or ended with an undocumented exit code.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("planar-g5", "sphere-m5", "validate-large")
SETUP_REPEATS = 15
# commands still running this long after the start are killed (and count as
# failed), so that a run ends within its 180 s limit even after a regression
DEADLINE_S = 150.0
# Every child and the traced run use one BLAS/OpenMP thread: the spherical
# Newton path (iteration counts and output bytes) depends on the count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {"ok_per_min": "1/min", "cmd_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
         "setup_s": "s", "fail_frac": "ratio", "verify.angle_err": "1",
         "polyhedron.max_vertex_norm": "1"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "revision": git_revision(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "circlepattern").glob("*.py"))),
    }


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (which
    would search directories above the checkout); "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# The benchmark's own modules import numpy, so they are imported inside the
# functions, after main() has pinned the thread counts.

def setup(workload: str, seed: int, work: Path):
    """Generate and write the inputs SETUP_REPEATS times; the median time,
    each repeat scaled by speed probes taken just before and after it."""
    import instances
    import pipeline

    times = []
    for _ in range(SETUP_REPEATS):
        before = pipeline.speed_probe()
        t0 = time.perf_counter()
        insts = instances.generate(workload, seed)
        instances.write_all(insts, work / "inputs")
        elapsed = time.perf_counter() - t0
        after = pipeline.speed_probe()
        times.append(elapsed * pipeline.scale([before, after]))
    return statistics.median(times), insts


def preflight(insts) -> None:
    """Each instance that is solved must be in its intended class.  A
    ``validate`` instance needs no preflight: the command is the class check,
    and its expected answer (derived in ``instances``) is checked every pass."""
    from circlepattern import classify, formats

    for inst in insts:
        if inst.steps[0].command == "validate":
            continue
        t = formats.load_triangulation(inst.paths["tri"])
        theta = formats.load_theta(t, inst.paths["theta"])
        if not classify(t, theta, inst.klass).passed:
            raise SystemExit(f"instance {inst.name} is not in class {inst.klass}")


def median_over(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes)


def command_report(passes) -> dict:
    """The per-command sums (scaled, median over passes) for the commands
    the workload runs, and the failed share of commands attempted."""
    out = {}
    for cmd in ("validate", "solve", "verify", "polyhedron", "render"):
        if any(cmd in p.commands() for p in passes):
            out[f"{cmd}_s"] = median_over(passes, lambda p: p.seconds(cmd))
    failed = sum(p.failed() for p in passes)
    attempted = sum(len(p.outcomes) for p in passes)
    out["fail_frac"] = failed / attempted
    return out


def end_to_end(insts, seconds: float, deadline: float):
    import pipeline

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(pipeline.run_pass(insts, SRC, deadline))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    per_command = {}
    for p in passes:
        for o in p.outcomes:
            if o.ran:
                per_command.setdefault((o.instance, o.command), []).append(o.scaled_s)
    metrics = {
        "ok_per_min": median_over(passes, lambda p: 60.0 * p.instances_ok() / p.seconds()),
        # per command the median over passes, so that one slow process
        # does not move the sum
        "cmd_s": sum(statistics.median(w) for w in per_command.values()),
        "peak_rss_mb": median_over(passes, lambda p: max(o.rss_mb for o in p.outcomes)),
        "ok_frac": median_over(passes, lambda p: 1.0 - p.failed() / len(p.outcomes)),
    }
    return passes, metrics, command_report(passes)


def traced(insts, workload: str, seed: int, work: Path, deadline: float):
    import instances
    import pipeline
    import traced as tr_mod

    cli = pipeline.run_pass(insts, SRC, deadline)
    tracer = tr_mod.Tracer()
    tr_mod.trace_instances(tracer, insts)
    probe = instances.generate("smoke", seed)
    instances.write_all(probe, work / "probe")
    tr_mod.trace_instances(tracer, probe, tr_mod.PROBE)
    metrics = tr_mod.layer_metrics(tracer)
    metrics["cli.startup_s"] = tr_mod.startup_seconds(SRC, pipeline.child_env(SRC))

    cli_inst = {}
    for o in cli.outcomes:
        cli_inst[o.instance] = cli_inst.get(o.instance, 0.0) + o.wall_s
    traced_inst = tr_mod.instance_totals(tracer)
    metrics["pipeline.cli_instance_s"] = statistics.mean(cli_inst.values())
    metrics["pipeline.traced_instance_s"] = statistics.mean(traced_inst.values())

    per_instance = [{"instance": k, "cli_s": cli_inst[k], "traced_s": traced_inst[k]}
                    for k in cli_inst]
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    path = WORK / "traces" / f"{workload}-{seed}.jsonl"
    tracer.write_jsonl(path, {"workload": workload, "seed": seed, "environment": environment(),
                              "instances": per_instance, "metrics": metrics})
    print(f"trace: {path}")
    for row in per_instance:
        print(f"  {row['instance']}: cli {row['cli_s']:.3f} s, traced {row['traced_s']:.3f} s")
    return [cli], metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_s, insts = setup(workload, seed, work)
        preflight(insts)
        if trace:
            passes, metrics = traced(insts, workload, seed, work, deadline)
        else:
            passes, metrics, report = end_to_end(insts, seconds, deadline)
            metrics["setup_s"] = setup_s
            print(f"{workload} seed {seed}: {len(passes)} pass(es); pass wall "
                  + ", ".join(f"{p.wall_s:.2f}" for p in passes) + " s; unscaled cmd "
                  + ", ".join(f"{p.seconds(scaled=False):.2f}" for p in passes) + " s")
            for name, value in report.items():
                print(f"  {name} {value:.6g} {unit_of(name)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcomes = [o for p in passes for o in p.outcomes]
    for o in outcomes:
        if not o.ok and o.ran:
            print(f"  failed: {o.instance} {o.command}: {o.detail}")
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all", "smoke"))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circlepattern" / "__init__.py").is_file():
        print(f"error: no circlepattern sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path[:0] = [str(HERE), str(SRC)]
    import circlepattern

    if Path(circlepattern.__file__).resolve().parent != SRC / "circlepattern":
        print(f"error: imported {circlepattern.__file__}, not the checkout", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment()))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
