"""Benchmark of the ``agreeable`` package: one workload per run, from a seed.

Run from the root of a checkout (no install needed; ``src`` is put on the
path here and on the ``PYTHONPATH`` of every child process)::

    python3 bench/run.py --workload line-bulk --seed 1 --seconds 20 --trace 0

Each run builds the workload's inputs from the seed, times the set-up
several times, runs one untimed warm-up operation and then whole rounds of
the workload's fixed operation list until ``--seconds`` have passed: a
closed loop with one client and one operation in flight.  Every output is
checked against an independent computation.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1`` (an in-process replay under timing wrappers).

``python3 bench/run.py --write-manifest`` rewrites ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

RUN_SECONDS = 20
# Set-up is timed at least SETUP_MIN_REPEATS times and, while the repeats
# have taken less than SETUP_MIN_SECONDS, again, up to SETUP_MAX_REPEATS:
# a set-up of milliseconds needs many samples for a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 100
SETUP_MIN_SECONDS = 1.5
STARTUP_SAMPLES = 7

# This machine (2 vCPUs shared with other tenants) runs the same operations
# up to a quarter faster or slower for minutes at a time.  So every run also
# times a reference: a fresh isolated interpreter (no PYTHONPATH, so never
# the program) that imports some of the standard library the CLI uses and
# does a little exact arithmetic, much as a CLI operation starts up and
# works.  It is sampled three times before the timed phase and then before
# an operation whenever REFERENCE_EVERY_S have passed since the last sample.
# Every reported time is the measured time scaled by REFERENCE_NOMINAL_S /
# the run's median reference: seconds on this machine when the reference
# takes 0.1 s.  The measured figures go to standard error beside them.
REFERENCE_CODE = """\
import argparse, dataclasses, decimal, json
from fractions import Fraction
values = sorted(Fraction(i * 7919 % 1009, 1 + i % 13) for i in range(1200))
json.dumps([str(v) for v in values])
"""
REFERENCE_NOMINAL_S = 0.1
REFERENCE_EVERY_S = 0.5

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

PER_LAYER = [
    ("society.parse_s", "s", "lower"),
    ("society.validate_s", "s", "lower"),
    ("society.validate_calls", "count", "lower"),
    ("society.parse_peak_mb", "MB", "lower"),
    ("society.restrict_s", "s", "lower"),
    ("society.dump_s", "s", "lower"),
    ("generators.random_s", "s", "lower"),
    ("agreement.sweep_s", "s", "lower"),
    ("agreement.distinct_coords", "count", "lower"),
    ("agreement.sweep_slope", "exponent", "lower"),
    ("agreement.tally_s", "s", "lower"),
    ("agreement.tally_slope", "exponent", "lower"),
    ("agreement.box_depth_s", "s", "lower"),
    ("agreement.box_grid_points", "count", "lower"),
    ("agreement.calls", "count", "lower"),
    ("graphs.edges_s", "s", "lower"),
    ("graphs.coloring_s", "s", "lower"),
    ("graphs.edges", "count", "lower"),
    ("graphs.colors", "count", "lower"),
    ("graphs.edges_slope", "exponent", "lower"),
    ("graphs.coloring_slope", "exponent", "lower"),
    ("agreeability.masks_s", "s", "lower"),
    ("agreeability.masks", "count", "lower"),
    ("agreeability.masks_per_platform", "ratio", "lower"),
    ("agreeability.masks_slope", "exponent", "lower"),
    ("agreeability.search_s", "s", "lower"),
    ("agreeability.subsets", "count", "lower"),
    ("bounds.sheet_s", "s", "lower"),
    ("bounds.enclosure_s", "s", "lower"),
    ("verify.linear_s", "s", "lower"),
    ("verify.box_s", "s", "lower"),
    ("verify.graph_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("oracles.s", "s", "lower"),
    ("oracles.calls", "count", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
]


def manifest(workloads) -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Runs ``python -m agreeable ARGS`` and, at exit, writes the process's own
# peak resident set (VmHWM, kB) to the file named first.  The rusage of a
# child would not do: its ru_maxrss counts the benchmark process it was
# forked from, which holds every input and expected answer.
CLI_LAUNCHER = """\
import atexit, runpy, sys
peak_path = sys.argv[1]
sys.argv = ["agreeable", *sys.argv[2:]]

def report_peak():
    with open("/proc/self/status", encoding="ascii") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_path, "w", encoding="ascii") as out:
        out.write(kb)

atexit.register(report_peak)
runpy.run_module("agreeable", run_name="__main__", alter_sys=True)
"""


def run_cli_child(argv: list[str], work: Path, env: dict) -> tuple[float, int, str, float]:
    """One ``agreeable`` command as a child process: (seconds, exit code, stdout, peak MB)."""
    out_path, err_path, peak_path = work / "stdout.txt", work / "stderr.txt", work / "peak.txt"
    peak_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", CLI_LAUNCHER, str(peak_path), *argv], stdout=out, stderr=err, cwd=work, env=env
        )
        child.wait()
        elapsed = time.perf_counter() - start
    peak_mb = int(peak_path.read_text(encoding="ascii")) / 1024 if peak_path.exists() else 0.0
    return elapsed, child.returncode, out_path.read_text(encoding="utf-8"), peak_mb


def reference_seconds(work: Path) -> float:
    """Wall time of the reference interpreter, measured now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", REFERENCE_CODE], cwd=work, check=True)
    return time.perf_counter() - start


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    from agreeable import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Tally:
    """Operations attempted and failed, and whether every answer checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def record(self, op, ok: bool, output) -> bool:
        """Count one operation and check its output; False if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {op.label}", file=sys.stderr)
            return False
        try:
            op.check(output)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            self.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
            print(f"wrong answer: {op.label}: {exc}", file=sys.stderr)
        return True


def execute(op, work: Path, env: dict, tally: Tally) -> tuple[float | None, float]:
    """Run and check one operation.

    Returns its latency (None when it failed) and the child's peak resident
    set in MB (0 in-process).
    """
    # Garbage left by earlier checks would otherwise be collected inside
    # whichever call happens to cross the collector's threshold.
    gc.collect()
    if op.argv is not None:
        elapsed, code, out, peak = run_cli_child(op.argv, work, env)
        return (elapsed if tally.record(op, code == 0, out) else None), peak
    start = time.perf_counter()
    try:
        result = op.call()
        ok = True
    except (ValueError, ArithmeticError, LookupError) as exc:
        print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        result, ok = None, False
    elapsed = time.perf_counter() - start
    return (elapsed if tally.record(op, ok, result) else None), 0.0


def timed_run(workload, seed: int, seconds: float, work: Path, ag) -> dict:
    workload.plan(seed, ag)
    setups: list[float] = []
    while len(setups) < SETUP_MIN_REPEATS or (sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        gc.collect()
        start = time.perf_counter()
        inputs = workload.build(seed, work, ag)
        setups.append(time.perf_counter() - start)
    ops = workload.operations(inputs, ag)
    env = child_env()

    warm = Tally()
    execute(ops[0], work, env, warm)
    references = [reference_seconds(work) for _ in range(3)]

    tally = Tally()
    latencies: list[float] = []
    child_peak = 0.0
    start = last_reference = time.perf_counter()
    while True:
        for op in ops:
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append(reference_seconds(work))
                last_reference = time.perf_counter()
            latency, peak = execute(op, work, env, tally)
            child_peak = max(child_peak, peak)
            if latency is not None:
                latencies.append(latency)
        if time.perf_counter() - start >= seconds:
            break
    if any(op.argv is None for op in ops):
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak_mb = child_peak
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
    }
    reference = statistics.median(references)
    scale = REFERENCE_NOMINAL_S / reference
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_s": raw["op_p50_s"] * scale,
        "peak_rss_mb": peak_mb,
    }
    units = {m["name"]: m["unit"] for m in END_TO_END}
    print(
        f"{workload.name} seed={seed}: {tally.attempted} operations in {len(ops)}-operation rounds,"
        f" {tally.failed} failed, {len(tally.wrong)} wrong; measured "
        + " ".join(f"{name} {value:.6g}" for name, value in raw.items())
        + f"; median of {len(references)} references {reference:.6g} s",
        file=sys.stderr,
    )
    return {
        "correct": not tally.wrong and not warm.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def replay(ops, work: Path, tally: Tally, tracer=None, first_id: int = 0) -> float:
    """One round in-process: CLI operations through ``cli.main``.  Returns its seconds."""
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + i
        if op.argv is not None:
            code, out = run_cli_inprocess(op.argv)
            tally.record(op, code == 0, out)
        else:
            try:
                result, ok = op.call(), True
            except (ValueError, ArithmeticError, LookupError):
                result, ok = None, False
            tally.record(op, ok, result)
    if tracer is not None:
        tracer.op = -1
    return time.perf_counter() - start


def cli_startup(work: Path) -> float:
    """Median wall time of a trivial command in a fresh interpreter."""
    env = child_env()
    samples = []
    for _ in range(STARTUP_SAMPLES):
        elapsed, code, out, _ = run_cli_child(["bounds", "--k", "2", "--m", "3", "--format", "json"], work, env)
        obj = json.loads(out) if code == 0 else {}
        if obj.get("q") != 2 or obj.get("rho") != 0 or obj.get("proportion_bound") != "1/2":
            raise SystemExit(f"trivial command failed or answered wrongly: exit {code}, {out!r}")
        samples.append(elapsed)
    return statistics.median(samples)


def parse_peak_mb(work: Path, ag) -> float:
    """Peak traced allocation of loading the workload's largest written society."""
    files = [p for p in work.iterdir() if p.suffix == ".json"]
    if not files:
        return 0.0
    text = max(files, key=lambda p: p.stat().st_size).read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        ag.loads_society(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_run(workload, seed: int, seconds: float, work: Path, ag) -> dict:
    from spans import Tracer, layer_metrics

    workload.plan(seed, ag)
    inputs = workload.build(seed, work, ag)
    ops = workload.operations(inputs, ag)
    untraced = Tally()
    replay(ops, work, untraced)  # warm-up
    base = statistics.median(replay(ops, work, untraced) for _ in range(3))

    tracer = Tracer()
    tracer.install()
    tally = Tally()
    executions = {}
    round_times = []
    try:
        workload.build(seed, work, ag)
        start = time.perf_counter()
        while True:
            first = len(executions)
            executions.update({first + i: op for i, op in enumerate(ops)})
            round_times.append(replay(ops, work, tally, tracer, first))
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer.spans, executions, len(round_times))
    metrics["society.parse_peak_mb"] = parse_peak_mb(work, ag)
    metrics["cli.startup_s"] = cli_startup(work)
    overhead = statistics.median(round_times) / base - 1
    print(f"{workload.name} seed={seed}: tracing overhead {overhead:+.1%} per round", file=sys.stderr)

    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{workload.name}-{seed}.json"
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "rounds": len(round_times),
                "untraced_round_s": base,
                "traced_round_s": round_times,
                "overhead": overhead,
                "operations": {i: op.label for i, op in executions.items()},
                "span_fields": ["name", "start", "end", "parent", "op", "self_s", "info"],
                "spans": [s.to_list() for s in tracer.spans],
            },
            f,
            separators=(",", ":"),
        )
    units = {n: u for n, u, _ in PER_LAYER}
    return {
        "correct": not tally.wrong and not untraced.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "agreeable" / "__init__.py").is_file():
        print(f"error: no agreeable package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import agreeable as ag

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(WORKLOADS), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    # One CPU for the benchmark, its operations and the reference, which run
    # one at a time, so the reference samples the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, work, ag)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
