"""Benchmark for the ``upto`` command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse-bisim --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program under test is the
``upto`` package in its ``src`` directory.  Inputs are generated from the
seed into ``.bench_work/``.  The load is a closed loop from one client: one
``python -m upto`` process at a time, the next started when the previous one
has exited, each checked against the workload's oracle.

``--trace 0`` prints the end-to-end metrics: median wall time, CPU time and
peak RSS per invocation (taken from ``os.wait4`` for that child alone), and
``setup_s``, the median wall time of ``upto gallery 0``.  ``--trace 1``
spends half the time on untraced children and half on one tracemalloc
pass followed by in-process traced invocations (see ``tracing.py``), and
prints the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import tracing
from workloads import SETUP_ARGV, WORKLOADS, Prepared, setup_check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 4
TIMEOUT_S = 60.0
TRACEBACK = b"Traceback (most recent call last)"


@dataclass(frozen=True)
class Sample:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: Optional[str]


class ChildRunner:
    """Spawns ``python -m upto`` and measures that one child.

    The child writes stdout and stderr to files in ``workdir``, so this
    process sleeps while the child runs instead of draining a pipe on the
    same two cores.
    """

    def __init__(self, workdir: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.stdout_path = workdir / "stdout.bin"
        self.stderr_path = workdir / "stderr.txt"

    def run(self, argv, check) -> Sample:
        with open(self.stdout_path, "w+b") as out, open(self.stderr_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "upto", *argv],
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                cwd=ROOT,
                env=self.env,
            )
            # The timer may kill only while the child is unreaped: waitid with
            # WNOWAIT leaves it a zombie, so its pid cannot be reused before
            # `exited` is set under the lock.
            lock, exited, timed_out = threading.Lock(), [], []

            def expire():
                with lock:
                    if not exited:
                        timed_out.append(True)
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(TIMEOUT_S, expire)
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    exited.append(True)
            finally:
                timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read()

        if timed_out:
            error = f"timed out after {TIMEOUT_S:.0f} s"
        elif TRACEBACK in stderr:
            error = "traceback on stderr: " + stderr.decode(errors="replace").strip().splitlines()[-1]
        else:
            error = check(proc.returncode, stdout)
        # ru_maxrss is in KiB on Linux
        return Sample(tuple(argv), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, error)


def closed_loop(
    runner: ChildRunner, prepared: Prepared, seconds: float
) -> tuple[Sample, list[Sample], list[Sample]]:
    """One warm-up invocation, then workload invocations back to back, each
    followed by one setup probe, until the next pair would end past the
    deadline.  Returns the warm-up, the timed samples and the probes.

    The warm-up is checked but not timed: the first invocation ran above
    the run's median in four of five verify-1000 runs measured, so timing
    it would weigh the start of the run twice.  Probing between invocations spreads the
    setup_s samples over the whole run, so a slow spell on the machine
    weighs on both metrics alike.
    """
    samples: list[Sample] = []
    probes: list[Sample] = []
    deadline = time.perf_counter() + seconds
    warm = runner.run(*prepared.cases[0])
    while True:
        argv, check = prepared.cases[len(samples) % len(prepared.cases)]
        samples.append(runner.run(argv, check))
        probes.append(runner.run(SETUP_ARGV, setup_check))
        typical = statistics.median(s.wall_s for s in samples) + statistics.median(
            p.wall_s for p in probes
        )
        if time.perf_counter() + typical > deadline:
            return warm, samples, probes


def tail_note(values: list[float]) -> str:
    """The sample count, and the highest percentile with ten samples above it."""
    n = len(values)
    if n <= 10:
        return f"median of {n}; a tail percentile needs more than 10 samples"
    return f"median of {n}; p{100 * (n - 10) // n} = {sorted(values)[n - 11]:.4f}"


def environment(prepared: Prepared) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(threads) if threads else f"default ({nproc})",
        "nproc": nproc,
        "input_sha256": prepared.input_sha256,
    }


def passed(samples: list[Sample]) -> list[Sample]:
    """The samples whose output passed; all of them if none did (the run then
    reports correct = false, and its timings still get printed)."""
    return [s for s in samples if s.error is None] or samples


def end_to_end(samples: list[Sample], probes: list[Sample]) -> dict:
    timed, probes = passed(samples), passed(probes)
    walls = [s.wall_s for s in timed]
    print(f"wall_s      = {statistics.median(walls):.4f} s  ({tail_note(walls)})")
    print(f"setup_s from {len(probes)} probes of `upto {' '.join(SETUP_ARGV)}`")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in timed), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in timed), "MB"),
        "setup_s": (statistics.median(s.wall_s for s in probes), "s"),
    }
    for name in ("cpu_s", "peak_rss_mb", "setup_s"):
        value, unit = metrics[name]
        print(f"{name:<11} = {value:.4f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced(prepared: Prepared, seconds: float, untraced_work_s: float) -> tuple[dict, int, list[str]]:
    """One tracemalloc pass, then traced in-process invocations until
    ``seconds`` after the start of the pass.

    The pass comes first so that its cost, several traced invocations'
    worth, stays inside the run's time.  Returns the per-layer metrics, the
    invocations attempted and the failures.
    """
    sys.path.insert(0, str(SRC))
    bindings = tracing.resolve_bindings()
    errors, done, attempted = [], [], 1
    deadline = time.perf_counter() + seconds
    argv, check = prepared.cases[0]
    code, out, error, peaks = tracing.peak_invocation(list(argv), bindings)
    error = error or check(code, out)
    if error:
        errors.append(f"tracemalloc pass: {error}")
    while True:
        argv, check = prepared.cases[attempted % len(prepared.cases)]
        attempted += 1
        inv = tracing.traced_invocation(list(argv), bindings)
        error = inv.error or check(inv.exit_code, inv.stdout)
        if error:
            errors.append(f"traced invocation {attempted}: {error}")
        if inv.error is None:
            done.append(inv.metrics)
        typical = statistics.median(m["trace.wall_s"] for m in done) if done else 0.0
        if time.perf_counter() + typical > deadline:
            break
    if not done:
        return {}, attempted, errors

    overhead = statistics.median(m["trace.wall_s"] for m in done) - untraced_work_s
    values = tracing.summarize(done, peaks, overhead, bindings)
    absent = [m.name for m in tracing.PER_LAYER if m.name not in values]
    if absent:
        print(f"absent (no binding left for their layer): {', '.join(absent)}")
    for metric in tracing.PER_LAYER:
        if metric.name in values:
            print(f"{metric.name:<26} = {values[metric.name]:.6g} {metric.unit}")
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in tracing.PER_LAYER if m.name in values
    }
    return metrics, attempted, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "upto" / "__init__.py").is_file():
        print(f"perfbench: no upto package in {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    prepared = WORKLOADS[args.workload].prepare(args.seed, workdir)
    runner = ChildRunner(workdir)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {WORKLOADS[args.workload].why}")
    print(f"env: {json.dumps(environment(prepared), sort_keys=True)}")

    # The first probe fills __pycache__, which every later user has too, so
    # it is checked but left out of setup_s.
    warm = runner.run(SETUP_ARGV, setup_check)
    probes = [runner.run(SETUP_ARGV, setup_check) for _ in range(SETUP_PROBES)]
    child_seconds = args.seconds / 2 if args.trace else args.seconds
    warm_work, samples, loop_probes = closed_loop(runner, prepared, child_seconds)
    probes += loop_probes

    children = [warm, *probes, warm_work, *samples]
    attempted = len(children)
    errors = [f"upto {' '.join(s.argv)}: {s.error}" for s in children if s.error]
    if args.trace:
        untraced_work = statistics.median(s.wall_s for s in passed(samples)) - statistics.median(
            s.wall_s for s in passed(probes)
        )
        metrics, traced_attempts, traced_errors = traced(
            prepared, args.seconds - child_seconds, untraced_work
        )
        attempted += traced_attempts
        errors += traced_errors
        if metrics:
            text, holds = WORKLOADS[args.workload].design({k: v["value"] for k, v in metrics.items()})
            print(f"design: {text}: {'holds' if holds else 'does not hold'}")
    else:
        metrics = end_to_end(samples, probes)
    failed = len(errors)
    for line in errors:
        print(f"FAIL {line}")
    print(f"error_rate  = {failed}/{attempted} = {failed / attempted:.4f} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
