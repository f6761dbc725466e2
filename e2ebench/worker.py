"""One workload's timed passes, run in a process of their own.

Started by run.py with PYTHONPATH pointing at the program's sources.
Each CLI command runs in this process through ``mixupgeom.cli.main``
once the imports are done. Passes run back to back, one client in a
closed loop, until the run's time is up; each attempts every operation
of the workload. The first pass warms up and is not timed. With tracing
on, untraced and traced passes alternate. The report goes to a JSON
file.

The machine's speed drifts by a third and more within a minute, so each
time is also given at reference speed: a fixed pure-Python loop
(``calibrate``) is timed just before and just after what is measured,
and the time is scaled by CAL_REF_S over the mean of the two.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

import checks
import tracing
import workloads


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


CAL_ITERATIONS = 200_000
# Time of the reference loop on the reference machine (README.md), so
# that scaled times are seconds on that machine.
CAL_REF_S = 0.025


def calibrate() -> float:
    """Seconds the fixed reference loop takes now."""
    start = perf_counter()
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        acc += (i * 0.5) % 7.0
    return perf_counter() - start


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mixupgeom.cli; "
    "print(repr(time.perf_counter() - t))"
)


def import_times(env: dict, repeats: int) -> list[tuple[float, float]]:
    """Import times of mixupgeom.cli, each in a fresh interpreter:
    (seconds, seconds at reference speed) per import."""
    times = []
    cal = calibrate()
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import mixupgeom.cli:\n{proc.stderr.strip()}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        after = calibrate()
        times.append((seconds, at_reference_speed(seconds, cal, after)))
        cal = after
    return times


def run_step(cli, step: workloads.Step) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one operation. An uncaught
    exception counts as exit code 1, as it would for the CLI process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if step.argv is not None:
                rc = cli.main(list(step.argv))
            else:
                step.func()
                rc = 0
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            rc = 1
    return int(rc or 0), out.getvalue(), err.getvalue()


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    from mixupgeom import cli, kernels

    backend = getattr(kernels, "backend_name", lambda: None)()

    os.makedirs(args.work, exist_ok=True)
    steps = workloads.steps(args.workload, args.seed, args.inputs, args.work)
    tracer = tracing.Tracer() if args.trace else None
    passes, summaries, last, setup = [], [], {}, []
    began = perf_counter()
    cal = calibrate()
    # A warm-up pass, then at least one untraced and one traced pass.
    while len(passes) < 3 or perf_counter() - began < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.counters.clear()
            lo = tracer.mark()
        rcs, wall, ref_wall = [], 0.0, 0.0
        for step in steps:
            start = perf_counter()
            with tracer.span(step.span) if traced else nullcontext():
                rc, out, err = run_step(cli, step)
            took = perf_counter() - start
            # Each operation is scaled by the speed measured around it.
            cal_after = calibrate()
            wall += took
            ref_wall += at_reference_speed(took, cal, cal_after)
            cal = cal_after
            rcs.append(rc)
            last[step.name] = {"stdout": out, "stderr": err[-2000:]}
        if traced:
            tracer.uninstall()
        cli_steps = [s for s in steps if s.argv is not None]
        written = sum(_size(p) for s in cli_steps for p in s.outputs)
        read = sum(_size(p) for s in cli_steps for p in s.inputs)
        passes.append(
            {
                "warmup": not passes,
                "traced": traced,
                "wall_s": wall,
                "ref_wall_s": ref_wall,
                "rcs": rcs,
                "written_bytes": written,
                "read_bytes": read,
                "digests": {
                    os.path.basename(p): checks.file_digest(p)
                    for s in steps
                    for p in s.outputs
                    if os.path.exists(p)
                },
            }
        )
        # One set-up sample per pass, so that the samples span the run.
        setup += import_times(dict(os.environ), 1)
        cal = calibrate()
        if traced:
            summary = tracing.PassSummary(tracer, lo, tracer.mark(), wall)
            summary.counters = dict(tracer.counters)
            summary.counters["cli.written_bytes"] = written
            summary.counters["cli.read_bytes"] = read
            summaries.append(summary)

    report = {
        "backend": backend,
        "blas_threads": blas_threads(),
        "steps": [s.name for s in steps],
        "outputs": [[os.path.basename(p) for p in s.outputs] for s in steps],
        "passes": passes,
        "setup_s": setup,
        "last": last,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        untraced = [p["wall_s"] for p in passes if not (p["traced"] or p["warmup"])]
        metrics = tracing.layer_metrics(summaries)
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall for p in summaries) - statistics.median(untraced),
            "s",
        )
        report["layer_metrics"] = metrics
        report["absent"] = sorted(set(tracing.EXPECTED_FUNCTIONS) - tracer.wrapped)
        report["unstable_counts"] = tracing.unstable_counts(summaries)
        report["spans"] = tracer.mark()
        if args.trace_out:
            tracer.save(args.trace_out)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
