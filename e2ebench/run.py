"""End-to-end benchmark of the mixupgeom CLI.

Run from the repository root:

    python3 e2ebench/run.py --workload theory-paper --seed 0 --seconds 30 --trace 0

Workloads: theory-paper, theory-wide, practice (see README.md). The run
measures set-up (fresh-interpreter imports of ``mixupgeom.cli``), then
starts a worker process that runs the workload's passes for
``--seconds``, then checks the outputs with its own numpy code. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import checks
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".e2ebench")
# Set-up samples taken by this process around the worker's; one more
# import before them compiles the bytecode, uncounted.
SETUP_AROUND = 2
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """The worker's environment: the program's sources on the path, and
    one BLAS thread. The workloads' matrix products are small, and on a
    host that lends the guest a few cores, starting and waking BLAS
    threads times the host's scheduler: with two threads, the import of
    numpy alone took 0.15 s or 0.23 s by turns."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_ENV:
        env[var] = "1"
    return env


def environment(report: dict, nproc: int) -> dict:
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "nproc": nproc,
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": report["blas_threads"],
        "kernel_backend": report["backend"],
        # Tier-1 figures are pure-Python kernels only; a compiled
        # backend's figures are not comparable with them.
        "tier1": report["backend"] in (None, "pure"),
    }


# ------------------------------------------------------------------ checks


def _stdout_value(report: dict, step: str) -> float:
    return float(report["last"][step]["stdout"].strip().splitlines()[-1])


def _check_theory_solve(p: dict, seed: int, path: str, step: str, report: dict):
    t = checks.read_features(path)
    w = checks.simplex_etf(p["C"], p["d"], p["m"], seed)
    summary = checks.load_json(path + ".summary.json")
    errors = checks.check_row_count(t, p["samples"] * p["classes"] ** 2, "features")
    errors += checks.check_stationarity(t, w, p["lambda_h"])
    errors += checks.check_feature_geometry(t, w)
    errors += checks.check_loss(
        t, w, p["lambda_h"], summary["mean_per_sample_loss"],
        _stdout_value(report, step),
    )
    return t, errors, {"mean_loss": summary["mean_per_sample_loss"]}


def run_checks(workload: str, seed: int, inputs: str, work: str, report: dict):
    """(failure messages per step, information figures)."""
    errors: dict[str, list[str]] = {}
    info: dict = {}

    def guarded(step, fn):
        try:
            errors[step] = fn()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors[step] = [f"outputs unreadable: {exc!r}"]

    def w(name):
        return os.path.join(work, name)

    if workload == "theory-paper":
        losses = []
        for j, s in enumerate(workloads.theory_paper_seeds(seed)):

            def solve(j=j, s=s):
                _, errs, figures = _check_theory_solve(
                    workloads.THEORY_PAPER, s, w(f"features-{j}.csv"),
                    f"theory-solve-{j}", report,
                )
                losses.append(figures["mean_loss"])
                return errs

            guarded(f"theory-solve-{j}", solve)
        if losses:
            # Every call draws as many lambdas, so this is the pass's mean loss.
            info["mean_loss"] = float(np.mean(losses))
        return errors, info

    if workload == "theory-wide":
        p = workloads.THEORY_WIDE
        state = {}

        def solve():
            state["t"], errs, figures = _check_theory_solve(
                p, seed, w("features.csv"), "theory-solve", report
            )
            info.update(figures)
            return errs

        guarded("theory-solve", solve)
        guarded(
            "project",
            lambda: checks.check_projection(
                state["t"] if "t" in state else checks.read_features(w("features.csv")),
                checks.read_points(w("points.csv")),
                checks.read_rows(os.path.join(inputs, "classifier.csv")),
                center=False,
            ),
        )
        return errors, info

    try:
        model = checks.load_json(w("model.json"))
        x, labels = checks.read_dataset(w("data.csv"))
        clf = np.asarray(model["clf_w"], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        unreadable = [f"model or dataset unreadable: {exc!r}"]
        return {s: unreadable for s in report["steps"]}, info
    state = {}

    def train():
        info["accuracy"], errs = checks.check_accuracy(model, x, labels)
        return errs

    def extract():
        state["acts"] = checks.read_features(w("activations.csv"))
        clean_mean = checks.forward_logits(model, x)[0].mean(axis=0)
        info["same_class_cosine"] = checks.same_class_cosine(state["acts"], clf, clean_mean)
        return checks.check_activations(
            state["acts"], workloads.EXTRACT_COUNT, clf.shape[1]
        )

    def classifier():
        if not np.array_equal(checks.read_rows(w("classifier.csv")), clf[:3]):
            return ["classifier: rows differ from the model's first three"]
        return []

    def project():
        acts = state["acts"] if "acts" in state else checks.read_features(w("activations.csv"))
        return checks.check_projection(
            acts, checks.read_points(w("points.csv")), clf[:3], center=True
        )

    def predictions():
        state["pred"] = checks.read_predictions(w("predictions.csv"))
        return checks.check_predictions(model, x, labels, *state["pred"])

    def ece():
        conf, pred, label = state["pred"] if "pred" in state else checks.read_predictions(w("predictions.csv"))
        report_doc = checks.load_json(w("ece.json"))
        info["ece"] = report_doc["ece"]
        return checks.check_ece(
            conf, pred, label, workloads.ECE_BINS, report_doc, _stdout_value(report, "ece")
        )

    for name, fn in [
        ("train", train), ("extract", extract), ("classifier", classifier),
        ("project", project), ("predictions", predictions), ("ece", ece),
    ]:
        guarded(name, fn)
    return errors, info


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = perf_counter()
    # On SIGTERM, unwind: subprocess.run kills the worker, and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "mixupgeom", "cli.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    report_path = os.path.join(work, "report.json")
    try:
        workloads.prepare(args.workload, args.seed, inputs)
        worker.import_times(env, 1)
        setup = worker.import_times(env, SETUP_AROUND)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--inputs", inputs, "--work", os.path.join(work, "out"),
            "--report", report_path,
        ]
        if args.trace:
            cmd += ["--trace-out", os.path.join(OUT, "traces", tag + ".npz")]
        timeout = max(DEADLINE_S - (perf_counter() - began), 10.0)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(report_path) as fh:
            report = json.load(fh)
        setup += report["setup_s"] + worker.import_times(env, SETUP_AROUND)

        errors, info = run_checks(
            args.workload, args.seed, inputs, os.path.join(work, "out"), report
        )
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steps, passes = report["steps"], report["passes"]
    failed = {(k, s) for k, p in enumerate(passes) for s, rc in enumerate(p["rcs"]) if rc}
    for s, name in enumerate(steps):
        if errors.get(name):
            failed |= {(k, s) for k in range(len(passes))}
    owner = {name: s for s, names in enumerate(report["outputs"]) for name in names}
    drift = checks.check_determinism([p["digests"] for p in passes])
    failed |= {(k, owner[name]) for k, name in drift}
    problems = {name: errs for name, errs in errors.items() if errs}
    if drift:
        problems["determinism"] = [f"pass {k}: {name} differs from pass 0" for k, name in drift]
    for s, name in enumerate(steps):
        if passes[-1]["rcs"][s]:
            stderr = report["last"][name]["stderr"].strip()[-300:]
            problems.setdefault(name, []).append(f"exit code {passes[-1]['rcs'][s]}: {stderr}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["layer_metrics"].items()}
    else:
        untraced = [p for p in passes if not p["traced"]]
        timed = [p for p in untraced if not p["warmup"]]
        metrics = {
            "wall_s": {"value": statistics.median(p["ref_wall_s"] for p in timed), "unit": "s"},
            "setup_s": {"value": statistics.median(t for _, t in setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "output_mb": {
                "value": statistics.median(p["written_bytes"] for p in untraced) / 1e6,
                "unit": "MB",
            },
        }
    result = {
        "correct": not any(errors.values()) and not drift,
        "attempted": len(passes) * len(steps),
        "failed": len(failed),
        "metrics": metrics,
    }
    details = {
        "env": environment(report, nproc),
        "passes": len(passes),
        # Measured times, before scaling to reference speed.
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "setup_import_s": [round(t, 4) for t, _ in setup],
        "median_measured_s": {
            "wall": statistics.median(p["wall_s"] for p in passes[1:] if not p["traced"]),
            "setup": statistics.median(t for t, _ in setup),
        },
        "info": info,
        "problems": problems,
    }
    if args.trace:
        details.update(
            spans=report["spans"],
            absent=report["absent"],
            unstable_counts=report["unstable_counts"],
        )
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    for key, value in details.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
