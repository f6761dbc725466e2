"""The three workloads: their inputs, the operations of one pass, and
the files each operation reads and writes.

The workload seed is the benchmark's argument; the program receives
only what is generated from it here (flags, a config file, a classifier
CSV).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import checks

# Each operation is kept to about a second or less, so that the
# reference loop timed around it (worker.calibrate) sees the speed the
# machine had while it ran.
# The paper's reference configuration, with 100 lambda draws where the
# paper uses 5000. theory-paper runs it THEORY_PAPER_CALLS times a pass,
# each with a seed of its own, so that the work of a pass depends little
# on which lambdas the seed draws.
THEORY_PAPER = dict(C=10, m=3.0, d=100, lambda_h=1e-6, classes=3, samples=100, alpha=1.0)
THEORY_PAPER_CALLS = 5
# Wide features: 1000 records x 1000 floats, a ~20 MB feature CSV.
THEORY_WIDE = dict(C=10, m=3.0, d=1000, lambda_h=1e-6, classes=10, samples=10, alpha=1.0)
# The default training config with 40 epochs instead of 200.
TRAIN_EPOCHS = 40
EXTRACT_COUNT = 4000
ECE_BINS = 15


@dataclass
class Step:
    """One operation: a CLI command (argv) or a benchmark-side step
    (func, which imports the program when it runs)."""

    name: str
    argv: list[str] | None = None
    func: object = None
    outputs: list[str] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)

    @property
    def span(self) -> str:
        return "cli." + self.argv[0] if self.argv is not None else "bench." + self.name


WORKLOADS = ("theory-paper", "theory-wide", "practice")


def theory_paper_seeds(seed: int) -> list[int]:
    """The program seeds of theory-paper's theory-solve calls."""
    return [THEORY_PAPER_CALLS * seed + j for j in range(THEORY_PAPER_CALLS)]


def _theory_solve(p: dict, seed: int, out: str, name: str = "theory-solve") -> Step:
    argv = ["theory-solve"]
    for flag, key in [
        ("--C", "C"), ("--m", "m"), ("--d", "d"), ("--lambda-h", "lambda_h"),
        ("--classes", "classes"), ("--samples", "samples"), ("--alpha", "alpha"),
    ]:
        argv += [flag, repr(p[key])]
    argv += ["--seed", str(seed), "--out", out]
    return Step(name, argv=argv, outputs=[out, out + ".summary.json"])


def prepare(workload: str, seed: int, inputs: str) -> None:
    """Write the workload's generated input files (untimed)."""
    os.makedirs(inputs, exist_ok=True)
    if workload == "theory-wide":
        p = THEORY_WIDE
        rows = checks.simplex_etf(p["C"], p["d"], p["m"], seed)[:3]
        _write_rows(os.path.join(inputs, "classifier.csv"), rows)
    elif workload == "practice":
        with open(os.path.join(inputs, "run.cfg"), "w") as fh:
            fh.write(
                f"dataset.seed = {seed}\ntrain.seed = {seed}\n"
                f"train.epochs = {TRAIN_EPOCHS}\n"
            )


def steps(workload: str, seed: int, inputs: str, work: str) -> list[Step]:
    def w(name):
        return os.path.join(work, name)

    if workload == "theory-paper":
        return [
            _theory_solve(THEORY_PAPER, s, w(f"features-{j}.csv"), f"theory-solve-{j}")
            for j, s in enumerate(theory_paper_seeds(seed))
        ] + [Step("oracle-check", argv=["oracle-check"])]
    if workload == "theory-wide":
        clf = os.path.join(inputs, "classifier.csv")
        return [
            _theory_solve(THEORY_WIDE, seed, w("features.csv")),
            Step(
                "project",
                argv=["project", "--features", w("features.csv"),
                      "--classifier", clf, "--out", w("points.csv")],
                outputs=[w("points.csv")],
                inputs=[w("features.csv"), clf],
            ),
        ]
    if workload == "practice":
        cfg = os.path.join(inputs, "run.cfg")
        model, data = w("model.json"), w("data.csv")
        return [
            Step(
                "train",
                argv=["train", "--config", cfg, "--out", model, "--dataset-out", data],
                outputs=[model, data],
                inputs=[cfg],
            ),
            Step(
                "extract",
                argv=["extract", "--model", model, "--dataset", data,
                      "--count", str(EXTRACT_COUNT), "--seed", str(seed),
                      "--out", w("activations.csv")],
                outputs=[w("activations.csv")],
                inputs=[model, data],
            ),
            Step(
                "classifier",
                func=lambda: write_classifier(model, w("classifier.csv")),
                outputs=[w("classifier.csv")],
            ),
            Step(
                "project",
                argv=["project", "--features", w("activations.csv"),
                      "--classifier", w("classifier.csv"), "--center-mean",
                      "--out", w("points.csv")],
                outputs=[w("points.csv")],
                inputs=[w("activations.csv"), w("classifier.csv")],
            ),
            Step(
                "predictions",
                func=lambda: write_predictions(model, data, w("predictions.csv")),
                outputs=[w("predictions.csv")],
            ),
            Step(
                "ece",
                argv=["ece", "--predictions", w("predictions.csv"),
                      "--bins", str(ECE_BINS), "--out", w("ece.json")],
                outputs=[w("ece.json")],
                inputs=[w("predictions.csv")],
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _write_rows(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def write_classifier(model_path: str, out: str) -> None:
    """The learned classifier's first three rows, as a classifier CSV."""
    with open(model_path) as fh:
        _write_rows(out, json.load(fh)["clf_w"][:3])


def write_predictions(model_path: str, dataset_path: str, out: str) -> None:
    """confidence,predicted,label for the clean points, from the
    program's own model_confidences."""
    from mixupgeom import calibration, trainer

    with open(model_path) as fh:
        model = trainer.model_from_json(fh.read())
    with open(dataset_path) as fh:
        inputs, labels = trainer.dataset_from_csv(fh.read())
    conf, pred, lab = calibration.model_confidences(model, inputs, labels)
    lines = [checks.PREDICTIONS_HEADER]
    lines += [f"{float(c)!r},{int(p)},{int(y)}" for c, p, y in zip(conf, pred, lab)]
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
