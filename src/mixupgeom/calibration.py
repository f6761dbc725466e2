"""Expected calibration error over equal-width confidence bins.

Predictions are gathered into M bins by confidence (left-closed,
right-open, last bin closed at 1.0); the ECE is the count-weighted mean
absolute gap between per-bin accuracy and per-bin mean confidence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .etf import _bad_header, _parse_rows, _read_text

DEFAULT_BINS = 15
PREDICTIONS_HEADER = "confidence,predicted,label"


@dataclass(frozen=True)
class CalibrationReport:
    num_bins: int
    bin_edges: np.ndarray  # M + 1 equal-width edges over [0, 1]
    counts: np.ndarray  # per-bin prediction counts
    accuracies: np.ndarray  # per-bin accuracy, 0.0 for empty bins
    confidences: np.ndarray  # per-bin mean confidence, 0.0 for empty bins
    ece: float


def ece(confidences, predicted, labels, num_bins: int = DEFAULT_BINS) -> CalibrationReport:
    """Bin predictions by confidence and compute the calibration gap."""
    conf = np.asarray(confidences, dtype=float)
    pred = np.asarray(predicted, dtype=int)
    lab = np.asarray(labels, dtype=int)
    if conf.shape != pred.shape or conf.shape != lab.shape or conf.ndim != 1:
        raise ValueError(
            f"length mismatch: {conf.shape}, {pred.shape}, {lab.shape}"
        )
    if conf.size == 0:
        raise ValueError("no predictions")
    if not np.all((conf >= 0.0) & (conf <= 1.0)):
        raise ValueError("confidences must lie in [0, 1]")
    if num_bins < 1:
        raise ValueError(f"need at least one bin, got {num_bins}")
    idx = np.minimum((conf * num_bins).astype(int), num_bins - 1)
    correct = (pred == lab).astype(float)
    counts = np.zeros(num_bins, dtype=int)
    acc = np.zeros(num_bins)
    mean_conf = np.zeros(num_bins)
    for b in range(num_bins):
        mask = idx == b
        counts[b] = int(mask.sum())
        if counts[b]:
            acc[b] = float(correct[mask].mean())
            mean_conf[b] = float(conf[mask].mean())
    gap = float((counts / conf.size * np.abs(acc - mean_conf)).sum())
    return CalibrationReport(
        num_bins=num_bins,
        bin_edges=np.linspace(0.0, 1.0, num_bins + 1),
        counts=counts,
        accuracies=acc,
        confidences=mean_conf,
        ece=gap,
    )


def _prediction(line: str) -> tuple:
    parts = line.split(",")
    if len(parts) != 3:
        raise ValueError(f"{len(parts)} fields, expected 3")
    confidence = float(parts[0])
    if not math.isfinite(confidence):
        raise ValueError(f"confidence {parts[0]!r} is not finite")
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence {parts[0]!r} is outside [0, 1]")
    predicted, label = int(parts[1]), int(parts[2])
    if predicted < 0 or label < 0:
        raise ValueError(f"class ids must not be negative, got {predicted} and {label}")
    return confidence, predicted, label


def predictions_from_csv(path):
    """(confidences, predicted, labels) of a CSV with the header
    confidence,predicted,label. A row without three fields, with a
    confidence outside [0, 1] or a negative class id, or a line that is
    not UTF-8, raises ValueError naming path:line; a file without rows
    raises one naming path."""
    lines = _read_text(path).split("\n")
    if lines[0].strip() != PREDICTIONS_HEADER:
        raise _bad_header(path, "prediction", PREDICTIONS_HEADER)
    rows = _parse_rows(lines[1:], path, "prediction", _prediction, start=2)
    if not rows:
        raise ValueError(f"{path}: empty prediction file")
    conf, pred, lab = zip(*rows)
    return np.array(conf, dtype=float), np.array(pred, dtype=int), np.array(lab, dtype=int)


def model_confidences(model, inputs, labels):
    """(max softmax probability, argmax class, labels) for each input.

    Argmax ties break to the lowest class index.
    """
    from . import trainer

    probs = trainer.predict_probs(model, np.asarray(inputs, dtype=float))
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    return conf, pred, np.asarray(labels, dtype=int)


def report_to_json(report: CalibrationReport) -> str:
    return json.dumps(
        {
            "num_bins": report.num_bins,
            "bin_edges": [float(e) for e in report.bin_edges],
            "bins": [
                {
                    "count": int(c),
                    "accuracy": float(a),
                    "mean_confidence": float(m),
                }
                for c, a, m in zip(
                    report.counts, report.accuracies, report.confidences
                )
            ],
            "ece": report.ece,
        },
        indent=2,
    )
