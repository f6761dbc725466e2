import numpy as np
import pytest

from mixupgeom.calibration import (
    ece,
    model_confidences,
)
from mixupgeom.trainer import EpochStats, TrainConfig, TrainedModel


def test_hand_case():
    report = ece([0.9, 0.8, 0.6, 0.55], [0, 0, 0, 0], [0, 0, 1, 0], num_bins=2)
    assert report.ece == pytest.approx(0.0375, abs=1e-12)
    assert list(report.counts) == [0, 4]
    assert report.accuracies[1] == pytest.approx(0.75)
    assert report.confidences[1] == pytest.approx(0.7125)


def test_perfect_predictions():
    report = ece([1.0] * 5, [1] * 5, [1] * 5, num_bins=10)
    assert report.ece == 0.0


def test_tied_binary_case():
    # every confidence 0.5 and accuracy exactly 0.5: the one occupied
    # bin has acc == conf
    conf = [0.5, 0.5, 0.5, 0.5]
    pred = [0, 0, 0, 0]
    lab = [0, 1, 0, 1]
    assert ece(conf, pred, lab, num_bins=4).ece == pytest.approx(0.0, abs=1e-15)


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    conf = rng.uniform(size=50)
    pred = rng.integers(0, 3, size=50)
    lab = rng.integers(0, 3, size=50)
    base = ece(conf, pred, lab).ece
    order = rng.permutation(50)
    assert ece(conf[order], pred[order], lab[order]).ece == pytest.approx(
        base, abs=1e-15
    )


def test_single_bin_collapse():
    rng = np.random.default_rng(1)
    conf = rng.uniform(size=40)
    pred = rng.integers(0, 2, size=40)
    lab = rng.integers(0, 2, size=40)
    report = ece(conf, pred, lab, num_bins=1)
    expected = abs(float((pred == lab).mean()) - float(conf.mean()))
    assert report.ece == pytest.approx(expected, abs=1e-15)


def test_ece_recomputes_from_bins():
    rng = np.random.default_rng(2)
    conf = rng.uniform(size=100)
    pred = rng.integers(0, 4, size=100)
    lab = rng.integers(0, 4, size=100)
    report = ece(conf, pred, lab)
    recomputed = float(
        (report.counts / report.counts.sum())
        @ np.abs(report.accuracies - report.confidences)
    )
    assert report.ece == pytest.approx(recomputed, abs=1e-12)
    assert report.counts.sum() == 100


def test_boundary_confidences_land_in_a_bin():
    report = ece([0.0, 1.0], [0, 0], [0, 0], num_bins=3)
    assert report.counts.sum() == 2
    assert report.counts[0] == 1 and report.counts[-1] == 1


def test_validation_errors():
    with pytest.raises(ValueError):
        ece([0.5], [0, 1], [0], num_bins=5)
    with pytest.raises(ValueError):
        ece([1.5], [0], [0], num_bins=5)
    with pytest.raises(ValueError):
        ece([0.5], [0], [0], num_bins=0)
    with pytest.raises(ValueError):
        ece([], [], [], num_bins=5)
    with pytest.raises(ValueError, match="confidences must lie in"):
        ece([0.5, float("nan")], [0, 0], [0, 0], num_bins=5)


def _zero_logit_model(num_classes=4, width=3):
    cfg = TrainConfig(hidden_layers=1, width=width, epochs=0)
    return TrainedModel(
        config=cfg,
        input_dim=2,
        num_classes=num_classes,
        weights=[np.zeros((width, 2))],
        biases=[np.zeros(width)],
        clf_w=np.zeros((num_classes, width)),
        clf_b=np.zeros(num_classes),
        history=[],
    )


def test_model_confidences_zero_logits():
    model = _zero_logit_model()
    x = np.random.default_rng(3).normal(size=(6, 2))
    conf, pred, lab = model_confidences(model, x, np.zeros(6, dtype=int))
    assert np.allclose(conf, 0.25, atol=1e-12)
    assert np.all(pred == 0)  # lowest-index tie break
    assert np.all((conf >= 1.0 / 4) & (conf <= 1.0))
