"""Mixup coefficient sampling and batch mixing.

All randomness flows through an explicit numpy Generator passed by the
caller; there is no hidden global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SAME_CLASS = "same_class"
DIFFERENT_CLASS = "different_class"


@dataclass(frozen=True)
class BetaSpec:
    """Symmetric Beta(alpha, alpha) mixing distribution; alpha=1 is
    uniform on [0, 1]."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class MixupBatch:
    """n mixed samples as arrays. Row k mixes dataset rows src_i[k] and
    src_j[k] with coefficient lam[k]; class_i and class_ip are their hard
    labels."""

    x: np.ndarray  # n x D
    y: np.ndarray  # n x C soft labels, rows sum to 1
    lam: np.ndarray  # n
    class_i: np.ndarray  # n
    class_ip: np.ndarray  # n
    src_i: np.ndarray  # n
    src_j: np.ndarray  # n

    @property
    def kind(self) -> np.ndarray:
        """SAME_CLASS where both sources share a class, else DIFFERENT_CLASS."""
        return np.where(self.class_i == self.class_ip, SAME_CLASS, DIFFERENT_CLASS)

    def __len__(self) -> int:
        return len(self.lam)


def sample_lambdas(spec: BetaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Beta(alpha, alpha) draws via the two-Gamma ratio. The stream is
    that of drawing each sample's two Gammas in turn."""
    g = rng.gamma(spec.alpha, size=(n, 2))
    return g[:, 0] / (g[:, 0] + g[:, 1])


def mix(inputs, labels, i, j, lam, num_classes: int) -> MixupBatch:
    """Mix dataset row i[k] with row j[k] by lam[k], for every k at once.

    i, j and lam are 1-D arrays of one length. Labels must be classes in
    [0, num_classes); a bad one is reported by its dataset line (row k is
    line k + 2, after the header). Source indices must be rows of the
    dataset and lam must lie in [0, 1].
    """
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    i = np.asarray(i, dtype=int)
    j = np.asarray(j, dtype=int)
    lam = np.asarray(lam, dtype=float)
    n = len(inputs)
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        row = bad[0]
        raise ValueError(
            f"dataset line {row + 2}: label {labels[row]} is not in [0, {num_classes})"
        )
    for name, src in (("i", i), ("j", j)):
        bad = src[(src < 0) | (src >= n)]
        if bad.size:
            raise ValueError(
                f"source index {name}={bad[0]} is not a row of the {n}-row dataset"
            )
    bad = lam[~((lam >= 0.0) & (lam <= 1.0))]
    if bad.size:
        raise ValueError(f"lambda must be in [0, 1], got {bad[0]}")
    eye = np.eye(num_classes)
    class_i, class_ip = labels[i], labels[j]
    w = lam[:, None]
    return MixupBatch(
        x=w * inputs[i] + (1.0 - w) * inputs[j],
        y=w * eye[class_i] + (1.0 - w) * eye[class_ip],
        lam=lam,
        class_i=class_i,
        class_ip=class_ip,
        src_i=i,
        src_j=j,
    )


def make_mixup_batch(
    inputs: np.ndarray,
    hard_labels: np.ndarray,
    spec: BetaSpec,
    batch_size: int,
    rng: np.random.Generator,
    num_classes: int,
) -> MixupBatch:
    """batch_size mixed samples from uniformly drawn ordered index pairs,
    one independent lambda per sample."""
    n = len(inputs)
    if n == 0:
        raise ValueError("empty dataset")
    i = rng.integers(n, size=batch_size)
    j = rng.integers(n, size=batch_size)
    lam = sample_lambdas(spec, batch_size, rng)
    return mix(inputs, hard_labels, i, j, lam, num_classes)
